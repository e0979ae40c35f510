// Observability subsystem tests: the metrics registry, the protocol handle
// blocks, the sim-time sampler, the trace recorder, and -- the load-bearing
// property -- that telemetry never feeds back into simulation behavior:
// identical runs produce identical snapshots, and attaching a sampler and a
// trace recorder leaves the link-level packet trace bit-identical.
//
// Counter-value assertions are guarded by obs::kTelemetryEnabled so this
// suite also compiles (and the determinism half still runs) under
// -DLBRM_NO_TELEMETRY, even though CI never runs ctest on that build.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "packet/packet.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/topology.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;

// --- registry units ---------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
    obs::Metrics m;
    obs::Counter& c = m.counter("c");
    c.inc();
    c.inc(4);
    obs::Gauge& g = m.gauge("g");
    g.set(7);
    obs::Histogram& h = m.histogram("h", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);

    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(c.value(), 5u);
        EXPECT_EQ(m.value("c"), 5u);
        EXPECT_EQ(m.value("g"), 7u);
        ASSERT_EQ(h.counts().size(), 3u);  // two bounds + inf
        EXPECT_EQ(h.counts()[0], 1u);
        EXPECT_EQ(h.counts()[1], 1u);
        EXPECT_EQ(h.counts()[2], 1u);
        EXPECT_EQ(h.count(), 3u);
        EXPECT_DOUBLE_EQ(h.sum(), 55.5);
    }
    EXPECT_TRUE(m.has("c"));
    EXPECT_TRUE(m.has("h"));
    EXPECT_FALSE(m.has("nope"));
    EXPECT_EQ(m.value("nope"), 0u);

    // Find-or-create: same name, same handle.
    EXPECT_EQ(&m.counter("c"), &c);
    EXPECT_EQ(&m.histogram("h", {}), &h);
}

TEST(MetricsRegistry, PullGaugesEvaluateAtReadTime) {
    obs::Metrics m;
    std::uint64_t live = 3;
    m.gauge_fn("pull", [&] { return live; });
    EXPECT_EQ(m.value("pull"), 3u);
    live = 9;
    EXPECT_EQ(m.value("pull"), 9u);
    m.remove_gauge_fn("pull");
    EXPECT_FALSE(m.has("pull"));
    EXPECT_EQ(m.value("pull"), 0u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndJsonDeterministic) {
    obs::Metrics m;
    m.counter("z.last").inc(2);
    m.counter("a.first").inc(1);
    m.gauge_fn("m.middle", [] { return std::uint64_t{5}; });
    const auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.middle");
    EXPECT_EQ(snap[2].name, "z.last");
    const std::string j = m.export_snapshot().to_json();
    EXPECT_EQ(j, m.export_snapshot().to_json());  // stable across calls
    EXPECT_NE(j.find("\"m.middle\":5"), std::string::npos);
}

TEST(MetricsRegistry, HistogramRowsExpandInSnapshot) {
    obs::Metrics m;
    m.histogram("lat", {0.5}).observe(0.1);
    const auto snap = m.snapshot();
    std::vector<std::string> names;
    for (const auto& s : snap) names.push_back(s.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "lat.le_0.5"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lat.le_inf"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lat.count"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lat.sum"), names.end());
}

TEST(MetricsRegistry, DisabledBlocksPointAtSinks) {
    // Unbound cores increment the shared sinks: must be callable, and the
    // same object for every disabled block (no per-core allocation).
    const obs::ProtocolMetrics& d = obs::ProtocolMetrics::disabled();
    d.sender.data_sent->inc();
    d.host.send_by_type[1]->inc();
    EXPECT_EQ(d.sender.data_sent, &obs::Counter::sink());
    EXPECT_EQ(obs::SenderMetrics::disabled().data_sent, d.sender.data_sent);
    EXPECT_EQ(obs::HostMetrics::disabled().notices, &obs::Counter::sink());
}

// The "host.send.<TYPE>" rows are named from packet.cpp's to_string(), one
// per wire type, and the handle block points at exactly those rows.
TEST(MetricsRegistry, HostSendRowsMatchWireTypeNames) {
    obs::Metrics m;
    const obs::ProtocolMetrics& pm = m.protocol();
    EXPECT_EQ(pm.host.send_by_type[0], &obs::Counter::sink());
    for (int t = 1; t <= 19; ++t) {
        const std::string name =
            std::string("host.send.") + to_string(static_cast<PacketType>(t));
        EXPECT_TRUE(m.has(name)) << name;
        EXPECT_EQ(pm.host.send_by_type[static_cast<std::size_t>(t)],
                  &m.counter(name))
            << name;
    }
    // Cached: the second resolve is the same block.
    EXPECT_EQ(&m.protocol(), &pm);
}

// --- sampler ----------------------------------------------------------------

TimePoint secs_point(double s) { return time_zero() + secs(s); }

TEST(Sampler, RatesAreDeltasAndLevelsAreSampled) {
    obs::Metrics m;
    obs::Counter& c = m.counter("events");
    std::uint64_t depth = 2;
    m.gauge_fn("depth", [&] { return depth; });

    obs::Sampler sampler(m);
    sampler.add_rate("events");
    sampler.add_level("depth");
    sampler.set_interval(secs(1.0));

    c.inc(10);
    sampler.tick(secs_point(1.0));
    c.inc(5);
    depth = 8;
    sampler.tick(secs_point(2.0));

    ASSERT_EQ(sampler.rows(), 2u);
    const auto* events = sampler.series("events");
    const auto* levels = sampler.series("depth");
    ASSERT_NE(events, nullptr);
    ASSERT_NE(levels, nullptr);
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ((*events)[0], 10u);
        EXPECT_EQ((*events)[1], 5u);
        EXPECT_EQ((*levels)[0], 2u);
        EXPECT_EQ((*levels)[1], 8u);
    }
    EXPECT_EQ(sampler.series("unknown"), nullptr);

    const std::string json = sampler.export_snapshot().to_json();
    EXPECT_NE(json.find("\"interval_s\":1"), std::string::npos);
    EXPECT_NE(json.find("\"events\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"rate\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"level\""), std::string::npos);
}

// --- trace recorder ---------------------------------------------------------

TEST(TraceRecorder, RecordsScopedSpansAndExportsChromeJson) {
    obs::TraceRecorder rec;
    rec.install();
    {
        LBRM_TRACE_SPAN("outer");
        LBRM_TRACE_SPAN("inner");
    }
    rec.uninstall();
    {
        LBRM_TRACE_SPAN("after_uninstall");  // must not record
    }
    if constexpr (obs::kTelemetryEnabled) {
        const auto spans = rec.spans();
        ASSERT_EQ(spans.size(), 2u);
        // Sorted by start: outer opened first.
        EXPECT_STREQ(spans[0].name, "outer");
        EXPECT_STREQ(spans[1].name, "inner");
        EXPECT_GE(spans[0].start_ns + spans[0].dur_ns,
                  spans[1].start_ns + spans[1].dur_ns);
        EXPECT_EQ(rec.dropped(), 0u);
        // The spans export as the Chrome trace in the run artifact's wall.
        sim::ShardResult run;
        run.shard_spans = {sim::portable_spans(rec)};
        const std::string json = sim::observability_json(run);
        const std::string wall = json.substr(json.find(",\"wall\":"));
        EXPECT_NE(wall.find("\"trace\":{\"traceEvents\":["), std::string::npos);
        EXPECT_NE(wall.find("\"name\":\"inner\""), std::string::npos);
        EXPECT_EQ(json.find("after_uninstall"), std::string::npos);
    }
}

TEST(TraceRecorder, RingWraparoundKeepsNewestAndCountsDropped) {
    obs::TraceRecorder rec(4);
    rec.install();
    for (int i = 0; i < 10; ++i) {
        LBRM_TRACE_SPAN("span");
    }
    rec.uninstall();
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(rec.spans().size(), 4u);
        EXPECT_EQ(rec.dropped(), 6u);
    }
}

// --- end-to-end determinism -------------------------------------------------

struct TapTrace {
    std::vector<std::uint8_t> bytes;
    void attach(Network& net) {
        net.set_tap([this](TimePoint at, const Link& link, const Packet& packet,
                           bool delivered) {
            const auto t = at.time_since_epoch().count();
            const auto* tp = reinterpret_cast<const std::uint8_t*>(&t);
            bytes.insert(bytes.end(), tp, tp + sizeof t);
            const std::uint32_t ends[2] = {link.from().value(), link.to().value()};
            const auto* ep = reinterpret_cast<const std::uint8_t*>(ends);
            bytes.insert(bytes.end(), ep, ep + sizeof ends);
            bytes.push_back(delivered ? 1 : 0);
            const auto wire = encode(packet);
            bytes.insert(bytes.end(), wire.begin(), wire.end());
        });
    }
};

ScenarioConfig small_lossy_config() {
    ScenarioConfig config;
    config.topology.sites = 20;
    config.topology.receivers_per_site = 3;
    return config;
}

/// Run the reference scenario; optionally with sampling and tracing live.
void run_health_scenario(DisScenario& scenario, bool observe) {
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();
    for (const auto& site : topo.sites)
        net.set_loss(topo.backbone, site.router, std::make_unique<BernoulliLoss>(0.05));
    scenario.start();
    if (observe) scenario.start_sampling(millis(50));
    for (int i = 0; i < 30; ++i) {
        scenario.send_update(120);
        scenario.run_for(millis(15));
    }
    scenario.run_for(secs(1.5));
}

TEST(TelemetryDeterminism, IdenticalRunsProduceIdenticalSnapshots) {
    DisScenario a{small_lossy_config()};
    DisScenario b{small_lossy_config()};
    run_health_scenario(a, /*observe=*/true);
    run_health_scenario(b, /*observe=*/true);
    // The run artifact (registry snapshot and sampler included) is
    // byte-identical outside its wall section.
    EXPECT_EQ(test::outside_wall(observability_json(scenario_result(a))),
              test::outside_wall(observability_json(scenario_result(b))));
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_GT(a.metrics().value("proto.receiver.delivered"), 0u);
        EXPECT_GT(a.metrics().value("proto.receiver.nacks_sent"), 0u);
        EXPECT_GT(a.metrics().value("proto.sender.data_sent"), 0u);
        EXPECT_GT(a.metrics().value("host.send.DATA"), 0u);
        EXPECT_GT(a.sampler().rows(), 0u);
    }
}

TEST(TelemetryDeterminism, ObservationLeavesPacketTraceBitIdentical) {
    // Baseline: no sampler, no trace recorder.
    DisScenario plain{small_lossy_config()};
    TapTrace plain_tap;
    plain_tap.attach(plain.network());
    run_health_scenario(plain, /*observe=*/false);

    // Observed: live sampling plus an installed trace recorder.
    DisScenario observed{small_lossy_config()};
    TapTrace observed_tap;
    observed_tap.attach(observed.network());
    obs::TraceRecorder rec;
    rec.install();
    run_health_scenario(observed, /*observe=*/true);
    rec.uninstall();

    EXPECT_EQ(plain_tap.bytes, observed_tap.bytes);
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_GT(observed.sampler().rows(), 0u);
        EXPECT_GT(rec.spans().size(), 0u);  // event_drain spans at least
    }
}

TEST(TelemetryDeterminism, StopSamplingFreezesTheSeries) {
    DisScenario scenario{small_lossy_config()};
    scenario.start();
    scenario.start_sampling(millis(50));
    scenario.run_for(secs(0.5));
    const std::size_t rows = scenario.sampler().rows();
    EXPECT_EQ(rows, 10u);
    scenario.stop_sampling();
    scenario.run_for(secs(0.5));
    EXPECT_EQ(scenario.sampler().rows(), rows);
    // Restart keeps accumulating into the same series.
    scenario.start_sampling(millis(100));
    scenario.run_for(secs(0.4));
    EXPECT_EQ(scenario.sampler().rows(), rows + 4);
}

// --- satellite accessors ----------------------------------------------------

TEST(ProtocolHostHealth, GapOverflowsSurfaceThroughHost) {
    ScenarioConfig config = small_lossy_config();
    config.receiver_defaults.max_detector_gap = 8;
    config.logger_defaults.max_detector_gap = 8;
    DisScenario scenario{config};
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();
    scenario.start();

    // Anchor every detector first (the first packet a detector ever sees
    // only defines the stream position -- it can open no gap).
    scenario.send_update(64);
    scenario.run_for(millis(200));

    // Black out one site, stream far past the gap limit, then reconnect:
    // the next packet opens a gap wider than max_detector_gap.
    net.set_loss(topo.backbone, topo.sites[0].router,
                 std::make_unique<BernoulliLoss>(1.0));
    for (int i = 0; i < 40; ++i) {
        scenario.send_update(64);
        scenario.run_for(millis(10));
    }
    net.set_loss(topo.backbone, topo.sites[0].router,
                 std::make_unique<BernoulliLoss>(0.0));
    scenario.send_update(64);
    scenario.run_for(secs(2.0));

    std::uint64_t total = 0;
    for (NodeId node : topo.sites[0].receivers)
        total += scenario.receiver(node).detector().gap_overflows();
    total += scenario.secondary_logger(0).detector().gap_overflows();
    EXPECT_GT(total, 0u);
    if constexpr (obs::kTelemetryEnabled) {
        // The registry row sums every detector, and only site 0's clamped.
        EXPECT_EQ(scenario.metrics().value("proto.loss.gap_overflows"), total);
    }

    // An untouched site saw a contiguous stream: no overflows there.
    std::uint64_t clean = scenario.secondary_logger(1).detector().gap_overflows();
    for (NodeId node : topo.sites[1].receivers)
        clean += scenario.receiver(node).detector().gap_overflows();
    EXPECT_EQ(clean, 0u);
}

TEST(ProtocolHostHealth, ZeroVolunteerResolicitsSurfaceThroughHost) {
    ScenarioConfig config = small_lossy_config();
    // No secondary volunteers for designated-acker duty: every epoch window
    // closes empty and the sender must re-solicit.
    config.logger_defaults.participate_in_acking = false;
    config.stat_ack.enabled = true;
    config.stat_ack.initial_probe_p = 0.5;
    config.stat_ack.probe_repeats = 1;
    config.stat_ack.empty_epoch_retry = secs(0.5);
    DisScenario scenario{config};
    scenario.start();
    scenario.send_update(64);
    scenario.run_for(secs(5.0));

    const std::uint64_t resolicits = scenario.sender().stat_ack().empty_epoch_resolicits();
    EXPECT_GT(resolicits, 0u);
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(scenario.metrics().value("proto.stat_ack.empty_epoch_resolicits"),
                  resolicits);
        EXPECT_GT(scenario.metrics().value("host.notices"), 0u);
    }
}

TEST(NetworkHealth, DropBreakdownSeparatesLossFromQueueOverflow) {
    ScenarioConfig config = small_lossy_config();
    // T1 tails with a tight queue cap so a burst overflows the queue, plus
    // random loss on one feed so both columns are exercised.
    config.topology.tail_queue_limit = millis(5);
    DisScenario scenario{config};
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();
    net.set_loss(topo.backbone, topo.sites[0].router,
                 std::make_unique<BernoulliLoss>(0.3));
    scenario.start();
    for (int i = 0; i < 40; ++i) scenario.send_update(400);  // back-to-back burst
    scenario.run_for(secs(3.0));

    const Network::DropBreakdown drops = net.drop_breakdown();
    EXPECT_GT(drops.loss, 0u);
    EXPECT_GT(drops.queue, 0u);
    EXPECT_EQ(drops.total(), drops.loss + drops.queue);
    // The registry's pull gauges read the same tallies.
    EXPECT_EQ(scenario.metrics().value("sim.drops_loss"), drops.loss);
    EXPECT_EQ(scenario.metrics().value("sim.drops_queue"), drops.queue);
}

/// The network's link totals on a lossy 20 x 50 run whose bursts overflow
/// the tail queues, so both drop kinds occur.  The literals were recorded
/// when every direction was an object of its own and each total a walk
/// over all of them; they hold however the links are stored.  After
/// reset_link_stats() one tail circuit counts a second burst from zero.
TEST(NetworkHealth, LinkTotalsMatchRecordedValues) {
    ScenarioConfig config;
    config.topology.sites = 20;
    config.topology.receivers_per_site = 50;
    config.topology.tail_queue_limit = millis(5);
    DisScenario scenario{config};
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();
    for (const auto& site : topo.sites)
        net.set_loss(topo.backbone, site.router, std::make_unique<BernoulliLoss>(0.05));
    scenario.start();
    for (int i = 0; i < 30; ++i) scenario.send_update(400);
    scenario.run_for(secs(3.0));

    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(scenario.metrics().value("sim.link_packets"), 111597u);
        EXPECT_EQ(scenario.metrics().value("sim.link_bytes"), 35496085u);
    }
    const Network::DropBreakdown drops = net.drop_breakdown();
    EXPECT_EQ(drops.queue, 1484u);
    EXPECT_EQ(drops.loss, 87u);
    EXPECT_EQ(net.count_packets(PacketType::kData, nullptr), 12154u);
    EXPECT_EQ(net.count_packets(PacketType::kHeartbeat, nullptr), 1985u);
    EXPECT_EQ(net.count_packets(PacketType::kNack, nullptr), 19238u);
    EXPECT_EQ(net.count_packets(PacketType::kRetransmission, nullptr), 67883u);
    EXPECT_EQ(net.count_packets(PacketType::kData, [](const Link&) { return true; }), 12154u);

    net.reset_link_stats();
    for (int i = 0; i < 20; ++i) scenario.send_update(400);
    scenario.run_for(secs(2.0));
    const auto& down = net.link(topo.backbone, topo.sites[3].router)->stats();
    EXPECT_EQ(down.packets, 76u);
    EXPECT_EQ(down.drops_loss, 3u);
    EXPECT_EQ(down.packets_of(PacketType::kData), 15u);
    EXPECT_EQ(down.packets_of(PacketType::kHeartbeat), 3u);
    EXPECT_EQ(down.packets_of(PacketType::kRetransmission), 58u);
    const auto& up = net.link(topo.sites[3].router, topo.backbone)->stats();
    EXPECT_EQ(up.packets, 88u);
    EXPECT_EQ(up.packets_of(PacketType::kNack), 68u);
    EXPECT_EQ(net.drop_breakdown().queue, 1314u);
    EXPECT_EQ(net.drop_breakdown().loss, 83u);
}

}  // namespace
