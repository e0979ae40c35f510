// Recovery-episode causal tracing (obs/episode.hpp) and the cross-shard
// telemetry plane's building blocks (obs/wire.hpp, RegistrySnapshot /
// SamplerSnapshot merges).
//
// Three layers:
//   * EpisodeTracker units: the open/nack/escalate/cold-restart/close
//     lifecycle, idempotent closes (defensive cleanup paths must never
//     unbalance the accounting), the logger-side fetch kind, the record
//     buffer bound, and the disabled() instance.
//   * Snapshot merge + wire units: bucket-preserving registry merges (the
//     histogram loss the flat counter merge suffered), lockstep sampler
//     merges, and the REPORT-frame codecs with truncation fuzzing.
//   * Scenario level: the accounting invariant (opened == repaired +
//     abandoned + open) across the full chaos fault matrix of PR 7, and
//     the PR 5 determinism rule extended to the tracker -- identical runs
//     produce byte-identical snapshots, and tracing leaves the link-level
//     packet trace bit-identical.
//
// Counter-dependent assertions are guarded by obs::kTelemetryEnabled so the
// suite compiles (and the determinism half still runs) under
// -DLBRM_NO_TELEMETRY.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/episode.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/wire.hpp"
#include "sim/chaos.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"
#include "tests/wire_fixtures.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::at;
using lbrm::test::make_snap;
using obs::EpisodeTracker;

// --- tracker lifecycle ------------------------------------------------------

TEST(EpisodeTracker, RecoveryLifecycleFeedsCountersAndTierHistogram) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open(at(1.0), NodeId{7}, SeqNum{42});
    t.nack(NodeId{7}, SeqNum{42});
    t.nack(NodeId{7}, SeqNum{42});
    t.escalate(NodeId{7}, SeqNum{42}, EpisodeTracker::kTierFallback);
    t.close_repaired(at(1.25), NodeId{7}, SeqNum{42});

    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.opened(), 1u);
        EXPECT_EQ(t.repaired(), 1u);
        EXPECT_EQ(t.abandoned(), 0u);
        EXPECT_EQ(t.open_count(), 0u);
        EXPECT_EQ(m.value("recovery.episodes_opened"), 1u);
        EXPECT_EQ(m.value("recovery.episodes_repaired"), 1u);
        EXPECT_EQ(m.value("recovery.nack_sends"), 2u);
        EXPECT_EQ(m.value("recovery.escalations"), 1u);
        EXPECT_EQ(m.value("recovery.episodes_open"), 0u);
        // The latency lands in the *highest-tier* histogram, not local's.
        EXPECT_EQ(m.histogram("recovery.latency_s.local", {}).count(), 0u);
        const obs::Histogram& h = m.histogram("recovery.latency_s.fallback", {});
        ASSERT_EQ(h.count(), 1u);
        EXPECT_DOUBLE_EQ(h.sum(), 0.25);

        ASSERT_EQ(t.records().size(), 1u);
        const EpisodeTracker::Record& rec = t.records().front();
        EXPECT_EQ(rec.node, 7u);
        EXPECT_EQ(rec.seq, 42u);
        EXPECT_DOUBLE_EQ(rec.opened_s, 1.0);
        EXPECT_DOUBLE_EQ(rec.closed_s, 1.25);
        EXPECT_EQ(rec.nacks, 2u);
        EXPECT_EQ(rec.tier, EpisodeTracker::kTierFallback);
        EXPECT_EQ(rec.kind, EpisodeTracker::Kind::kRecovery);
        EXPECT_EQ(rec.reason, EpisodeTracker::Reason::kRepaired);
    }
    EXPECT_TRUE(t.balanced());
}

TEST(EpisodeTracker, TierIsTheMaxEverReachedAndAbandonCloses) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open(at(0.5), NodeId{3}, SeqNum{9});
    t.escalate(NodeId{3}, SeqNum{9}, EpisodeTracker::kTierPrimary);
    t.cold_restart(NodeId{3}, SeqNum{9});
    // The restart walks the chain from kLocal again -- the recorded tier
    // must stay at the high-water mark.
    t.escalate(NodeId{3}, SeqNum{9}, EpisodeTracker::kTierFallback);
    t.close_abandoned(at(4.0), NodeId{3}, SeqNum{9});

    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.abandoned(), 1u);
        EXPECT_EQ(m.value("recovery.episodes_abandoned"), 1u);
        EXPECT_EQ(m.value("recovery.cold_restarts"), 1u);
        ASSERT_EQ(t.records().size(), 1u);
        EXPECT_EQ(t.records().front().tier, EpisodeTracker::kTierPrimary);
        EXPECT_EQ(t.records().front().cold_restarts, 1u);
        EXPECT_EQ(t.records().front().reason, EpisodeTracker::Reason::kAbandoned);
        // Abandonments observe no latency histogram -- the distributions
        // answer "how long did a *repair* take".
        EXPECT_EQ(m.histogram("recovery.latency_s.primary", {}).count(), 0u);
    }
    EXPECT_TRUE(t.balanced());
}

TEST(EpisodeTracker, ClosesAreIdempotentAndUnknownKeysAreNoOps) {
    obs::Metrics m;
    EpisodeTracker t{m};
    // Operating on a never-opened episode must be harmless: the receiver's
    // defensive cleanup loops close whatever they sweep.
    t.close_repaired(at(1.0), NodeId{1}, SeqNum{5});
    t.nack(NodeId{1}, SeqNum{5});
    t.escalate(NodeId{1}, SeqNum{5}, EpisodeTracker::kTierPrimary);
    t.cold_restart(NodeId{1}, SeqNum{5});
    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) EXPECT_EQ(t.opened(), 0u);

    t.open(at(2.0), NodeId{1}, SeqNum{5});
    t.open(at(2.5), NodeId{1}, SeqNum{5});  // double-open: first wins
    t.close_repaired(at(3.0), NodeId{1}, SeqNum{5});
    t.close_repaired(at(3.5), NodeId{1}, SeqNum{5});   // already closed
    t.close_abandoned(at(4.0), NodeId{1}, SeqNum{5});  // likewise
    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.opened(), 1u);
        EXPECT_EQ(t.repaired(), 1u);
        EXPECT_EQ(t.abandoned(), 0u);
        ASSERT_EQ(t.records().size(), 1u);
        EXPECT_DOUBLE_EQ(t.records().front().opened_s, 2.0);
        EXPECT_DOUBLE_EQ(t.records().front().closed_s, 3.0);
    }
}

TEST(EpisodeTracker, FetchLifecycleIsIndependentOfRecovery) {
    obs::Metrics m;
    EpisodeTracker t{m};
    // Same (node, seq) runs both kinds at once -- rotating site loggers
    // make a host a receiver and a secondary simultaneously.
    t.open(at(1.0), NodeId{4}, SeqNum{8});
    t.fetch_open(at(1.1), NodeId{4}, SeqNum{8});
    t.fetch_attempt(NodeId{4}, SeqNum{8});
    t.fetch_cold_restart(NodeId{4}, SeqNum{8});
    t.fetch_close(at(1.4), NodeId{4}, SeqNum{8}, /*served=*/true);
    t.fetch_open(at(2.0), NodeId{4}, SeqNum{9});
    t.fetch_close(at(2.2), NodeId{4}, SeqNum{9}, /*served=*/false);
    t.close_repaired(at(1.5), NodeId{4}, SeqNum{8});

    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.fetch_opened(), 2u);
        EXPECT_EQ(t.fetch_served(), 1u);
        EXPECT_EQ(t.fetch_abandoned(), 1u);
        EXPECT_EQ(t.fetch_open_count(), 0u);
        EXPECT_EQ(m.value("recovery.fetch_attempts"), 1u);
        EXPECT_EQ(m.value("recovery.fetch_cold_restarts"), 1u);
        // Only the served fetch observes latency.
        EXPECT_EQ(m.histogram("recovery.fetch_latency_s", {}).count(), 1u);
        ASSERT_EQ(t.records().size(), 3u);
        EXPECT_EQ(t.records()[0].kind, EpisodeTracker::Kind::kFetch);
        EXPECT_EQ(t.records()[1].kind, EpisodeTracker::Kind::kFetch);
        EXPECT_EQ(t.records()[2].kind, EpisodeTracker::Kind::kRecovery);
    }
}

TEST(EpisodeTracker, RecordBufferIsBoundedAndDropsAreCounted) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.set_record_capacity(2);
    for (std::uint32_t s = 0; s < 5; ++s) {
        t.open(at(1.0 + s), NodeId{2}, SeqNum{s});
        t.close_repaired(at(1.5 + s), NodeId{2}, SeqNum{s});
    }
    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.records().size(), 2u);
        EXPECT_EQ(t.records_dropped(), 3u);
        EXPECT_EQ(m.value("recovery.episode_records_dropped"), 3u);
        // Accounting keeps counting past the buffer bound.
        EXPECT_EQ(t.opened(), 5u);
        EXPECT_EQ(t.repaired(), 5u);
    }
}

TEST(EpisodeTracker, DisabledInstanceIsInert) {
    EpisodeTracker& t = EpisodeTracker::disabled();
    t.open(at(1.0), NodeId{1}, SeqNum{1});
    t.nack(NodeId{1}, SeqNum{1});
    t.close_repaired(at(2.0), NodeId{1}, SeqNum{1});
    t.fetch_open(at(1.0), NodeId{2}, SeqNum{2});
    t.fetch_close(at(2.0), NodeId{2}, SeqNum{2}, true);
    EXPECT_EQ(t.opened(), 0u);
    EXPECT_EQ(t.fetch_opened(), 0u);
    EXPECT_TRUE(t.records().empty());
    EXPECT_TRUE(t.balanced());
}

TEST(EpisodeTracker, ChromeJsonEmitsAsyncSpanPairs) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open(at(1.0), NodeId{7}, SeqNum{3});
    t.escalate(NodeId{7}, SeqNum{3}, EpisodeTracker::kTierFallback);
    t.close_repaired(at(1.5), NodeId{7}, SeqNum{3});
    const std::string json = t.to_chrome_json(/*pid=*/2);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
        EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
        EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
        EXPECT_NE(json.find("\"tier\":\"fallback\""), std::string::npos);
        // Sim seconds -> trace microseconds.
        EXPECT_NE(json.find("\"ts\":1000000.000"), std::string::npos);
    }
}

// --- registry / sampler snapshot merges -------------------------------------

TEST(RegistrySnapshot, MergeSumsScalarsAndHistogramBuckets) {
    obs::RegistrySnapshot a = make_snap(3, 1, 2, 0, 0.5);
    const obs::RegistrySnapshot b = make_snap(4, 0, 1, 5, 9.5);
    a.merge(b);
    EXPECT_EQ(a.scalars.at("proto.count"), 7.0);
    const auto& h = a.histograms.at("proto.lat");
    EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 3, 5}));
    EXPECT_EQ(h.count, 9u);
    EXPECT_DOUBLE_EQ(h.sum, 10.0);

    // Merging into an empty snapshot adopts the other side wholesale.
    obs::RegistrySnapshot empty;
    empty.merge(b);
    EXPECT_EQ(empty.histograms.at("proto.lat").counts,
              b.histograms.at("proto.lat").counts);
}

TEST(RegistrySnapshot, MergeRejectsMismatchedBucketLayout) {
    obs::RegistrySnapshot a = make_snap(1, 1, 1, 1, 1.0);
    obs::RegistrySnapshot b = make_snap(1, 1, 1, 1, 1.0);
    b.histograms.at("proto.lat").bounds = {0.2, 1.0};
    EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(RegistrySnapshot, FlattenMatchesLiveSnapshotRows) {
    obs::Metrics m;
    m.counter("b.two").inc(2);
    m.counter("a.one").inc(1);
    m.histogram("h.lat", {0.5}).observe(0.25);
    const auto live = m.snapshot();
    const auto flat = m.export_snapshot().flatten();
    ASSERT_EQ(live.size(), flat.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(live[i].name, flat[i].name);
        EXPECT_EQ(live[i].value, flat[i].value);
    }
}

TEST(SamplerSnapshot, MergeSumsLockstepSeries) {
    obs::SamplerSnapshot a;
    a.interval_s = 0.1;
    a.t = {0.1, 0.2};
    a.series.push_back({"x", true, {1, 2}});
    obs::SamplerSnapshot b = a;
    b.series[0].values = {10, 20};
    a.merge(b);
    EXPECT_EQ(a.series[0].values, (std::vector<std::uint64_t>{11, 22}));

    obs::SamplerSnapshot empty;
    empty.merge(b);
    EXPECT_EQ(empty.t, b.t);
    ASSERT_EQ(empty.series.size(), 1u);
    EXPECT_EQ(empty.series[0].values, b.series[0].values);

    obs::SamplerSnapshot skewed = b;
    skewed.t = {0.1, 0.2, 0.3};
    skewed.series[0].values = {1, 2, 3};
    EXPECT_THROW(a.merge(skewed), std::logic_error);
}

// --- REPORT-frame wire codecs -----------------------------------------------

TEST(ObsWire, RegistryRoundTripsAndFailsOnTruncation) {
    const obs::RegistrySnapshot snap = test::sample_registry();
    ByteWriter w;
    obs::wire::encode_registry(w, snap);
    {
        ByteReader r(w.data());
        const auto back = obs::wire::decode_registry(r);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->scalars, snap.scalars);
        EXPECT_EQ(back->histograms.at("proto.lat").bounds,
                  snap.histograms.at("proto.lat").bounds);
        EXPECT_EQ(back->histograms.at("proto.lat").counts,
                  snap.histograms.at("proto.lat").counts);
        EXPECT_DOUBLE_EQ(back->histograms.at("proto.lat").sum, 1.75);
    }
    const auto& full = w.data();
    for (std::size_t keep : {std::size_t{0}, std::size_t{3}, full.size() - 1}) {
        std::vector<std::uint8_t> cut(full.begin(),
                                      full.begin() + static_cast<std::ptrdiff_t>(keep));
        ByteReader r(cut);
        EXPECT_FALSE(obs::wire::decode_registry(r).has_value()) << "kept " << keep;
    }
}

TEST(ObsWire, SamplerRoundTrips) {
    const obs::SamplerSnapshot snap = test::sample_sampler();
    ByteWriter w;
    obs::wire::encode_sampler(w, snap);
    ByteReader r(w.data());
    const auto back = obs::wire::decode_sampler(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->interval_s, snap.interval_s);
    EXPECT_EQ(back->t, snap.t);
    ASSERT_EQ(back->series.size(), 2u);
    EXPECT_EQ(back->series[0].name, "rate.x");
    EXPECT_TRUE(back->series[0].rate);
    EXPECT_FALSE(back->series[1].rate);
    EXPECT_EQ(back->series[1].values, (std::vector<std::uint64_t>{7, 7, 8}));
}

TEST(ObsWire, EpisodesRoundTripAndRejectOutOfRangeEnums) {
    const std::vector<EpisodeTracker::Record> eps = test::sample_episodes();
    ByteWriter w;
    obs::wire::encode_episodes(w, eps);
    {
        ByteReader r(w.data());
        const auto back = obs::wire::decode_episodes(r);
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(back->size(), 2u);
        EXPECT_EQ((*back)[0].node, 7u);
        EXPECT_EQ((*back)[0].tier, EpisodeTracker::kTierFallback);
        EXPECT_EQ((*back)[1].kind, EpisodeTracker::Kind::kFetch);
        EXPECT_EQ((*back)[1].reason, EpisodeTracker::Reason::kAbandoned);
        EXPECT_DOUBLE_EQ((*back)[1].closed_s, 2.5);
    }
    // A tier past kTierPrimary must fail decode, not produce garbage.
    std::vector<std::uint8_t> bad = w.data();
    // tier is the second-to-last byte of each fixed-size record.
    bad[bad.size() - 2] = 7;
    ByteReader r(bad);
    EXPECT_FALSE(obs::wire::decode_episodes(r).has_value());
}

TEST(ObsWire, SpansAndU64sRoundTrip) {
    ByteWriter w;
    obs::wire::encode_spans(w, test::sample_spans());
    obs::wire::encode_u64s(w, test::sample_u64s());
    ByteReader r(w.data());
    const auto back = obs::wire::decode_spans(r);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), 1u);
    EXPECT_EQ((*back)[0].name, "event_drain");
    EXPECT_EQ((*back)[0].tid, 3u);
    EXPECT_EQ((*back)[0].dur_ns, 250u);
    const auto u = obs::wire::decode_u64s(r);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, (std::vector<std::uint64_t>{5, 6, 7}));
}

// --- scenario level: chaos-matrix accounting --------------------------------

struct MatrixClass {
    std::string name;
    bool rotate = false;
    std::function<ChaosSchedule(const DisScenario&)> schedule;
};

/// Scaled-down mirror of bench_chaos's five fault classes (same shapes,
/// smaller topology and traffic so the matrix stays unit-test-fast).
std::vector<MatrixClass> matrix() {
    std::vector<MatrixClass> classes;
    classes.push_back({"blackouts", false, [](const DisScenario&) {
                           Rng rng{20250809};
                           return ChaosSchedule::correlated_blackouts(
                               rng, 8, 2, secs(1.2), millis(250), millis(500));
                       }});
    classes.push_back({"failover_storm", false, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(PrimaryCrash{secs(0.8), secs(2.0)});
                           s.events.push_back(ReplicaCrash{0, secs(0.8), secs(2.5)});
                           return s;
                       }});
    classes.push_back({"partition", false, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(SitePartition{1, secs(0.8), secs(1.2)});
                           return s;
                       }});
    classes.push_back({"crash_churn", false, [](const DisScenario& scenario) {
                           ChaosSchedule s;
                           s.events.push_back(
                               CrashOnReceive{scenario.topology().sites[2].receivers[0],
                                              SeqNum{6}, millis(400)});
                           s.events.push_back(SendAndCrash{SeqNum{12}, millis(100)});
                           return s;
                       }});
    classes.push_back({"rotation", true, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(SiteBlackout{1, secs(0.8), millis(500)});
                           return s;
                       }});
    return classes;
}

TEST(EpisodeChaosMatrix, AccountingBalancesAcrossEveryFaultClass) {
    for (const MatrixClass& cls : matrix()) {
        ScenarioConfig config;
        config.topology.sites = 8;
        config.topology.receivers_per_site = 2;
        config.topology.replicas = 2;
        config.seed = 77;
        if (cls.rotate) {
            config.rotate_site_loggers = true;
            config.rotation_slot = secs(1.0);
        }
        DisScenario scenario{config};
        for (const auto& site : scenario.topology().sites)
            scenario.network().set_loss(scenario.topology().backbone, site.router,
                                        std::make_unique<BernoulliLoss>(0.03));
        ChaosEngine engine{scenario, cls.schedule(scenario)};
        scenario.start();
        engine.arm();
        scenario.run_for(millis(500));
        for (int i = 0; i < 30; ++i) {
            scenario.send_update(std::size_t{200});
            scenario.run_for(millis(25));
        }
        scenario.run_for(secs(6.0));

        EXPECT_GT(engine.faults_applied(), 0u) << cls.name;
        const ReliabilityAudit audit = audit_reliability(scenario);
        EXPECT_EQ(audit.lost_forever, 0u) << cls.name;

        // The tentpole invariant, per network-wide tracker: every opened
        // episode is exactly one of repaired / abandoned / still open, and
        // with nothing lost forever nobody gave up for good.
        obs::EpisodeTracker& t = scenario.metrics().episodes();
        EXPECT_TRUE(t.balanced()) << cls.name;
        if constexpr (obs::kTelemetryEnabled) {
            EXPECT_GT(t.opened(), 0u) << cls.name;
            obs::Metrics& m = scenario.metrics();
            EXPECT_EQ(m.value("recovery.episodes_opened"),
                      m.value("recovery.episodes_repaired") +
                          m.value("recovery.episodes_abandoned") +
                          m.value("recovery.episodes_open"))
                << cls.name;
            if (audit.lost_forever == 0) EXPECT_EQ(t.abandoned(), 0u) << cls.name;
            // Records mirror the counters (no drops at this scale).
            EXPECT_EQ(t.records_dropped(), 0u) << cls.name;
            std::uint64_t repaired = 0;
            for (const auto& rec : t.records())
                if (rec.kind == EpisodeTracker::Kind::kRecovery &&
                    rec.reason == EpisodeTracker::Reason::kRepaired)
                    ++repaired;
            EXPECT_EQ(repaired, t.repaired()) << cls.name;
        }
    }
}

// --- scenario level: determinism with the tracker live ----------------------

ScenarioConfig lossy_config() {
    ScenarioConfig config;
    config.topology.sites = 12;
    config.topology.receivers_per_site = 2;
    return config;
}

void drive(DisScenario& scenario, bool observe) {
    Network& net = scenario.network();
    for (const auto& site : scenario.topology().sites)
        net.set_loss(scenario.topology().backbone, site.router,
                     std::make_unique<BernoulliLoss>(0.08));
    scenario.start();
    if (observe) scenario.start_sampling(millis(50));
    for (int i = 0; i < 20; ++i) {
        scenario.send_update(120);
        scenario.run_for(millis(20));
    }
    scenario.run_for(secs(2.0));
}

TEST(EpisodeDeterminism, IdenticalRunsProduceByteIdenticalSnapshots) {
    DisScenario a{lossy_config()};
    DisScenario b{lossy_config()};
    drive(a, /*observe=*/true);
    drive(b, /*observe=*/true);
    // Registry (recovery.* rows included), sampler and the episode span
    // export must all be byte-identical across identical runs.
    EXPECT_EQ(a.metrics().to_json(), b.metrics().to_json());
    EXPECT_EQ(a.sampler().to_json(), b.sampler().to_json());
    EXPECT_EQ(a.metrics().episodes().to_chrome_json(),
              b.metrics().episodes().to_chrome_json());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_GT(a.metrics().episodes().opened(), 0u);
        EXPECT_FALSE(a.metrics().episodes().records().empty());
    }
    EXPECT_TRUE(a.metrics().episodes().balanced());
}

TEST(EpisodeDeterminism, TrackingLeavesPacketTraceBitIdentical) {
    // The PR 5 rule extended to the tracker: a run with live sampling (and
    // therefore live episode tracking through the bound protocol handles)
    // puts exactly the same bytes on the wire as an unobserved run.  Under
    // -DLBRM_NO_TELEMETRY the tracker mutators compile to nothing, so this
    // also pins the compiled-out build's bit-identity.
    auto trace = [](bool observe) {
        DisScenario scenario{lossy_config()};
        std::vector<std::uint8_t> bytes;
        scenario.network().set_tap([&bytes](TimePoint t, const Link& link,
                                            const Packet& packet, bool delivered) {
            const auto tick = t.time_since_epoch().count();
            const auto* tp = reinterpret_cast<const std::uint8_t*>(&tick);
            bytes.insert(bytes.end(), tp, tp + sizeof tick);
            const std::uint64_t ends =
                (static_cast<std::uint64_t>(link.from().value()) << 32) |
                link.to().value();
            const auto* ep = reinterpret_cast<const std::uint8_t*>(&ends);
            bytes.insert(bytes.end(), ep, ep + sizeof ends);
            bytes.push_back(delivered ? 1 : 0);
            const auto wire = encode(packet);
            bytes.insert(bytes.end(), wire.begin(), wire.end());
        });
        drive(scenario, observe);
        return bytes;
    };
    EXPECT_EQ(trace(false), trace(true));
}

}  // namespace
