// Recovery-episode causal tracing (obs/episode.hpp) and the cross-shard
// telemetry plane's building blocks (obs/wire.hpp, RegistrySnapshot /
// SamplerSnapshot merges).
//
// Three layers:
//   * EpisodeTracker units: the step counters, close() feeding the tier
//     histograms, records and close counters, open counts derived from the
//     counters, the logger-side fetch kind, the record buffer bound, and
//     the disabled() instance.  The per-loss state (open time, NACKs,
//     highest tier, cold cycles) lives in the cores' records; the receiver
//     tests pin it.
//   * Snapshot merge + wire units: bucket-preserving registry merges (the
//     histogram loss the flat counter merge suffered), lockstep sampler
//     merges, and the REPORT frame's field lists with truncation fuzzing.
//   * Scenario level: the accounting invariant (opened == repaired +
//     abandoned + open) across the full chaos fault matrix (sim/chaos.hpp),
//     with each class's records and recovery.* rows pinned by digest, and
//     the telemetry determinism rule extended to the tracker -- identical
//     runs produce byte-identical snapshots, and tracing leaves the
//     link-level packet trace bit-identical.
//
// Counter-dependent assertions are guarded by obs::kTelemetryEnabled so the
// suite compiles (and the determinism half still runs) under
// -DLBRM_NO_TELEMETRY.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
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
#include "sim/shard.hpp"
#include "tests/test_util.hpp"
#include "tests/wire_fixtures.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::at;
using lbrm::test::make_snap;
using obs::EpisodeTracker;

// --- tracker lifecycle ------------------------------------------------------

/// A finished record, as a core hands it to EpisodeTracker::close.
EpisodeTracker::Record closed(std::uint32_t node, std::uint32_t seq, double opened_s,
                              double closed_s, std::uint8_t tier,
                              EpisodeTracker::Kind kind = EpisodeTracker::Kind::kRecovery,
                              EpisodeTracker::Reason reason =
                                  EpisodeTracker::Reason::kRepaired) {
    return {.node = node, .seq = seq, .opened_s = opened_s, .closed_s = closed_s,
            .nacks = 2, .cold_restarts = 1, .kind = kind, .tier = tier, .reason = reason};
}

TEST(EpisodeTracker, RecoveryLifecycleFeedsCountersAndTierHistogram) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open(3);
    t.nack(2);
    t.escalate();
    t.cold_restart();
    if constexpr (obs::kTelemetryEnabled) {
        // Still-open episodes derive from the counters.
        EXPECT_EQ(t.open_count(), 3u);
        EXPECT_EQ(m.value("recovery.episodes_open"), 3u);
    }
    t.close(closed(7, 42, 1.0, 1.25, EpisodeTracker::kTierFallback));
    t.close(closed(7, 43, 1.0, 4.0, EpisodeTracker::kTierPrimary,
                   EpisodeTracker::Kind::kRecovery, EpisodeTracker::Reason::kAbandoned));

    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.opened(), 3u);
        EXPECT_EQ(t.repaired(), 1u);
        EXPECT_EQ(t.abandoned(), 1u);
        EXPECT_EQ(t.open_count(), 1u);
        EXPECT_EQ(m.value("recovery.episodes_opened"), 3u);
        EXPECT_EQ(m.value("recovery.episodes_repaired"), 1u);
        EXPECT_EQ(m.value("recovery.episodes_abandoned"), 1u);
        EXPECT_EQ(m.value("recovery.nack_sends"), 2u);
        EXPECT_EQ(m.value("recovery.escalations"), 1u);
        EXPECT_EQ(m.value("recovery.cold_restarts"), 1u);
        EXPECT_EQ(m.value("recovery.episodes_open"), 1u);
        // The latency lands in the record's tier histogram, not local's;
        // abandonments observe none -- the distributions answer "how long
        // did a *repair* take".
        EXPECT_EQ(m.histogram("recovery.latency_s.local", {}).count(), 0u);
        EXPECT_EQ(m.histogram("recovery.latency_s.primary", {}).count(), 0u);
        const obs::Histogram& h = m.histogram("recovery.latency_s.fallback", {});
        ASSERT_EQ(h.count(), 1u);
        EXPECT_DOUBLE_EQ(h.sum(), 0.25);

        // Records are kept as closed, in close order.
        ASSERT_EQ(t.records().size(), 2u);
        const EpisodeTracker::Record& rec = t.records().front();
        EXPECT_EQ(rec.node, 7u);
        EXPECT_EQ(rec.seq, 42u);
        EXPECT_DOUBLE_EQ(rec.opened_s, 1.0);
        EXPECT_DOUBLE_EQ(rec.closed_s, 1.25);
        EXPECT_EQ(rec.nacks, 2u);
        EXPECT_EQ(rec.cold_restarts, 1u);
        EXPECT_EQ(rec.tier, EpisodeTracker::kTierFallback);
        EXPECT_EQ(rec.kind, EpisodeTracker::Kind::kRecovery);
        EXPECT_EQ(rec.reason, EpisodeTracker::Reason::kRepaired);
        EXPECT_EQ(t.records().back().reason, EpisodeTracker::Reason::kAbandoned);
    }
    EXPECT_TRUE(t.balanced());
}

TEST(EpisodeTracker, BalancedFailsWhenMoreEpisodesCloseThanOpened) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open();
    t.close(closed(1, 5, 1.0, 2.0, EpisodeTracker::kTierLocal));
    EXPECT_TRUE(t.balanced());
    t.fetch_open();
    t.close(closed(1, 6, 1.0, 2.0, EpisodeTracker::kTierPrimary,
                   EpisodeTracker::Kind::kFetch));
    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        t.close(closed(1, 5, 2.0, 3.0, EpisodeTracker::kTierLocal));
        EXPECT_FALSE(t.balanced());
    }
}

TEST(EpisodeTracker, FetchLifecycleIsIndependentOfRecovery) {
    obs::Metrics m;
    EpisodeTracker t{m};
    // Same (node, seq) runs both kinds at once -- rotating site loggers
    // make a host a receiver and a secondary simultaneously.
    t.open();
    t.fetch_open();
    t.fetch_attempt();
    t.fetch_cold_restart();
    t.close(closed(4, 8, 1.1, 1.4, EpisodeTracker::kTierPrimary,
                   EpisodeTracker::Kind::kFetch));
    t.fetch_open();
    t.close(closed(4, 9, 2.0, 2.2, EpisodeTracker::kTierPrimary,
                   EpisodeTracker::Kind::kFetch, EpisodeTracker::Reason::kAbandoned));
    t.close(closed(4, 8, 1.0, 1.5, EpisodeTracker::kTierLocal));

    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.fetch_opened(), 2u);
        EXPECT_EQ(t.fetch_served(), 1u);
        EXPECT_EQ(t.fetch_abandoned(), 1u);
        EXPECT_EQ(t.fetch_open_count(), 0u);
        EXPECT_EQ(m.value("recovery.fetch_open"), 0u);
        EXPECT_EQ(t.repaired(), 1u);
        EXPECT_EQ(t.open_count(), 0u);
        EXPECT_EQ(m.value("recovery.fetch_attempts"), 1u);
        EXPECT_EQ(m.value("recovery.fetch_cold_restarts"), 1u);
        // Only the served fetch observes latency, in the fetch histogram.
        const obs::Histogram& h = m.histogram("recovery.fetch_latency_s", {});
        ASSERT_EQ(h.count(), 1u);
        EXPECT_NEAR(h.sum(), 0.3, 1e-12);
        EXPECT_EQ(m.histogram("recovery.latency_s.primary", {}).count(), 0u);
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
        t.open();
        t.close(closed(2, s, 1.0 + s, 1.5 + s, EpisodeTracker::kTierLocal));
    }
    EXPECT_TRUE(t.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(t.records().size(), 2u);
        EXPECT_EQ(t.records_dropped(), 3u);
        EXPECT_EQ(m.value("recovery.episode_records_dropped"), 3u);
        // Accounting keeps counting past the buffer bound.
        EXPECT_EQ(t.opened(), 5u);
        EXPECT_EQ(t.repaired(), 5u);
        EXPECT_EQ(m.histogram("recovery.latency_s.local", {}).count(), 5u);
    }
}

TEST(EpisodeTracker, DisabledInstanceIsInert) {
    EpisodeTracker& t = EpisodeTracker::disabled();
    t.open();
    t.nack();
    t.close(closed(1, 1, 1.0, 2.0, EpisodeTracker::kTierLocal));
    t.fetch_open();
    t.close(closed(2, 2, 1.0, 2.0, EpisodeTracker::kTierPrimary,
                   EpisodeTracker::Kind::kFetch));
    EXPECT_EQ(t.opened(), 0u);
    EXPECT_EQ(t.open_count(), 0u);
    EXPECT_EQ(t.fetch_opened(), 0u);
    EXPECT_TRUE(t.records().empty());
    EXPECT_TRUE(t.balanced());
}

TEST(EpisodeTracker, ChromeJsonEmitsAsyncSpanPairs) {
    obs::Metrics m;
    EpisodeTracker t{m};
    t.open();
    t.close(closed(7, 3, 1.0, 1.5, EpisodeTracker::kTierFallback));
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

// --- REPORT-frame field lists ----------------------------------------------

TEST(ObsWire, RegistryRoundTripsAndFailsOnTruncation) {
    const obs::RegistrySnapshot snap = test::sample_registry();
    ByteWriter w;
    write_fields(w, snap);
    {
        ByteReader r(w.data());
        obs::RegistrySnapshot back;
        ASSERT_TRUE(read_fields(r, back));
        EXPECT_EQ(back.scalars, snap.scalars);
        EXPECT_EQ(back.histograms.at("proto.lat").bounds,
                  snap.histograms.at("proto.lat").bounds);
        EXPECT_EQ(back.histograms.at("proto.lat").counts,
                  snap.histograms.at("proto.lat").counts);
        EXPECT_DOUBLE_EQ(back.histograms.at("proto.lat").sum, 1.75);
    }
    const auto& full = w.data();
    for (std::size_t keep : {std::size_t{0}, std::size_t{3}, full.size() - 1}) {
        std::vector<std::uint8_t> cut(full.begin(),
                                      full.begin() + static_cast<std::ptrdiff_t>(keep));
        ByteReader r(cut);
        obs::RegistrySnapshot back;
        EXPECT_FALSE(read_fields(r, back)) << "kept " << keep;
    }
}

TEST(ObsWire, SamplerRoundTrips) {
    const obs::SamplerSnapshot snap = test::sample_sampler();
    ByteWriter w;
    write_fields(w, snap);
    ByteReader r(w.data());
    obs::SamplerSnapshot back;
    ASSERT_TRUE(read_fields(r, back));
    EXPECT_EQ(back.interval_s, snap.interval_s);
    EXPECT_EQ(back.t, snap.t);
    ASSERT_EQ(back.series.size(), 2u);
    EXPECT_EQ(back.series[0].name, "rate.x");
    EXPECT_TRUE(back.series[0].rate);
    EXPECT_FALSE(back.series[1].rate);
    EXPECT_EQ(back.series[1].values, (std::vector<std::uint64_t>{7, 7, 8}));
}

TEST(ObsWire, EpisodesRoundTripAndRejectOutOfRangeEnums) {
    const std::vector<EpisodeTracker::Record> eps = test::sample_episodes();
    ByteWriter w;
    write_fields(w, counted<std::uint32_t>(eps));
    {
        ByteReader r(w.data());
        std::vector<EpisodeTracker::Record> back;
        ASSERT_TRUE(read_fields(r, counted<std::uint32_t>(back)));
        ASSERT_EQ(back.size(), 2u);
        EXPECT_EQ(back[0].node, 7u);
        EXPECT_EQ(back[0].tier, EpisodeTracker::kTierFallback);
        EXPECT_EQ(back[1].kind, EpisodeTracker::Kind::kFetch);
        EXPECT_EQ(back[1].reason, EpisodeTracker::Reason::kAbandoned);
        EXPECT_DOUBLE_EQ(back[1].closed_s, 2.5);
    }
    // Records arrive inside a shard's REPORT: a tier past kTierPrimary must
    // fail the report's decode, not produce garbage.
    sim::ShardReport report;
    report.episodes = eps;
    ByteWriter rw;
    write_fields(rw, report);
    std::vector<std::uint8_t> bad = rw.data();
    {
        ByteReader r(bad);
        ASSERT_TRUE(sim::read_report(r).has_value());
    }
    // tier is the second-to-last byte of each fixed-size record; the last
    // record is followed by the empty wait and span lists (two u32 counts).
    bad[bad.size() - 8 - 2] = 7;
    ByteReader r(bad);
    EXPECT_FALSE(sim::read_report(r).has_value());
}

TEST(ObsWire, SpansAndU64sRoundTrip) {
    const std::vector<obs::PortableSpan> spans = test::sample_spans();
    const std::vector<std::uint64_t> u64s = test::sample_u64s();
    ByteWriter w;
    write_fields(w, counted<std::uint32_t>(spans), counted<std::uint32_t>(u64s));
    ByteReader r(w.data());
    std::vector<obs::PortableSpan> back;
    std::vector<std::uint64_t> u;
    ASSERT_TRUE(read_fields(r, counted<std::uint32_t>(back), counted<std::uint32_t>(u)));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].name, "event_drain");
    EXPECT_EQ(back[0].tid, 3u);
    EXPECT_EQ(back[0].dur_ns, 250u);
    EXPECT_EQ(u, (std::vector<std::uint64_t>{5, 6, 7}));
}

// --- scenario level: chaos-matrix accounting --------------------------------

struct MatrixClass {
    std::string name;
    bool rotate = false;
    std::function<ChaosSchedule(const DisScenario&)> schedule;
    /// Pinned FNV-1a digests of the class's episode records and of its
    /// registry's recovery.* rows (records_digest, recovery_rows_digest).
    std::uint64_t records_fnv = 0;
    std::uint64_t rows_fnv = 0;
};

/// FNV-1a over every record, field by field (Record has padding bytes).
std::uint64_t records_digest(const std::vector<EpisodeTracker::Record>& recs) {
    Fnv1a h;
    for (const EpisodeTracker::Record& r : recs) {
        h.feed_value(r.node);
        h.feed_value(r.seq);
        h.feed_value(r.opened_s);
        h.feed_value(r.closed_s);
        h.feed_value(r.nacks);
        h.feed_value(r.cold_restarts);
        h.feed_value(r.kind);
        h.feed_value(r.tier);
        h.feed_value(r.reason);
    }
    return h.h;
}

/// FNV-1a over the names and values of the registry's recovery.* rows
/// (counters, the open gauges and every latency-histogram row).
std::uint64_t recovery_rows_digest(const obs::Metrics& m) {
    Fnv1a h;
    for (const obs::Metrics::Sample& row : m.snapshot()) {
        if (!row.name.starts_with("recovery.")) continue;
        h.feed(row.name.data(), row.name.size());
        h.feed_value(row.value);
    }
    return h.h;
}

/// Scaled-down mirror of bench_chaos's five fault classes (same shapes,
/// smaller topology and traffic so the matrix stays unit-test-fast).
std::vector<MatrixClass> matrix() {
    std::vector<MatrixClass> classes;
    classes.push_back({"blackouts", false, [](const DisScenario&) {
                           Rng rng{20250809};
                           return ChaosSchedule::correlated_blackouts(
                               rng, 8, 2, secs(1.2), millis(250), millis(500));
                       },
                       0x007332608a2f81e3ull, 0xb3c43f74358a6033ull});
    classes.push_back({"failover_storm", false, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(PrimaryCrash{secs(0.8), secs(2.0)});
                           s.events.push_back(ReplicaCrash{0, secs(0.8), secs(2.5)});
                           return s;
                       },
                       0x1effdc305b07e361ull, 0xa9bbc4d4413c8cf9ull});
    classes.push_back({"partition", false, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(SitePartition{1, secs(0.8), secs(1.2)});
                           return s;
                       },
                       0x7557a4303c4872a8ull, 0xf948492a96d8081eull});
    classes.push_back({"crash_churn", false, [](const DisScenario& scenario) {
                           ChaosSchedule s;
                           s.events.push_back(
                               CrashOnReceive{scenario.topology().sites[2].receivers[0],
                                              SeqNum{6}, millis(400)});
                           s.events.push_back(SendAndCrash{SeqNum{12}, millis(100)});
                           return s;
                       },
                       0xe6f1f0157cac524full, 0x44f35991ccb61e70ull});
    classes.push_back({"rotation", true, [](const DisScenario&) {
                           ChaosSchedule s;
                           s.events.push_back(SiteBlackout{1, secs(0.8), millis(500)});
                           return s;
                       },
                       0xdf3ddeee20a4a021ull, 0x7ad4eb2a076198c1ull});
    return classes;
}

TEST(EpisodeChaosMatrix, AccountingBalancesAcrossEveryFaultClass) {
    std::set<std::uint8_t> tiers;
    std::uint64_t fetch_cold_restarts = 0;
    for (const MatrixClass& cls : matrix()) {
        ScenarioConfig config;
        config.topology.sites = 8;
        config.topology.receivers_per_site = 2;
        config.topology.replicas = 2;
        config.seed = 77;
        if (cls.rotate) {
            config.site_logging = SiteLogging::kRotating;
            config.receiver_defaults.rotation_slot = secs(1.0);
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
            if (audit.lost_forever == 0) {
                EXPECT_EQ(t.abandoned(), 0u) << cls.name;
            }
            // Records mirror the counters (no drops at this scale).
            EXPECT_EQ(t.records_dropped(), 0u) << cls.name;
            std::uint64_t repaired = 0;
            std::set<std::pair<std::uint32_t, std::uint32_t>> recovered, fetched;
            for (const auto& rec : t.records()) {
                if (rec.kind == EpisodeTracker::Kind::kRecovery) {
                    tiers.insert(rec.tier);
                    recovered.insert({rec.node, rec.seq});
                    if (rec.reason == EpisodeTracker::Reason::kRepaired) ++repaired;
                } else {
                    fetch_cold_restarts += rec.cold_restarts;
                    fetched.insert({rec.node, rec.seq});
                }
            }
            EXPECT_EQ(repaired, t.repaired()) << cls.name;
            // Rotating site loggers make a host a receiver and a secondary
            // at once: one (node, seq) can run both episode kinds.
            if (cls.rotate) {
                EXPECT_TRUE(std::any_of(recovered.begin(), recovered.end(),
                                        [&](const auto& k) { return fetched.contains(k); }))
                    << cls.name;
            }
            // The records and every recovery.* row are pinned per class.
            EXPECT_EQ(records_digest(t.records()), cls.records_fnv) << cls.name;
            EXPECT_EQ(recovery_rows_digest(m), cls.rows_fnv) << cls.name;
        }
    }
    if constexpr (obs::kTelemetryEnabled) {
        // Together the classes reach every tier and park fetches.
        EXPECT_EQ(tiers, (std::set<std::uint8_t>{EpisodeTracker::kTierLocal,
                                                 EpisodeTracker::kTierFallback,
                                                 EpisodeTracker::kTierPrimary}));
        EXPECT_GT(fetch_cold_restarts, 0u);
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
