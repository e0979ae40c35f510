// Sharded simulation engine (sim/shard.hpp; DESIGN.md "Sharded execution").
//
// The tentpole claim is *bit-identical partitioning*: a scenario split
// across N shard domains -- synced by conservative time windows and a
// cross-shard batch exchange -- must put exactly the same packets on the
// same links at the same times as the single-process run.  These tests pin
// that with the order-independent packet-trace digest across the inline
// and multi-process drivers, plus the edge cases the window
// protocol makes delicate: an event landing exactly on the lookahead
// horizon, a lossy cut link whose NACK/retransmission exchange round-trips
// across the boundary, and a chaos SitePartition whose cut coincides with
// the shard cut (receiver reliability must survive both partitions at
// once).  A pinned digest holds the single-process trace itself fixed, and
// the memory-satellite containers (SmallVec, BlockPool) get their units
// here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/pool.hpp"
#include "common/small_vec.hpp"
#include "sim/chaos.hpp"
#include "sim/loss_model.hpp"
#include "sim/shard.hpp"
#include "tests/test_util.hpp"
#include "tests/wire_fixtures.hpp"
#include "workload/engine.hpp"
#include "workload/stock_ticker.hpp"

namespace lbrm::sim {
namespace {

using lbrm::test::at;
using lbrm::test::sample_remote;

// --- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, ContiguousCoversAllShardsAndPinsSiteZero) {
    const ShardPlan plan = ShardPlan::contiguous(20, 4);
    ASSERT_EQ(plan.site_shard.size(), 20u);
    EXPECT_EQ(plan.site_shard.front(), 0u);  // source complex follows site 0
    std::set<std::uint32_t> used;
    std::uint32_t prev = 0;
    for (const std::uint32_t s : plan.site_shard) {
        EXPECT_LT(s, 4u);
        EXPECT_GE(s, prev);  // contiguous blocks
        prev = s;
        used.insert(s);
    }
    EXPECT_EQ(used.size(), 4u);  // no empty shard
    EXPECT_THROW(ShardPlan::contiguous(2, 3), std::invalid_argument);
    EXPECT_THROW(ShardPlan::contiguous(2, 0), std::invalid_argument);
}

// --- SmallVec ---------------------------------------------------------------

TEST(SmallVec, InlineUntilSpill) {
    SmallVec<std::string, 1> v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.inline_storage());
    v.push_back("alpha");
    EXPECT_TRUE(v.inline_storage());
    EXPECT_EQ(v.size(), 1u);
    v.push_back("beta");  // spills to the heap
    EXPECT_FALSE(v.inline_storage());
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "alpha");
    EXPECT_EQ(v[1], "beta");
    for (int i = 0; i < 10; ++i) v.push_back("x" + std::to_string(i));
    EXPECT_EQ(v.size(), 12u);
    EXPECT_EQ(v[0], "alpha");
    EXPECT_EQ(v.back(), "x9");
}

TEST(SmallVec, ErasePreservesOrder) {
    SmallVec<int, 1> v;
    for (int i = 0; i < 6; ++i) v.push_back(i);
    int* it = v.erase(v.begin() + 2);
    EXPECT_EQ(*it, 3);
    ASSERT_EQ(v.size(), 5u);
    const int want[] = {0, 1, 3, 4, 5};
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], want[i]);
    v.erase(v.begin());
    EXPECT_EQ(v[0], 1);
    while (!v.empty()) v.pop_back();
    EXPECT_TRUE(v.empty());
}

TEST(SmallVec, MoveStealsHeapAndMovesInline) {
    SmallVec<std::string, 1> inline_one;
    inline_one.push_back("solo");
    SmallVec<std::string, 1> a = std::move(inline_one);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0], "solo");
    EXPECT_TRUE(a.inline_storage());

    SmallVec<std::string, 1> spilled;
    spilled.push_back("one");
    spilled.push_back("two");
    SmallVec<std::string, 1> b = std::move(spilled);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[1], "two");
    EXPECT_FALSE(b.inline_storage());

    b = std::move(a);  // move-assign over a heap buffer
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], "solo");
}

// --- BlockPool --------------------------------------------------------------

TEST(BlockPool, RecyclesFreedBlocks) {
    BlockPool pool;
    void* a = pool.alloc(48);  // 64-byte class
    void* b = pool.alloc(48);
    EXPECT_NE(a, b);
    EXPECT_GT(pool.slab_bytes(), 0u);
    pool.free(a, 48);
    void* c = pool.alloc(40);  // same class: the freed block comes back
    EXPECT_EQ(c, a);
    pool.free(b, 48);
    pool.free(c, 40);
}

TEST(BlockPool, OversizeFallsThroughToOperatorNew) {
    BlockPool pool;
    const std::size_t before = pool.slab_bytes();
    void* big = pool.alloc(100 * 1024);
    EXPECT_NE(big, nullptr);
    EXPECT_EQ(pool.slab_bytes(), before);  // no slab carved
    pool.free(big, 100 * 1024);
}

// --- RemoteEvent wire codec -------------------------------------------------

TEST(RemoteCodec, RoundTrips) {
    const Network::RemoteEvent ev = sample_remote();
    ByteWriter w;
    encode_remote(w, ev);
    ByteReader r(w.data());
    const auto back = decode_remote(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->at, ev.at);
    EXPECT_EQ(back->key, ev.key);
    EXPECT_EQ(back->kind, ev.kind);
    EXPECT_EQ(back->scope, ev.scope);
    EXPECT_EQ(back->target_shard, ev.target_shard);
    EXPECT_EQ(back->tree_root, ev.tree_root);
    EXPECT_EQ(back->entry_begin, ev.entry_begin);
    EXPECT_EQ(back->entry_count, ev.entry_count);
    EXPECT_EQ(encode(back->packet), encode(ev.packet));
}

TEST(RemoteCodec, TruncationFailsCleanly) {
    ByteWriter w;
    encode_remote(w, sample_remote());
    const std::vector<std::uint8_t>& full = w.data();
    for (const std::size_t keep : {std::size_t{0}, std::size_t{8}, full.size() - 1}) {
        std::vector<std::uint8_t> cut(full.begin(),
                                      full.begin() + static_cast<std::ptrdiff_t>(keep));
        ByteReader r(cut);
        EXPECT_FALSE(decode_remote(r).has_value()) << "kept " << keep;
    }
}

// --- A/B equivalence: the tentpole determinism claim ------------------------

/// 20-site scenario with a pre-scheduled workload.  tail_delay doubles as
/// the conservative lookahead (the cut cables are the tail circuits), so
/// 5 ms keeps the window count in the hundreds.
ShardRunConfig shard_config(std::uint32_t shards) {
    ShardRunConfig cfg;
    cfg.scenario.topology.sites = 20;
    cfg.scenario.topology.receivers_per_site = 2;
    cfg.scenario.topology.tail_delay = millis(5);
    cfg.shards = shards;
    cfg.run_for = secs(1.2);
    cfg.setup = [](DisScenario& s, std::uint32_t) {
        // schedule_update is a no-op off the source's shard, so the hook is
        // identical on every shard (the determinism contract).
        for (int i = 0; i < 12; ++i)
            s.schedule_update(at(0.1 + 0.05 * i), 64 + static_cast<std::size_t>(i));
    };
    return cfg;
}

TEST(ShardEquivalence, SingleShardIsTraceIdenticalToBaseline) {
    const ShardResult base = run_unsharded(shard_config(1));
    const ShardResult one = run_sharded_inline(shard_config(1));
    ASSERT_GT(base.digest.packets, 0u);
    EXPECT_TRUE(one.digest.same(base.digest));
    // N=1 interleaves identically, so even the order-sensitive chain holds.
    EXPECT_EQ(one.digest.chained, base.digest.chained);
    EXPECT_EQ(one.deliveries, base.deliveries);
    EXPECT_EQ(one.remote_emits, 0u);  // nothing crosses in a 1-shard plan
}

TEST(ShardEquivalence, InlineMatchesBaselineAcrossShardCounts) {
    const ShardResult base = run_unsharded(shard_config(1));
    ASSERT_GT(base.deliveries, 0u);
    for (const std::uint32_t n : {2u, 4u}) {
        const ShardResult r = run_sharded_inline(shard_config(n));
        EXPECT_TRUE(r.digest.same(base.digest)) << n << " shards";
        EXPECT_EQ(r.deliveries, base.deliveries) << n << " shards";
        EXPECT_GT(r.remote_emits, 0u) << n << " shards";
        EXPECT_EQ(r.remote_drops, 0u) << n << " shards";
        EXPECT_EQ(r.window, millis(5)) << n << " shards";
        EXPECT_GT(r.windows, 1u) << n << " shards";
    }
}

TEST(ShardEquivalence, ProcessesMatchBaseline) {
    const ShardResult base = run_unsharded(shard_config(1));
    for (const std::uint32_t n : {2u, 4u}) {
        const ShardResult r = run_sharded_processes(shard_config(n));
        EXPECT_TRUE(r.digest.same(base.digest)) << n << " shards";
        EXPECT_EQ(r.deliveries, base.deliveries) << n << " shards";
        EXPECT_EQ(r.remote_drops, 0u) << n << " shards";
        EXPECT_EQ(r.peak_rss_kb.size(), n);
        for (const std::uint64_t kb : r.peak_rss_kb) EXPECT_GT(kb, 0u);
    }
}

// --- pinned single-process trace ---------------------------------------------

/// Run `cfg`'s scenario as a plain DisScenario -- default SimConfig, no
/// shard runner -- and digest every packet put on a link.
TraceDigest plain_digest(const ShardRunConfig& cfg) {
    DisScenario scenario{cfg.scenario};
    TraceDigest digest;
    scenario.network().set_tap([&digest](TimePoint t, const Link& l, const Packet& p,
                                         bool delivered) { digest.add(t, l, p, delivered); });
    cfg.setup(scenario, 0);
    scenario.start();
    scenario.run_for(cfg.run_for);
    return digest;
}

TEST(PinnedTrace, DefaultConfigMatchesRecordedDigests) {
    // The literals are the digests the shard-ordering baseline recorded
    // before that ordering became the only one, so they guard every
    // mechanism on the delivery path at once: routing, link and delivery
    // batching, the delivery arena, event tiebreaks and loss streams.
    const TraceDigest lossless = plain_digest(shard_config(1));
    EXPECT_EQ(lossless.sum, 15242194079324855073ull);
    EXPECT_EQ(lossless.packets, 1894u);

    ShardRunConfig lossy = shard_config(1);
    lossy.run_for = secs(3.0);
    lossy.setup = [](DisScenario& s, std::uint32_t) {
        for (const std::size_t site : {4u, 11u})
            s.network().set_loss(s.topology().backbone, s.topology().sites[site].router,
                                 std::make_unique<BernoulliLoss>(0.3));
        for (int i = 0; i < 12; ++i)
            s.schedule_update(at(0.1 + 0.05 * i), 64 + static_cast<std::size_t>(i));
    };
    const TraceDigest digest = plain_digest(lossy);
    EXPECT_EQ(digest.sum, 292938054687096977ull);
    EXPECT_EQ(digest.packets, 2352u);
}

// --- window-boundary edge cases ---------------------------------------------

TEST(ShardWindow, EventExactlyAtLookaheadHorizonAndDeadline) {
    // Sends pinned to exact window boundaries: t0 + W (excluded from the
    // first window, must run after the first exchange), a mid-run boundary,
    // and the deadline itself (run_until is inclusive; its emissions land
    // past the deadline and are discarded by baseline and shards alike).
    auto cfg = [](std::uint32_t shards) {
        ShardRunConfig c = shard_config(shards);
        c.window = millis(5);  // == the derived lookahead, now explicit
        c.run_for = secs(1.0);
        c.setup = [](DisScenario& s, std::uint32_t) {
            s.schedule_update(at(0.005), 64);  // exactly t0 + W
            s.schedule_update(at(0.5), 64);    // exactly a window boundary
            s.schedule_update(at(1.0), 64);    // exactly the deadline
        };
        return c;
    };
    const ShardResult base = run_unsharded(cfg(1));
    ASSERT_GT(base.deliveries, 0u);
    const ShardResult r = run_sharded_inline(cfg(2));
    EXPECT_TRUE(r.digest.same(base.digest));
    EXPECT_EQ(r.deliveries, base.deliveries);
    EXPECT_EQ(r.windows, 200u);  // 1.0 s / 5 ms
}

// --- recovery across the cut ------------------------------------------------

TEST(ShardRecovery, CrossShardNackRetransmissionRoundTrip) {
    // Receivers NACK the primary directly (no site secondaries), so for the
    // sites on shard 1 both the loss detection (data over the cut) and the
    // whole repair exchange (NACK out, retransmission back) cross the shard
    // boundary.  The lossy link is a cut cable; its per-link RNG stream
    // makes the drop pattern shard-invariant, so even a lossy run must be
    // trace-identical to the baseline.
    auto cfg = [](std::uint32_t shards) {
        ShardRunConfig c = shard_config(shards);
        c.scenario.use_secondary_loggers = false;
        c.run_for = secs(3.0);
        auto base_setup = c.setup;
        c.setup = [base_setup](DisScenario& s, std::uint32_t shard) {
            s.network().set_loss(s.topology().backbone,
                                 s.topology().sites[12].router,
                                 std::make_unique<BernoulliLoss>(0.4));
            base_setup(s, shard);
        };
        return c;
    };
    const ShardResult base = run_unsharded(cfg(1));
    const ShardResult r = run_sharded_inline(cfg(2));
    EXPECT_TRUE(r.digest.same(base.digest));
    EXPECT_EQ(r.deliveries, base.deliveries);
    EXPECT_EQ(r.remote_drops, 0u);
    // The repair machinery actually fired (site 12 lives on shard 1, its
    // repairs crossed the cut).
    ASSERT_TRUE(r.counters.contains("proto.receiver.recovered"));
    EXPECT_GT(r.counters.at("proto.receiver.recovered"), 0.0);
    EXPECT_GT(r.remote_emits, 0u);
}

// --- workload-engine-driven traffic across the cut --------------------------

TEST(ShardEquivalence, WorkloadEngineMatchesBaselineAcrossShards) {
    // The closed-loop workload engine replaces the hand-rolled
    // schedule_update loop: every shard constructs an identical engine (the
    // plan is a pure function of seed + config, so the draws agree), and
    // only the shard owning the source actually schedules sends.  The
    // 2-shard digest must equal the unsharded shard-ordering run.
    auto cfg = [](std::uint32_t shards) {
        ShardRunConfig c = shard_config(shards);
        c.run_for = secs(1.6);
        c.setup = [](DisScenario& s, std::uint32_t) {
            workload::EngineConfig ecfg;
            ecfg.governed = false;
            ecfg.start_delay = millis(100);
            ecfg.horizon = secs(1.0);
            ecfg.seed = 11;
            auto engine = std::make_shared<workload::WorkloadEngine>(s, ecfg);
            workload::StockTickerConfig tc;
            tc.mean_gap = millis(25);
            engine->add_stream(std::make_unique<workload::StockTickerWorkload>(tc));
            engine->start();
            // The engine's destructor detaches from the scenario, so the
            // scenario must own it: retain() keeps it alive for the run and
            // destroys it first.
            s.retain(std::move(engine));
        };
        return c;
    };
    const ShardResult base = run_unsharded(cfg(1));
    ASSERT_GT(base.deliveries, 0u);
    for (const std::uint32_t n : {2u, 4u}) {
        const ShardResult r = run_sharded_inline(cfg(n));
        EXPECT_TRUE(r.digest.same(base.digest)) << n << " shards";
        EXPECT_EQ(r.deliveries, base.deliveries) << n << " shards";
        EXPECT_GT(r.remote_emits, 0u) << n << " shards";
        EXPECT_EQ(r.remote_drops, 0u) << n << " shards";
    }
}

// --- chaos on the cut -------------------------------------------------------

TEST(ShardChaos, SitePartitionCoincidingWithShardCut) {
    // Site 4 is the first site of shard 1, so the partition takes down a
    // router whose tail circuit *is* a cut cable: the fault boundary and
    // the shard boundary coincide.  Refinalize-with-traffic-in-flight makes
    // packet-level equivalence with the monolithic run unattainable by
    // design (the baseline delivers through the old shared tree; a shard
    // re-resolves and counts a drop), so the claim here is the protocol's:
    // receiver reliability -- every receiver eventually holds every
    // sequence -- across partition + shard cut at once.
    constexpr std::uint32_t kShards = 2;
    std::vector<std::shared_ptr<RecordingObserver>> recs(kShards);
    std::vector<std::unique_ptr<ChaosEngine>> engines;

    ShardRunConfig cfg;
    cfg.scenario.topology.sites = 8;
    cfg.scenario.topology.receivers_per_site = 2;
    cfg.scenario.topology.tail_delay = millis(5);
    cfg.shards = kShards;
    cfg.site_shard = {0, 0, 0, 0, 1, 1, 1, 1};
    cfg.run_for = secs(10.0);
    cfg.make_observer = [&recs](std::uint32_t shard) {
        recs[shard] = std::make_shared<RecordingObserver>();
        return recs[shard];
    };
    cfg.setup = [&engines](DisScenario& s, std::uint32_t) {
        for (int i = 0; i < 20; ++i)
            s.schedule_update(at(0.2 + 0.1 * i), 64 + static_cast<std::size_t>(i));
        ChaosSchedule schedule;
        schedule.events.push_back(SitePartition{4, secs(1.0), secs(1.5)});
        // SitePartition attaches no scenario observer, so the engines may
        // safely outlive the shard domains (their dtor touches nothing).
        engines.push_back(std::make_unique<ChaosEngine>(s, std::move(schedule)));
        engines.back()->arm();
    };

    const ShardResult r = run_sharded_inline(cfg);

    // Every shard applied the same fault schedule to its own network copy.
    ASSERT_TRUE(r.counters.contains("chaos.partitions"));
    EXPECT_EQ(r.counters.at("chaos.partitions"), static_cast<double>(kShards));

    // Global receiver-reliability audit over the per-shard records: the
    // sends live on shard 0 (it owns the source), deliveries on the shard
    // owning each receiver.
    std::size_t sends = 0;
    for (const auto& rec : recs) sends = std::max(sends, rec->sends().size());
    ASSERT_EQ(sends, 20u);
    std::set<std::pair<std::uint64_t, std::uint64_t>> delivered;
    for (const auto& rec : recs)
        for (const DeliveryRecord& d : rec->deliveries())
            delivered.insert({d.node.value(), d.seq.value()});
    const std::size_t receivers = 8 * 2;
    EXPECT_EQ(delivered.size(), receivers * sends)
        << "some receiver permanently lost a sequence";
}

// --- cross-shard telemetry plane ---------------------------------------------

/// The lossy recovery scenario again, because it is the one where shard
/// aggregation used to *lose* the registry's structure: the legacy flat
/// counter merge dropped histogram buckets entirely, so a sharded run could
/// not answer "what was the recovery-latency distribution".
ShardRunConfig telemetry_config(std::uint32_t shards) {
    ShardRunConfig cfg = shard_config(shards);
    cfg.scenario.use_secondary_loggers = false;
    cfg.run_for = secs(3.0);
    auto base_setup = cfg.setup;
    cfg.setup = [base_setup](DisScenario& s, std::uint32_t shard) {
        s.network().set_loss(s.topology().backbone,
                             s.topology().sites[12].router,
                             std::make_unique<BernoulliLoss>(0.4));
        base_setup(s, shard);
    };
    return cfg;
}

/// Scalars comparable across a sharded/monolith A/B.  Protocol, host and
/// episode counters sum across shards to the monolith's totals; wall-clock
/// rows (shard.barrier_wait_ns) and the cross-shard plumbing counters
/// (sim.remote_*) exist only on one side or differ by design.
bool ab_comparable(const std::string& name) {
    return name.rfind("proto.", 0) == 0 || name.rfind("host.", 0) == 0 ||
           name.rfind("recovery.", 0) == 0 || name == "sim.deliveries";
}

/// Completed episode records across all shards, as a sortable multiset.
std::vector<obs::EpisodeTracker::Record> all_episodes(const ShardResult& r) {
    std::vector<obs::EpisodeTracker::Record> out;
    for (const auto& shard : r.shard_episodes)
        out.insert(out.end(), shard.begin(), shard.end());
    std::sort(out.begin(), out.end(),
              [](const obs::EpisodeTracker::Record& a,
                 const obs::EpisodeTracker::Record& b) {
                  return std::tie(a.node, a.seq, a.opened_s, a.closed_s) <
                         std::tie(b.node, b.seq, b.opened_s, b.closed_s);
              });
    return out;
}

void expect_snapshot_matches(const ShardResult& base, const ShardResult& r,
                             const char* driver) {
    // Scalar rows: every comparable row must exist on both sides with the
    // same value (counters sum across shards; loss draws are shard-invariant
    // so the sums land exactly).
    for (const auto& [name, value] : base.merged_snapshot.scalars) {
        if (!ab_comparable(name)) continue;
        const auto it = r.merged_snapshot.scalars.find(name);
        ASSERT_NE(it, r.merged_snapshot.scalars.end())
            << driver << " lost scalar " << name;
        EXPECT_EQ(it->second, value) << driver << ": " << name;
    }
    for (const auto& [name, value] : r.merged_snapshot.scalars) {
        if (!ab_comparable(name)) continue;
        EXPECT_TRUE(base.merged_snapshot.scalars.contains(name))
            << driver << " invented scalar " << name;
    }
    // Histograms merge bucket-wise: bounds and per-bucket counts are exact
    // (integer sums of shard-invariant observations); only `sum` may wobble
    // in the last float bits, because the shards accumulate their partial
    // sums in a different order than the monolith.
    for (const auto& [name, h] : base.merged_snapshot.histograms) {
        if (!ab_comparable(name)) continue;
        const auto it = r.merged_snapshot.histograms.find(name);
        ASSERT_NE(it, r.merged_snapshot.histograms.end())
            << driver << " lost histogram " << name;
        EXPECT_EQ(it->second.bounds, h.bounds) << driver << ": " << name;
        EXPECT_EQ(it->second.counts, h.counts) << driver << ": " << name;
        EXPECT_EQ(it->second.count, h.count) << driver << ": " << name;
        EXPECT_NEAR(it->second.sum, h.sum, 1e-9 * (1.0 + std::abs(h.sum)))
            << driver << ": " << name;
    }
    EXPECT_EQ(r.merged_snapshot.histograms.size(),
              base.merged_snapshot.histograms.size())
        << driver;
}

TEST(ShardTelemetry, LossyMergedSnapshotMatchesMonolith) {
    // The regression this section exists for: a lossy 2-shard run's merged
    // registry snapshot -- histogram buckets included -- must equal the
    // monolithic run's, across both an in-process driver and the
    // frame-encoded multi-process REPORT path.
    const ShardResult base = run_unsharded(telemetry_config(1));
    ASSERT_FALSE(base.merged_snapshot.empty());
    if (obs::kTelemetryEnabled) {
        // The loss actually exercised the recovery path, so the latency
        // histogram the old flat merge dropped is non-trivial here.
        const auto& lat =
            base.merged_snapshot.histograms.at("proto.receiver.recovery_latency_s");
        ASSERT_GT(lat.count, 0u);
        ASSERT_GT(
            base.merged_snapshot.histograms.at("recovery.latency_s.local").count,
            0u);
    }

    const ShardResult inline2 = run_sharded_inline(telemetry_config(2));
    const ShardResult proc2 = run_sharded_processes(telemetry_config(2));
    for (const auto& [r, driver] :
         {std::pair<const ShardResult&, const char*>{inline2, "inline"},
          std::pair<const ShardResult&, const char*>{proc2, "processes"}}) {
        EXPECT_TRUE(r.digest.same(base.digest)) << driver;
        ASSERT_EQ(r.shard_snapshots.size(), 2u) << driver;
        expect_snapshot_matches(base, r, driver);

        // Episode accounting balances from the merged scalars alone.
        if (obs::kTelemetryEnabled) {
            const auto& s = r.merged_snapshot.scalars;
            const double opened = s.at("recovery.episodes_opened");
            EXPECT_GT(opened, 0.0) << driver;
            EXPECT_EQ(opened, s.at("recovery.episodes_repaired") +
                                  s.at("recovery.episodes_abandoned") +
                                  s.at("recovery.episodes_open"))
                << driver;
            // And the per-episode records across shards are the monolith's,
            // as a multiset: same losses, same gap-detect and repair times.
            const auto want = all_episodes(base);
            const auto got = all_episodes(r);
            ASSERT_EQ(got.size(), want.size()) << driver;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].node, want[i].node) << driver << " #" << i;
                EXPECT_EQ(got[i].seq, want[i].seq) << driver << " #" << i;
                EXPECT_EQ(got[i].opened_s, want[i].opened_s) << driver << " #" << i;
                EXPECT_EQ(got[i].closed_s, want[i].closed_s) << driver << " #" << i;
                EXPECT_EQ(got[i].nacks, want[i].nacks) << driver << " #" << i;
                EXPECT_EQ(got[i].tier, want[i].tier) << driver << " #" << i;
                EXPECT_EQ(static_cast<int>(got[i].reason),
                          static_cast<int>(want[i].reason))
                    << driver << " #" << i;
            }
        }
    }
}

TEST(ShardTelemetry, ProcessReportShipsSamplerAndWindowProfile) {
    // The REPORT v2 sections beyond the registry: merged sampler series,
    // the window-protocol profile, and the single observability artifact.
    auto cfg = [](std::uint32_t shards) {
        ShardRunConfig c = telemetry_config(shards);
        auto base_setup = c.setup;
        c.setup = [base_setup](DisScenario& s, std::uint32_t shard) {
            base_setup(s, shard);
            s.start_sampling(millis(100));
        };
        return c;
    };
    const ShardResult base = run_unsharded(cfg(1));
    ASSERT_FALSE(base.sampler.empty());
    ShardRunConfig pcfg = cfg(2);
    pcfg.collect_trace = true;  // wall spans never enter the A/B'd data
    const ShardResult r = run_sharded_processes(pcfg);
    EXPECT_TRUE(r.digest.same(base.digest));  // sampling + tracing are inert

    // Shards tick the sampler in lockstep, so the merged time axis is the
    // monolith's and the counter-rate series sum to the monolith's exactly.
    // Level series (queue depths at the tick instant) are excluded: at a
    // tick a shard has not yet injected the other side's in-flight events.
    ASSERT_EQ(r.sampler.t.size(), base.sampler.t.size());
    EXPECT_EQ(r.sampler.interval_s, base.sampler.interval_s);
    for (const auto& want : base.sampler.series) {
        if (!want.rate || !ab_comparable(want.name)) continue;
        const auto it = std::find_if(
            r.sampler.series.begin(), r.sampler.series.end(),
            [&want](const auto& s) { return s.name == want.name; });
        ASSERT_NE(it, r.sampler.series.end()) << want.name;
        EXPECT_EQ(it->values, want.values) << want.name;
    }
    if (obs::kTelemetryEnabled) {
        const auto has = [&r](const char* name) {
            return std::any_of(r.sampler.series.begin(), r.sampler.series.end(),
                               [name](const auto& s) { return s.name == name; });
        };
        EXPECT_TRUE(has("recovery.episodes_opened"));
        EXPECT_TRUE(has("recovery.episodes_repaired"));
    }

    // Window-protocol profile: one pipe-wait row per shard with one entry
    // per window, and one coordinator splice measurement per window.
    ASSERT_EQ(r.shard_window_wait_ns.size(), 2u);
    for (const auto& waits : r.shard_window_wait_ns)
        EXPECT_EQ(waits.size(), r.windows);
    EXPECT_EQ(r.window_splice_ns.size(), r.windows);
    EXPECT_EQ(r.shard_spans.size(), 2u);  // rings shipped (may be empty)

    // The one coherent artifact holds every plane.
    const std::string json = shard_observability_json(r);
    for (const char* key : {"\"shards\"", "\"snapshot\"", "\"sampler\"",
                            "\"episodes\"", "\"window_protocol\"",
                            "\"episode_trace\"", "\"trace\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

}  // namespace
}  // namespace lbrm::sim
