// Memory-diet regression suite (DESIGN.md "Memory engineering").
//
// The 10^7-node memory work is only admissible because every byte saved is
// provably invisible to the simulation: these tests pin the equivalences.
//  - Per-(site,packet) delivery batching fires on a LAN fan-out, and every
//    delivery record is destroyed once its burst drains (the bit-identity
//    of both is held by the pinned trace digest in shard_test.cpp).
//  - Dormant receivers: attached as ~48-byte records, woken by their first
//    group packet mid-lossy-run, bit-identical to always-allocated cores --
//    including the idle watchdog firing while still dormant and the NACK
//    recovery behavior after waking.
//  - Shared-cable split: the reverse direction of a one-way loaded cable
//    keeps zero stats without cold state; Cable::respec() loss resets feed
//    the network.respec_loss_resets counter.
//  - SimHost timer packing: oversized timer args survive the fat-closure
//    fallback intact.
//  - SimHost lazy re-arm: moving an armed timer later costs no event-queue
//    traffic and still fires the core exactly once, at the last deadline;
//    earlier re-arms and cancels behave as before, on both closure shapes.
//  - SimHost timer table: one host can hold more than 2^15 armed timers.
//  - Shared payloads: the source's retained entry, every logger's log entry
//    and every delivery record of one update point at one buffer, repairs
//    included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/link.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

using lbrm::test::at;

// --- lossy full-protocol A/B harness -------------------------------------

struct Trace {
    std::vector<std::tuple<std::uint64_t, std::uint32_t, TimePoint, bool>> deliveries;
    std::vector<std::tuple<std::uint64_t, NoticeKind, TimePoint>> notices;
    std::uint64_t nacks_sent = 0;
    std::uint64_t recovered = 0;
    /// Not part of operator== -- compared explicitly, because dormant
    /// wiring deliberately adds one sweep event.
    std::uint64_t events_processed = 0;

    friend bool operator==(const Trace& a, const Trace& b) {
        return a.deliveries == b.deliveries && a.notices == b.notices &&
               a.nacks_sent == b.nacks_sent && a.recovered == b.recovered;
    }
};

ScenarioConfig lossy_config() {
    ScenarioConfig config;
    config.topology.sites = 4;
    config.topology.receivers_per_site = 6;
    config.seed = 99;
    return config;
}

/// Run the lossy scenario: an idle second first (idle watchdogs fire before
/// any packet), then bursts through a 25%-loss backbone tail, then drain.
template <typename Tweak>
Trace run_lossy(ScenarioConfig config, Tweak&& tweak) {
    DisScenario scenario{std::move(config)};
    tweak(scenario);
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<BernoulliLoss>(0.25));
    scenario.start();
    scenario.run_for(secs(1.0));  // idle: freshness watchdogs fire
    for (int burst = 0; burst < 3; ++burst) {
        for (int i = 0; i < 8; ++i) scenario.send_update(std::size_t{300});
        scenario.run_for(millis(300));
    }
    scenario.run_for(secs(5.0));

    Trace out;
    for (const auto& d : scenario.deliveries())
        out.deliveries.emplace_back(d.node.value(), d.seq.value(), d.at, d.recovered);
    for (const auto& n : scenario.notices())
        out.notices.emplace_back(n.node.value(), n.kind, n.at);
    out.nacks_sent = scenario.metrics().value("proto.receiver.nacks_sent");
    out.recovered = scenario.metrics().value("proto.receiver.recovered");
    out.events_processed = scenario.simulator().events_processed();
    return out;
}

// --- delivery batching + arena ---------------------------------------------

TEST(DeliveryBatching, BatchedRunsCounterMoves) {
    DisScenario scenario{lossy_config()};
    scenario.start();
    scenario.send_update(std::size_t{300});
    scenario.run_for(secs(1.0));
    // A site router fanning one packet to 6 receivers over identical idle
    // links is exactly the batched-run shape.
    EXPECT_GT(scenario.metrics().value("sim.batched_delivery_runs"), 0u);
}

TEST(DeliveryRecords, NoneLeftInFlightAfterEachDrainedBurst) {
    DisScenario scenario{lossy_config()};
    scenario.start();
    for (int burst = 0; burst < 2; ++burst) {
        scenario.send_update(std::size_t{300});
        scenario.run_for(millis(1));
        EXPECT_GT(scenario.network().deliveries_in_flight(), 0u) << "burst " << burst;
        scenario.run_for(secs(2.0));  // burst fully drained
        EXPECT_EQ(scenario.network().deliveries_in_flight(), 0u) << "burst " << burst;
    }
}

// --- dormant receivers ----------------------------------------------------

ScenarioConfig dormant_config(bool dormant) {
    ScenarioConfig config = lossy_config();
    config.dormant_receivers = dormant;
    return config;
}

TEST(DormantReceivers, LossyRunBitIdenticalToEagerCores) {
    const Trace eager = run_lossy(dormant_config(false), [](DisScenario&) {});
    std::size_t dormant_before = 0;
    std::size_t dormant_after = 0;
    const Trace dormant = run_lossy(dormant_config(true), [&](DisScenario& s) {
        dormant_before = s.dormant_receiver_count();
        (void)dormant_after;
    });
    // 4 sites x 6 receivers all start dormant.
    EXPECT_EQ(dormant_before, 24u);
    // Identical deliveries, notices (including FreshnessLost fired while
    // still dormant), NACK counts and event schedule -- except for exactly
    // one event: the dormant-watchdog sweep that stands in for the eager
    // cores' idle timers (DisScenario::start).
    EXPECT_EQ(eager, dormant);
    EXPECT_EQ(eager.events_processed + 1, dormant.events_processed);
    EXPECT_GT(eager.nacks_sent, 0u);  // recovery ran on woken cores
}

TEST(DormantReceivers, WatchdogFiresDormantAndFirstPacketWakes) {
    DisScenario scenario{dormant_config(true)};
    ASSERT_EQ(scenario.dormant_receiver_count(), 24u);
    // Cut site 1 off entirely: its 6 receivers never see a group packet
    // (the sender's pre-data heartbeats wake everyone else).
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<BernoulliLoss>(1.0));
    scenario.start();
    scenario.run_for(secs(1.0));
    // The cut-off six fired their idle watchdogs (max(max_idle, 2 x h_min)
    // = 0.5 s) while still dormant: FreshnessLost without materialising.
    EXPECT_EQ(scenario.dormant_receiver_count(), 6u);
    EXPECT_GE(scenario.notice_count(NoticeKind::kFreshnessLost), 6u);

    // Heal the tail; the next data packet wakes the stragglers with
    // fresh_ = false carried over from the dormant record.
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<NoLoss>());
    scenario.send_update(std::size_t{300});
    scenario.run_for(secs(1.0));
    EXPECT_EQ(scenario.dormant_receiver_count(), 0u);
    EXPECT_EQ(scenario.deliveries().size(), 24u);
    // The straggler regained freshness from the data packet itself.
    EXPECT_TRUE(
        scenario.receiver(scenario.topology().sites[1].receivers.front()).fresh());
}

TEST(DormantReceivers, WakeOnAccessIsPureAndIdempotent) {
    const Trace untouched = run_lossy(dormant_config(true), [](DisScenario&) {});
    const Trace poked = run_lossy(dormant_config(true), [](DisScenario& s) {
        // Forcing a few cores awake through the accessor materialises them
        // early but runs no actions: the simulation must not notice.
        const NodeId node = s.topology().sites[2].receivers.front();
        ReceiverCore& core = s.receiver(node);
        EXPECT_EQ(core.config().self, node);
        EXPECT_TRUE(core.fresh());
        EXPECT_EQ(&core, &s.receiver(node));  // idempotent: same core back
    });
    EXPECT_EQ(untouched, poked);
}

TEST(DormantReceivers, DiscoveryModeFallsBackToEagerWiring) {
    ScenarioConfig config = dormant_config(true);
    config.discover_loggers = true;  // discovery probes need live cores
    DisScenario scenario{config};
    EXPECT_EQ(scenario.dormant_receiver_count(), 0u);
}

// --- shared-cable split ---------------------------------------------------

TEST(CableColdState, ReverseDirectionKeepsZeroStats) {
    Cable cable{NodeId{1}, NodeId{2}, LinkSpec{millis(1), 1e6, Duration::zero()}};
    const std::uint64_t seed = 1;
    ASSERT_TRUE(cable.dir[0].transmit(seed, at(0.0), 500, PacketType::kData));
    EXPECT_EQ(cable.dir[0].stats().packets, 1u);
    // The reverse direction never carried traffic: its stats read as zero
    // through the shared kZeroStats block (no cold state was allocated).
    EXPECT_EQ(cable.dir[1].stats().packets, 0u);
    EXPECT_EQ(cable.dir[1].stats().bytes, 0u);
    EXPECT_FALSE(cable.dir[1].has_loss_model());
}

TEST(CableRespec, LossModelResetsFeedTheCounter) {
    Simulator simulator;
    Network net{simulator, 7};
    const NodeId a = net.add_node(SiteId{1}, true);
    const NodeId b = net.add_node(SiteId{1});
    const LinkSpec spec{millis(1), 1e6, Duration::zero()};
    net.add_link(a, b, spec);

    // Respec with no loss models installed: nothing to reset.
    net.add_link(a, b, spec);
    EXPECT_EQ(net.metrics().value("network.respec_loss_resets"), 0u);

    // One direction armed: respec silently drops that model -- the counter
    // is the audit trail (see Cable::respec in sim/link.hpp).
    net.set_loss(a, b, std::make_unique<BernoulliLoss>(0.5));
    net.add_link(a, b, spec);
    EXPECT_EQ(net.metrics().value("network.respec_loss_resets"), 1u);
    EXPECT_FALSE(net.link(a, b)->has_loss_model());

    // Both directions armed: one respec counts two resets.
    net.set_loss(a, b, std::make_unique<BernoulliLoss>(0.5));
    net.set_loss(b, a, std::make_unique<BernoulliLoss>(0.5));
    net.add_link(a, b, spec);
    EXPECT_EQ(net.metrics().value("network.respec_loss_resets"), 3u);
}

// --- SimHost timer-closure packing ----------------------------------------

struct BigArgCore final : CoreBase {
    TimerId fired{};
    int fires = 0;
    Actions start(TimePoint now) override {
        Actions actions;
        // arg does not fit in 32 bits: must take the fat-closure fallback.
        actions.push_back(
            StartTimer{{TimerKind::kIdle, std::uint64_t{1} << 40}, now + millis(10)});
        return actions;
    }
    Actions on_packet(TimePoint, const Packet&) override { return {}; }
    Actions on_timer(TimePoint, TimerId id) override {
        fired = id;
        ++fires;
        return {};
    }
};

TEST(TimerPacking, OversizedArgSurvivesFatPath) {
    Simulator simulator;
    Network net{simulator, 1};
    const NodeId node = net.add_node(SiteId{1});
    SimHost& host = net.attach_host(node);
    auto core = std::make_unique<BigArgCore>();
    BigArgCore* raw = core.get();
    host.protocol().add_core(std::move(core));
    host.protocol().start(simulator.now());
    simulator.run_for(secs(1.0));
    EXPECT_EQ(raw->fires, 1);
    EXPECT_EQ(raw->fired.kind, TimerKind::kIdle);
    EXPECT_EQ(raw->fired.arg, std::uint64_t{1} << 40);
}

// --- SimHost lazy timer re-arm --------------------------------------------

/// Records every timer the host hands it; arms nothing itself.
struct ProbeCore final : CoreBase {
    std::vector<std::pair<TimePoint, TimerId>> fired;
    Actions start(TimePoint) override { return {}; }
    Actions on_packet(TimePoint, const Packet&) override { return {}; }
    Actions on_timer(TimePoint now, TimerId id) override {
        fired.emplace_back(now, id);
        return {};
    }
};

/// One host carrying a ProbeCore.  arm()/cancel() go through the host's
/// TimerService exactly as a core's StartTimer/CancelTimer actions do.
struct ProbeHost {
    Simulator simulator;
    Network net{simulator, 1};
    SimHost* host = nullptr;
    ProbeCore* core = nullptr;

    ProbeHost() {
        host = &net.attach_host(net.add_node(SiteId{1}));
        auto owned = std::make_unique<ProbeCore>();
        core = owned.get();
        host->protocol().add_core(std::move(owned));
        host->protocol().start(simulator.now());
    }
    void arm(TimerId id, TimePoint deadline) {
        Actions actions;
        actions.push_back(StartTimer{id, deadline});
        host->protocol().inject(simulator.now(), *core, std::move(actions));
    }
    void cancel(TimerId id) {
        Actions actions;
        actions.push_back(CancelTimer{id});
        host->protocol().inject(simulator.now(), *core, std::move(actions));
    }
};

/// Packed closure (arg < 2^32) and the fat fallback (arg >= 2^32).
constexpr std::uint64_t kTimerArgs[] = {7, std::uint64_t{1} << 40};

TEST(LazyRearm, LaterRearmsFireOnceAtLastDeadline) {
    for (const std::uint64_t arg : kTimerArgs) {
        SCOPED_TRACE(arg);
        ProbeHost p;
        const TimerId id{TimerKind::kIdle, arg};
        const std::uint64_t scheduled_before = p.simulator.events_scheduled();
        p.arm(id, at(1.0));
        // 10,000 moves later, made while the clock runs (as live packets
        // re-arm an idle watchdog), all before the queued event is due.
        TimePoint last{};
        for (int i = 1; i <= 10'000; ++i) {
            p.simulator.run_until(at(i * 50e-6));
            last = at(1.0) + micros(i);
            p.arm(id, last);
        }
        EXPECT_LE(p.simulator.events_scheduled() - scheduled_before, 2u);
        EXPECT_LE(p.simulator.slab_slots(), 4u);
        p.simulator.run_for(secs(2.0));
        ASSERT_EQ(p.core->fired.size(), 1u);
        EXPECT_EQ(p.core->fired[0].first, last);
        EXPECT_EQ(p.core->fired[0].second, id);
        // The early firing re-queued itself once; nothing else was queued.
        EXPECT_EQ(p.simulator.events_scheduled() - scheduled_before, 2u);
        EXPECT_LE(p.simulator.slab_slots(), 4u);
    }
}

TEST(LazyRearm, EarlierRearmFiresAtEarlierDeadline) {
    for (const std::uint64_t arg : kTimerArgs) {
        SCOPED_TRACE(arg);
        const TimerId id{TimerKind::kNackRetry, arg};
        {
            // Moved later, then earlier than the queued event: fires early.
            ProbeHost p;
            p.arm(id, at(0.5));
            p.arm(id, at(0.8));
            p.arm(id, at(0.2));
            p.simulator.run_for(secs(2.0));
            ASSERT_EQ(p.core->fired.size(), 1u);
            EXPECT_EQ(p.core->fired[0].first, at(0.2));
        }
        {
            // Moved later, then back between the queued event and the
            // later deadline: fires at the final deadline.
            ProbeHost p;
            p.arm(id, at(0.5));
            p.arm(id, at(0.8));
            p.arm(id, at(0.6));
            p.simulator.run_for(secs(2.0));
            ASSERT_EQ(p.core->fired.size(), 1u);
            EXPECT_EQ(p.core->fired[0].first, at(0.6));
        }
        {
            // Earlier than the re-queued event after an early firing.
            ProbeHost p;
            p.arm(id, at(0.5));
            p.arm(id, at(0.9));
            p.simulator.run_until(at(0.6));  // fired early, re-queued at 0.9
            EXPECT_TRUE(p.core->fired.empty());
            p.arm(id, at(0.7));
            p.simulator.run_for(secs(2.0));
            ASSERT_EQ(p.core->fired.size(), 1u);
            EXPECT_EQ(p.core->fired[0].first, at(0.7));
        }
    }
}

TEST(LazyRearm, CancelAfterLazyMoveNeverReachesCore) {
    for (const std::uint64_t arg : kTimerArgs) {
        SCOPED_TRACE(arg);
        const TimerId id{TimerKind::kRetxLinger, arg};
        {
            // Cancelled while the original event is still queued.
            ProbeHost p;
            p.arm(id, at(0.5));
            p.arm(id, at(0.8));
            p.cancel(id);
            p.simulator.run_for(secs(2.0));
            EXPECT_TRUE(p.core->fired.empty());
        }
        {
            // Cancelled after the early firing re-queued it.
            ProbeHost p;
            p.arm(id, at(0.5));
            p.arm(id, at(0.8));
            p.simulator.run_until(at(0.6));
            p.cancel(id);
            p.simulator.run_for(secs(2.0));
            EXPECT_TRUE(p.core->fired.empty());
            // The key is free again: a fresh arm fires normally.
            p.arm(id, p.simulator.now() + millis(10));
            p.simulator.run_for(secs(1.0));
            EXPECT_EQ(p.core->fired.size(), 1u);
        }
    }
}

// --- shared payload buffers -------------------------------------------------

TEST(SharedPayload, EveryHolderOfAnUpdateSharesOneBuffer) {
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 4;
    DisScenario scenario{config};
    const DisTopology& topo = scenario.topology();
    // Site 1's feed misses seq 2: its secondary fetches it from the primary
    // and repairs the site, so repaired copies are checked too.
    scenario.network().set_loss(
        topo.backbone, topo.sites[1].router,
        std::make_unique<BurstSchedule>(
            std::vector<BurstSchedule::Window>{{at(0.1), at(0.2)}}));

    scenario.start();
    std::map<SeqNum, const std::uint8_t*> buffer;  // seq -> the source's bytes
    for (std::uint32_t i = 1; i <= 3; ++i) {
        scenario.run_until(at(0.001 + 0.1 * (i - 1)));
        scenario.send_update(std::size_t{200});
        const LogStore::Entry* entry = scenario.sender().retained().find(SeqNum{i});
        ASSERT_NE(entry, nullptr);
        buffer[SeqNum{i}] = entry->payload.data();
    }
    scenario.run_until(at(3.0));

    ASSERT_EQ(scenario.deliveries().size(), 3u * 3 * 4);
    std::size_t recovered = 0;
    for (const auto& rec : scenario.deliveries()) {
        EXPECT_EQ(rec.payload.data(), buffer[rec.seq]) << "seq " << rec.seq.value();
        if (rec.recovered) ++recovered;
    }
    EXPECT_EQ(recovered, 4u);
    for (const auto& [seq, bytes] : buffer) {
        const LogStore::Entry* primary = scenario.primary_logger().store().find(seq);
        ASSERT_NE(primary, nullptr);
        EXPECT_EQ(primary->payload.data(), bytes);
        for (std::size_t site = 0; site < topo.sites.size(); ++site) {
            const LogStore::Entry* entry = scenario.secondary_logger(site).store().find(seq);
            ASSERT_NE(entry, nullptr);
            EXPECT_EQ(entry->payload.data(), bytes) << "site " << site;
        }
    }
}

// --- SimHost timer table capacity -------------------------------------------

TEST(TimerTable, HostHoldsMoreThan32768ArmedTimers) {
    // One host arms 33,000 distinct timers: the table grows past 2^15
    // entries, and every timer fires exactly once, at its own deadline.
    // Timer 0 fires first, then the rest from the last armed down, so each
    // firing finds its entry at the front of the table (erase is
    // swap-with-back) and the test stays fast under sanitizers.
    ProbeHost p;
    constexpr std::uint64_t kTimers = 33'000;
    const auto deadline = [](std::uint64_t seq) {
        return at(0.5) + micros(seq == 0 ? 0 : static_cast<std::int64_t>(kTimers - seq));
    };
    Actions actions;
    for (std::uint64_t seq = 0; seq < kTimers; ++seq)
        actions.push_back(StartTimer{{TimerKind::kAckWait, seq}, deadline(seq)});
    p.host->protocol().inject(p.simulator.now(), *p.core, std::move(actions));
    p.simulator.run_for(secs(1.0));
    ASSERT_EQ(p.core->fired.size(), kTimers);
    std::vector<int> fires(kTimers, 0);
    for (const auto& [when, id] : p.core->fired) {
        ASSERT_EQ(id.kind, TimerKind::kAckWait);
        ASSERT_LT(id.arg, kTimers);
        EXPECT_EQ(when, deadline(id.arg));
        ++fires[id.arg];
    }
    EXPECT_EQ(std::count(fires.begin(), fires.end(), 1), static_cast<long>(kTimers));
}

}  // namespace
}  // namespace lbrm::sim
