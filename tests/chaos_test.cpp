// Chaos & failover suite (sim/chaos.hpp; DESIGN.md "Chaos suite").
//
// The protocol's headline claim is *receiver reliability*: no subscribed
// receiver may permanently lose a packet, no matter what the log hierarchy
// and the network do underneath (Section 2.2).  These tests script the
// faults the paper worries about -- correlated site blackouts, primary
// crashes and failover storms (2.2.3), partition-and-rejoin with group
// re-estimation (2.3.3), crash-on-receive / send-and-crash, and logger
// rotation under churn (2.2.1) -- and pin three properties:
//   * lost_forever == 0 once every fault heals and the run drains,
//   * fault-free runs are bit-identical with the chaos layer idle
//     (packet-trace hash + full observation trace), and
//   * the failover edge cases (stale PromoteReply, retry racing failover,
//     candidate exhaustion) resolve cleanly instead of double-promoting or
//     stalling silently.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "runtime/protocol_host.hpp"
#include "sim/chaos.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

using lbrm::test::at;
using lbrm::test::count_sent;
using lbrm::test::find_timer;
using lbrm::test::notices;
using lbrm::test::payload;
using lbrm::test::sent_of_type;

// --- sender failover edge cases (unit) -------------------------------------

constexpr NodeId kSource{1};
constexpr NodeId kPrimary{2};
constexpr NodeId kReplicaA{3};
constexpr NodeId kReplicaB{4};
constexpr GroupId kGroup{5};

SenderConfig failover_config() {
    SenderConfig c;
    c.self = kSource;
    c.group = kGroup;
    c.primary_logger = kPrimary;
    c.replicas = {kReplicaA, kReplicaB};
    c.stat_ack.enabled = false;
    c.log_store_retry = millis(50);
    c.log_store_max_retries = 3;
    return c;
}

Packet from(NodeId sender, Body body) {
    return Packet{Header{kGroup, kSource, sender}, std::move(body)};
}

/// Exhaust the LogStore retry budget so the sender enters failover; returns
/// the actions of the transition (PromoteRequest to replica A) and leaves
/// `t` just past the last retry.
Actions drive_into_failover(SenderCore& sender, TimePoint& t) {
    Actions last;
    for (std::uint32_t i = 0; i <= failover_config().log_store_max_retries; ++i) {
        last = sender.on_timer(t, {TimerKind::kLogStoreRetry, 0});
        t = t + millis(50);
    }
    return last;
}

TEST(SenderFailover, LogStoreRetryDuringFailoverIsInert) {
    // A send() that races the failover arms a fresh kLogStoreRetry timer.
    // When it fires mid-failover it must not restart the promotion chain
    // (double promotion); the failover round owns recovery until it ends.
    SenderCore sender{failover_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));
    TimePoint t = at(1.05);
    auto entered = drive_into_failover(sender, t);
    ASSERT_EQ(count_sent(entered, PacketType::kPromoteRequest), 1u);

    sender.send(t, payload(16));  // races the in-flight failover
    auto stray = sender.on_timer(t + millis(50), {TimerKind::kLogStoreRetry, 0});
    EXPECT_EQ(count_sent(stray, PacketType::kPromoteRequest), 0u);
    EXPECT_EQ(count_sent(stray, PacketType::kLogStore), 0u);
    EXPECT_TRUE(stray.empty());

    // The original candidate still wins, exactly once.
    auto replay = sender.on_packet(t + millis(60),
                                   from(kReplicaA, PromoteReplyBody{SeqNum{0}, true}));
    EXPECT_EQ(sender.current_primary(), kReplicaA);
    EXPECT_EQ(notices(replay, NoticeKind::kPrimaryFailover).size(), 1u);
}

TEST(SenderFailover, StalePromoteReplyAfterCandidateAdvanceIgnored) {
    SenderCore sender{failover_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));
    TimePoint t = at(1.05);
    auto entered = drive_into_failover(sender, t);

    // Replica A stays silent; the kFailover timer advances to replica B.
    auto timer = find_timer(entered, TimerKind::kFailover);
    ASSERT_TRUE(timer.has_value());
    auto next = sender.on_timer(timer->deadline, timer->id);
    ASSERT_EQ(sent_of_type(next, PacketType::kPromoteRequest)[0].to, kReplicaB);

    // A's reply limps in late: it is no longer the candidate and must be
    // ignored cleanly -- no primary switch, no replay, no notice.
    auto stale = sender.on_packet(timer->deadline + millis(1),
                                  from(kReplicaA, PromoteReplyBody{SeqNum{0}, true}));
    EXPECT_TRUE(stale.empty());
    EXPECT_NE(sender.current_primary(), kReplicaA);

    // B's acceptance still lands normally.
    auto won = sender.on_packet(timer->deadline + millis(2),
                                from(kReplicaB, PromoteReplyBody{SeqNum{0}, true}));
    EXPECT_EQ(sender.current_primary(), kReplicaB);
    EXPECT_EQ(notices(won, NoticeKind::kPrimaryFailover).size(), 1u);
}

TEST(SenderFailover, ExhaustionFallsBackToSelfPrimaryLoudly) {
    SenderCore sender{failover_config()};
    obs::Metrics metrics;
    sender.bind_metrics(metrics.protocol());
    sender.start(at(0.0));
    sender.send(at(1.0), payload(64, 7));
    TimePoint t = at(1.05);
    auto entered = drive_into_failover(sender, t);

    // Both replicas stay silent: two kFailover timeouts exhaust the list.
    auto timer = find_timer(entered, TimerKind::kFailover);
    ASSERT_TRUE(timer.has_value());
    auto second = sender.on_timer(timer->deadline, timer->id);
    timer = find_timer(second, TimerKind::kFailover);
    ASSERT_TRUE(timer.has_value());
    auto terminal = sender.on_timer(timer->deadline, timer->id);

    // Terminal: a loud notice pair instead of a silent stall.
    const auto exhausted = notices(terminal, NoticeKind::kFailoverExhausted);
    ASSERT_EQ(exhausted.size(), 1u);
    EXPECT_EQ(exhausted[0].arg, 2u);  // replicas tried
    const auto promoted = notices(terminal, NoticeKind::kPrimaryFailover);
    ASSERT_EQ(promoted.size(), 1u);
    EXPECT_EQ(promoted[0].arg, kSource.value());
    EXPECT_TRUE(sender.is_self_primary());
    EXPECT_EQ(metrics.value("proto.sender.failover_exhausted"), 1u);

    // The retained buffer keeps serving recovery directly.
    auto nack = sender.on_packet(t, from(NodeId{9}, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(nack, PacketType::kRetransmission), 1u);
}

TEST(SenderFailover, PromoteReplyAfterExhaustionIgnored) {
    SenderCore sender{failover_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));
    TimePoint t = at(1.05);
    auto entered = drive_into_failover(sender, t);
    auto timer = find_timer(entered, TimerKind::kFailover);
    auto second = sender.on_timer(timer->deadline, timer->id);
    timer = find_timer(second, TimerKind::kFailover);
    sender.on_timer(timer->deadline, timer->id);  // exhaustion: self-primary
    ASSERT_TRUE(sender.is_self_primary());

    // A replica's acceptance arriving after the round closed must not
    // resurrect the failover.
    auto ghost = sender.on_packet(timer->deadline + millis(5),
                                  from(kReplicaB, PromoteReplyBody{SeqNum{0}, true}));
    EXPECT_TRUE(ghost.empty());
    EXPECT_TRUE(sender.is_self_primary());
}

// --- dormant sweep vs reentrant wake (unit) --------------------------------

class SinkNetwork final : public NetworkService {
public:
    void send_unicast(NodeId, const Packet&) override {}
    void send_multicast(const Packet&, McastScope) override {}
    void join_group(GroupId) override {}
    void leave_group(GroupId) override {}
};

class SinkTimers final : public TimerService {
public:
    void arm(std::uint32_t, TimerId, TimePoint) override {}
    void cancel(std::uint32_t, TimerId) override {}
};

TEST(DormantSweep, ReentrantWakeDuringSweepNeitherSkipsNorDoubles) {
    // A sweep notice handler that wakes *another* dormant record mid-sweep
    // changes the table being walked.  The sweep must still visit every
    // record present at entry exactly once and skip the one the handler
    // woke (it is no longer dormant, so the sweep no longer owns its
    // watchdog).
    SinkNetwork net;
    SinkTimers timers;
    ProtocolHost host{net, timers};
    std::vector<std::pair<std::uint32_t, NoticeKind>> seen;

    auto tmpl = std::make_shared<ProtocolHost::DormantReceiverTemplate>();
    tmpl->config.group = kGroup;
    tmpl->config.source = kSource;
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_notice = [&host, &seen](TimePoint, NodeId self, const Notice& n) {
        seen.emplace_back(self.value(), n.kind);
        if (self == NodeId{11}) {
            ASSERT_NE(host.receiver_for(NodeId{13}), nullptr);  // reentrant wake
        }
    };
    tmpl->handlers = handlers;

    for (std::uint32_t node = 10; node <= 13; ++node)
        host.add_dormant_receiver(tmpl, NodeId{node}, kPrimary);
    host.start(at(0.0));
    ASSERT_EQ(host.dormant_count(), 4u);

    host.fire_dormant_watchdogs(at(10.0));  // far past every idle deadline

    // 13 woke while 11's notice ran: it keeps its freshness (a live core now
    // owns its watchdog); 10, 11, 12 each lost freshness exactly once.
    const std::vector<std::pair<std::uint32_t, NoticeKind>> expected = {
        {10, NoticeKind::kFreshnessLost},
        {11, NoticeKind::kFreshnessLost},
        {12, NoticeKind::kFreshnessLost},
    };
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(host.dormant_count(), 3u);
    EXPECT_EQ(host.dormant_wakes(), 1u);

    // A second sweep is a no-op: nothing fires twice.
    host.fire_dormant_watchdogs(at(20.0));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(DormantSweep, ReentrantWakeOfAHostlessReceiverNeitherSkipsNorDoubles) {
    // The scenario twin: dormant receivers hold no host, and the network's
    // one sweep walks their bits.  A notice handler that wakes a later,
    // host-less receiver mid-sweep attaches its host; the sweep must skip
    // it (its live core now owns the watchdog, which fires at once, since
    // the deadline has come) and fire every other receiver exactly once.
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 3;
    config.dormant_receivers = true;
    DisScenario scenario{config};
    const DisTopology& topo = scenario.topology();
    for (const auto& site : topo.sites)  // no packet wakes anyone before the sweep
        scenario.network().set_loss(topo.backbone, site.router,
                                    std::make_unique<BernoulliLoss>(1.0));
    const NodeId first = topo.sites[0].receivers[0];
    const NodeId woken = topo.sites[2].receivers[1];
    struct Waker final : ScenarioObserver {
        DisScenario* scenario = nullptr;
        NodeId from, target;
        void on_notice(TimePoint, NodeId node, const Notice& n) override {
            if (node == from && n.kind == NoticeKind::kFreshnessLost) {
                EXPECT_TRUE(scenario->receiver(target).fresh());  // reentrant wake
            }
        }
    } waker;
    waker.scenario = &scenario;
    waker.from = first;
    waker.target = woken;
    scenario.add_observer(&waker);
    ASSERT_EQ(scenario.network().host(woken), nullptr);  // host-less until its wake
    scenario.start();
    scenario.run_for(secs(1.0));
    scenario.remove_observer(&waker);

    std::vector<std::uint32_t> expected;
    for (const auto& site : topo.sites)
        for (NodeId n : site.receivers)
            if (n != woken) expected.push_back(n.value());
    expected.push_back(woken.value());  // its own watchdog, after the sweep
    std::vector<std::uint32_t> fired;
    TimePoint first_at{};
    for (const auto& n : scenario.notices()) {
        if (n.kind != NoticeKind::kFreshnessLost) continue;
        if (fired.empty()) first_at = n.at;
        EXPECT_EQ(n.at, first_at);  // all at the one deadline
        fired.push_back(n.node.value());
    }
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(scenario.dormant_receiver_count(), 8u);
    ASSERT_NE(scenario.network().host(woken), nullptr);
    EXPECT_EQ(scenario.network().host(woken)->protocol().dormant_wakes(), 1u);
    EXPECT_FALSE(scenario.receiver(woken).fresh());
}

// --- schedule generation (unit) --------------------------------------------

TEST(ChaosSchedule, CorrelatedBlackoutsAreSeedDeterministicAndBounded) {
    const auto generate = [](std::uint64_t seed) {
        Rng rng{seed};
        return ChaosSchedule::correlated_blackouts(rng, 8, 12, secs(5.0),
                                                   millis(100), millis(800));
    };
    const ChaosSchedule a = generate(42);
    const ChaosSchedule b = generate(42);
    ASSERT_EQ(a.events.size(), 12u);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const auto& ea = std::get<SiteBlackout>(a.events[i]);
        const auto& eb = std::get<SiteBlackout>(b.events[i]);
        EXPECT_EQ(ea.site, eb.site);
        EXPECT_EQ(ea.at, eb.at);
        EXPECT_EQ(ea.duration, eb.duration);
        EXPECT_LT(ea.site, 8u);
        EXPECT_GE(ea.at, Duration::zero());
        EXPECT_LE(ea.at, secs(5.0));
        EXPECT_GE(ea.duration, millis(100));
        EXPECT_LE(ea.duration, millis(800));
    }
}

TEST(ChaosEngine, ArmTwiceThrows) {
    DisScenario scenario{ScenarioConfig{}};
    ChaosEngine engine{scenario, ChaosSchedule{}};
    engine.arm();
    EXPECT_THROW(engine.arm(), std::logic_error);
}

// --- scenario A/B harness ---------------------------------------------------

struct Trace {
    std::vector<std::tuple<std::uint64_t, std::uint32_t, TimePoint, bool>> deliveries;
    std::vector<std::tuple<std::uint64_t, NoticeKind, TimePoint>> notices;
    std::uint64_t nacks_sent = 0;
    std::uint64_t recovered = 0;
    std::uint64_t packet_hash = 0;  ///< FNV-1a over every link transmission

    friend bool operator==(const Trace& a, const Trace& b) = default;
};

/// Human-readable first divergence between two traces (failure diagnostics:
/// the byte dump gtest prints for tuple vectors is useless).
std::string first_difference(const Trace& a, const Trace& b) {
    std::ostringstream out;
    const auto when = [](TimePoint t) { return to_seconds(t.time_since_epoch()); };
    if (a.deliveries != b.deliveries) {
        const std::size_t n = std::min(a.deliveries.size(), b.deliveries.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (a.deliveries[i] == b.deliveries[i]) continue;
            const auto& [an, as, aat, ar] = a.deliveries[i];
            const auto& [bn, bs, bat, br] = b.deliveries[i];
            out << "deliveries[" << i << "]: node " << an << " seq " << as
                << " at " << when(aat) << " rec " << ar << "  vs  node " << bn
                << " seq " << bs << " at " << when(bat) << " rec " << br;
            return out.str();
        }
        out << "delivery counts " << a.deliveries.size() << " vs "
            << b.deliveries.size();
        return out.str();
    }
    if (a.notices != b.notices) {
        const std::size_t n = std::min(a.notices.size(), b.notices.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (a.notices[i] == b.notices[i]) continue;
            const auto& [an, ak, aat] = a.notices[i];
            const auto& [bn, bk, bat] = b.notices[i];
            out << "notices[" << i << "]: node " << an << " kind "
                << static_cast<int>(ak) << " at " << when(aat) << "  vs  node "
                << bn << " kind " << static_cast<int>(bk) << " at " << when(bat);
            return out.str();
        }
        out << "notice counts " << a.notices.size() << " vs " << b.notices.size();
        return out.str();
    }
    out << "nacks " << a.nacks_sent << "/" << b.nacks_sent << " recovered "
        << a.recovered << "/" << b.recovered << " hash " << a.packet_hash << "/"
        << b.packet_hash;
    return out.str();
}

ScenarioConfig chaos_config() {
    ScenarioConfig config;
    config.topology.sites = 4;
    config.topology.receivers_per_site = 4;
    config.topology.replicas = 2;
    config.seed = 77;
    return config;
}

void hash_packets(DisScenario& scenario, Fnv1a& hash) {
    scenario.network().set_tap([&hash](TimePoint at, const Link& link,
                                       const Packet& packet, bool delivered) {
        hash.feed_value(at.time_since_epoch().count());
        hash.feed_value(link.from().value());
        hash.feed_value(link.to().value());
        hash.feed_value(static_cast<std::uint8_t>(delivered));
        const std::vector<std::uint8_t> bytes = encode(packet);
        hash.feed(bytes.data(), bytes.size());
    });
}

Trace collect(DisScenario& scenario, const Fnv1a& hash) {
    Trace out;
    for (const auto& d : scenario.deliveries())
        out.deliveries.emplace_back(d.node.value(), d.seq.value(), d.at, d.recovered);
    for (const auto& n : scenario.notices())
        out.notices.emplace_back(n.node.value(), n.kind, n.at);
    out.nacks_sent = scenario.metrics().value("proto.receiver.nacks_sent");
    out.recovered = scenario.metrics().value("recovery.episodes_repaired");
    out.packet_hash = hash.h;
    return out;
}

/// Idle second (watchdogs fire), four bursts through the lossy phase, then a
/// long drain so every recovery completes.
void standard_traffic(DisScenario& scenario) {
    scenario.run_for(secs(1.2));
    for (int burst = 0; burst < 4; ++burst) {
        for (int i = 0; i < 6; ++i) scenario.send_update(std::size_t{200});
        scenario.run_for(millis(250));
    }
    scenario.run_for(secs(6.0));
}

/// Full chaos run: lossy tail on site 1, optional fault schedule, standard
/// traffic.  `engine_out` (optional) receives the engine for log inspection.
Trace run_chaos(ScenarioConfig config, const ChaosSchedule* schedule) {
    DisScenario scenario{std::move(config)};
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<BernoulliLoss>(0.25));
    Fnv1a hash;
    hash_packets(scenario, hash);

    std::unique_ptr<ChaosEngine> engine;
    if (schedule != nullptr) {
        engine = std::make_unique<ChaosEngine>(scenario, *schedule);
    }
    scenario.start();
    if (engine) engine->arm();
    standard_traffic(scenario);
    return collect(scenario, hash);
}

// --- idle-engine bit-identity ------------------------------------------------

TEST(ChaosIdle, ArmedEmptyScheduleIsBitIdenticalToNoEngine) {
    const Trace bare = run_chaos(chaos_config(), nullptr);
    const ChaosSchedule empty;
    const Trace idle = run_chaos(chaos_config(), &empty);
    EXPECT_EQ(bare, idle);
    EXPECT_FALSE(bare.deliveries.empty());
    EXPECT_GT(bare.nacks_sent, 0u);  // the loss model actually bit
}

TEST(ChaosIdle, IdleEngineTouchesNoCounters) {
    DisScenario scenario{chaos_config()};
    ChaosEngine engine{scenario, ChaosSchedule{}};
    scenario.start();
    engine.arm();
    scenario.send_update(std::size_t{200});
    scenario.run_for(secs(2.0));
    EXPECT_EQ(engine.faults_applied(), 0u);
    EXPECT_EQ(engine.revivals(), 0u);
    EXPECT_TRUE(engine.log().empty());
    EXPECT_EQ(scenario.metrics().value("chaos.site_blackouts"), 0u);
    EXPECT_EQ(scenario.metrics().value("chaos.refinalizes"), 0u);
}

// --- deterministic replay ----------------------------------------------------

TEST(ChaosEngine, ScriptedRunReplaysBitIdentically) {
    ChaosSchedule schedule;
    schedule.events.push_back(SiteBlackout{2, secs(1.4), millis(600)});
    schedule.events.push_back(PrimaryCrash{secs(1.5), secs(2.0)});
    const Trace first = run_chaos(chaos_config(), &schedule);
    const Trace second = run_chaos(chaos_config(), &schedule);
    EXPECT_EQ(first, second);
}

TEST(ChaosEngine, ScheduleGenerationNeverPerturbsTheRun) {
    // correlated_blackouts consumes only the Rng it is handed; generating a
    // (discarded) schedule mid-run must not shift a single packet outcome.
    ChaosSchedule schedule;
    schedule.events.push_back(SiteBlackout{2, secs(1.4), millis(600)});

    const Trace plain = run_chaos(chaos_config(), &schedule);

    DisScenario scenario{chaos_config()};
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<BernoulliLoss>(0.25));
    Fnv1a hash;
    hash_packets(scenario, hash);
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    scenario.run_for(secs(1.2));
    Rng side_stream{991};
    const ChaosSchedule discarded = ChaosSchedule::correlated_blackouts(
        side_stream, 4, 20, secs(3.0), millis(50), millis(500));
    ASSERT_EQ(discarded.events.size(), 20u);
    for (int burst = 0; burst < 4; ++burst) {
        for (int i = 0; i < 6; ++i) scenario.send_update(std::size_t{200});
        scenario.run_for(millis(250));
    }
    scenario.run_for(secs(6.0));
    EXPECT_EQ(collect(scenario, hash), plain);
}

// --- fault classes end to end ------------------------------------------------

TEST(ChaosBlackout, SiteBlackoutHealsWithNothingLostForever) {
    ChaosSchedule schedule;
    schedule.events.push_back(SiteBlackout{2, secs(1.3), millis(700)});

    DisScenario scenario{chaos_config()};
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    standard_traffic(scenario);  // bursts at 1.2s..2.2s straddle the outage

    EXPECT_EQ(engine.faults_applied(), 1u);
    EXPECT_EQ(engine.revivals(), 1u);
    EXPECT_EQ(scenario.metrics().value("chaos.site_blackouts"), 1u);
    EXPECT_EQ(scenario.metrics().value("chaos.revivals"), 1u);
    EXPECT_EQ(scenario.metrics().value("chaos.refinalizes"), 2u);
    ASSERT_EQ(engine.windows().size(), 1u);

    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_GT(audit.expected, 0u);
    EXPECT_EQ(audit.lost_forever, 0u);
    // Blacked-out receivers closed their gaps through recovery, not luck.
    EXPECT_GT(scenario.metrics().value("recovery.episodes_repaired"), 0u);

    const RecoveryStats stats =
        settle_latency(scenario, TimePoint{}, scenario.simulator().now());
    EXPECT_GT(stats.samples, 0u);
    EXPECT_GE(stats.p99_s, stats.p50_s);
    EXPECT_GE(stats.max_s, stats.p99_s);
}

TEST(ChaosPartition, PartitionAndRejoinReestimatesGroupSize) {
    ScenarioConfig config = chaos_config();
    config.topology.sites = 8;
    config.topology.receivers_per_site = 3;
    config.stat_ack.enabled = true;
    config.stat_ack.k = 5;
    config.stat_ack.initial_probe_p = 0.2;
    config.stat_ack.probe_repeats = 2;
    config.stat_ack.probe_target_replies = 3;
    config.stat_ack.epoch_interval = secs(2.0);

    ChaosSchedule schedule;
    schedule.events.push_back(SitePartition{1, secs(6.0), secs(4.0)});

    DisScenario scenario{config};
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();

    // Warm up: probing converges on the acker population.
    scenario.run_for(secs(5.0));
    const double pre = scenario.sender().stat_ack().n_sl();
    ASSERT_GT(pre, 0.0);

    // Steady sends through partition (6s..10s) and past the rejoin.
    for (int i = 0; i < 40; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(250));
    }
    scenario.run_for(secs(8.0));  // drain: rejoined site recovers everything

    EXPECT_EQ(scenario.metrics().value("chaos.partitions"), 1u);
    EXPECT_EQ(engine.revivals(), 1u);
    // Partition isolates the site's hosts without killing them; the source
    // never loses its primary in this fault class.
    EXPECT_EQ(scenario.notice_count(NoticeKind::kPrimaryFailover), 0u);

    // Group-size re-estimation reconverged after the rejoin.
    const double post = scenario.sender().stat_ack().n_sl();
    EXPECT_GT(post, 0.5 * pre);
    EXPECT_LT(post, 2.0 * pre);

    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_GT(audit.expected, 0u);
    EXPECT_EQ(audit.lost_forever, 0u);
}

TEST(ChaosFailover, StormPromotesExactlyOncePerPromotion) {
    // The primary and the first replica die together; the failover chain
    // must walk past the dead candidate and promote replicas[1] with exactly
    // one kPrimaryFailover -- no double promotion from retries racing the
    // round (the sender.cpp guard this PR adds).
    ScenarioConfig config = chaos_config();
    ChaosSchedule schedule;
    schedule.events.push_back(PrimaryCrash{millis(1400), secs(4.0)});
    schedule.events.push_back(ReplicaCrash{0, millis(1400), Duration::zero()});

    DisScenario scenario{config};
    // Loss on two receiver LAN drops: recovery keeps running against the
    // site secondaries while the log hierarchy is mid-failover.
    const auto& site2 = scenario.topology().sites[2];
    scenario.network().set_loss(site2.router, site2.receivers[0],
                                std::make_unique<BernoulliLoss>(0.25));
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    standard_traffic(scenario);

    EXPECT_EQ(scenario.metrics().value("chaos.primary_crashes"), 1u);
    EXPECT_EQ(scenario.metrics().value("chaos.replica_crashes"), 1u);
    EXPECT_EQ(scenario.notice_count(NoticeKind::kFailoverExhausted), 0u);
    const NodeId promoted = scenario.topology().replicas[1];
    EXPECT_EQ(scenario.sender().current_primary(), promoted);

    // Exactly one promotion: the source announces the switch once and the
    // promoted replica announces its new role once -- nobody else, and
    // neither of them twice (the double-promotion shape the retry/failover
    // guard exists to prevent).
    std::map<std::uint32_t, int> failover_notices_by_node;
    for (const auto& n : scenario.notices())
        if (n.kind == NoticeKind::kPrimaryFailover)
            ++failover_notices_by_node[n.node.value()];
    const std::map<std::uint32_t, int> expected_failovers = {
        {scenario.topology().source.value(), 1},
        {promoted.value(), 1},
    };
    EXPECT_EQ(failover_notices_by_node, expected_failovers);

    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_GT(audit.expected, 0u);
    EXPECT_EQ(audit.lost_forever, 0u);
}

TEST(ChaosFailover, ExhaustionSurfacesTerminalNoticeAndSelfPrimary) {
    ScenarioConfig config = chaos_config();
    config.topology.replicas = 1;
    ChaosSchedule schedule;
    schedule.events.push_back(PrimaryCrash{millis(1400), Duration::zero()});
    schedule.events.push_back(ReplicaCrash{0, millis(1400), Duration::zero()});

    DisScenario scenario{config};
    const auto& site1 = scenario.topology().sites[1];
    scenario.network().set_loss(site1.router, site1.receivers[1],
                                std::make_unique<BernoulliLoss>(0.25));
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    standard_traffic(scenario);

    // The whole log hierarchy is gone: the source says so once, loudly, and
    // keeps the stream alive as its own primary.
    EXPECT_EQ(scenario.notice_count(NoticeKind::kFailoverExhausted), 1u);
    EXPECT_EQ(scenario.notice_count(NoticeKind::kPrimaryFailover), 1u);
    EXPECT_TRUE(scenario.sender().is_self_primary());
    EXPECT_EQ(scenario.metrics().value("proto.sender.failover_exhausted"), 1u);

    // Receiver reliability holds throughout: site secondaries hold the
    // multicast stream, so recovery never needed the dead loggers.
    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_GT(audit.expected, 0u);
    EXPECT_EQ(audit.lost_forever, 0u);
}

TEST(ChaosCrash, CrashOnReceiveRecoversEverythingAfterRevival) {
    ScenarioConfig config = chaos_config();
    DisScenario scenario{config};
    const NodeId victim = scenario.topology().sites[1].receivers[0];
    ChaosSchedule schedule;
    schedule.events.push_back(CrashOnReceive{victim, SeqNum{3}, millis(400)});

    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    for (int i = 0; i < 10; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(150));
    }
    scenario.run_for(secs(6.0));

    EXPECT_EQ(scenario.metrics().value("chaos.crash_on_receive"), 1u);
    EXPECT_EQ(engine.faults_applied(), 1u);
    EXPECT_EQ(engine.revivals(), 1u);
    ASSERT_EQ(engine.windows().size(), 1u);
    ASSERT_EQ(engine.log().size(), 2u);  // crash + revive

    // The victim delivered seq 3 (the crash fired *after* the delivery),
    // went dark, and closed every gap after waking.
    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_EQ(audit.lost_forever, 0u);
    bool victim_recovered = false;
    for (const auto& d : scenario.deliveries())
        if (d.node == victim && d.recovered) victim_recovered = true;
    EXPECT_TRUE(victim_recovered);
}

TEST(ChaosCrash, SendAndCrashKeepsStreamRecoverable) {
    ScenarioConfig config = chaos_config();
    DisScenario scenario{config};
    ChaosSchedule schedule;
    schedule.events.push_back(SendAndCrash{SeqNum{3}, millis(200)});

    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    // The app on the source host is down with it: no sends in the window.
    for (int i = 0; i < 3; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(100));
    }
    scenario.run_for(millis(500));  // crash window + revival
    for (int i = 0; i < 3; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(100));
    }
    scenario.run_for(secs(6.0));

    EXPECT_EQ(scenario.metrics().value("chaos.send_and_crash"), 1u);
    EXPECT_EQ(scenario.sends().size(), 6u);
    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_EQ(audit.expected, 6u * scenario.topology().all_receivers().size());
    EXPECT_EQ(audit.lost_forever, 0u);
}

TEST(ChaosRotation, BlackoutUnderLoggerRotationStaysReliable) {
    // Section 2.2.1 rotation: every receiver doubles as a site logger and
    // NACK targets rotate each slot.  A blackout kills the current rotation
    // targets along with everyone else at the site; after the heal the
    // rotated loggers must fetch what they missed from the primary before
    // they can serve their peers.
    ScenarioConfig config = chaos_config();
    config.site_logging = SiteLogging::kRotating;
    config.receiver_defaults.rotation_slot = secs(1.0);
    ChaosSchedule schedule;
    schedule.events.push_back(SiteBlackout{1, secs(1.3), millis(700)});

    DisScenario scenario{config};
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    standard_traffic(scenario);

    EXPECT_EQ(scenario.metrics().value("chaos.site_blackouts"), 1u);
    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_GT(audit.expected, 0u);
    EXPECT_EQ(audit.lost_forever, 0u);
}

// --- node-revival semantics (satellite regression) ---------------------------

TEST(NodeRevival, FlapBeforeTrafficMatchesNeverDownedRun) {
    // Down + revive + re-finalize with no traffic in between must restore
    // the exact routing (relaying, border liveness) of a never-downed
    // network: identical routing-table hash, identical packet trace.
    ScenarioConfig config = chaos_config();

    DisScenario plain{config};
    const std::uint64_t plain_routes = plain.network().routing_table_hash();
    Fnv1a plain_hash;
    hash_packets(plain, plain_hash);
    plain.start();
    standard_traffic(plain);
    const Trace plain_trace = collect(plain, plain_hash);

    DisScenario flapped{config};
    Network& net = flapped.network();
    const NodeId router = flapped.topology().sites[2].router;
    net.set_node_down(router, true);
    net.finalize();
    net.set_node_down(router, false);
    net.finalize();
    EXPECT_EQ(net.routing_table_hash(), plain_routes);
    Fnv1a flapped_hash;
    hash_packets(flapped, flapped_hash);
    flapped.start();
    standard_traffic(flapped);
    EXPECT_EQ(collect(flapped, flapped_hash), plain_trace);
}

TEST(NodeRevival, MidRunFlapRestoresDeliveryAndRecovery) {
    // Down a site router mid-stream (blackholing the site), revive it, and
    // re-finalize: relaying must resume and the site must recover every
    // packet it missed.
    DisScenario scenario{chaos_config()};
    Network& net = scenario.network();
    const NodeId router = scenario.topology().sites[1].router;
    scenario.start();
    scenario.run_for(millis(500));
    for (int i = 0; i < 4; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(100));
    }
    net.set_node_down(router, true);
    net.finalize();
    for (int i = 0; i < 4; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(100));
    }
    net.set_node_down(router, false);
    net.finalize();
    for (int i = 0; i < 4; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(100));
    }
    scenario.run_for(secs(6.0));

    const ReliabilityAudit audit = audit_reliability(scenario);
    EXPECT_EQ(audit.expected, 12u * scenario.topology().all_receivers().size());
    EXPECT_EQ(audit.lost_forever, 0u);
}

// --- dormant wake vs watchdog sweep under blackout (satellite) ---------------

Trace run_sweep_overlap(bool dormant) {
    // The dormant-watchdog sweep fires at the shared idle deadline
    // (~0.5s); the blackout [0.02s, 0.8s] straddles it and starts *before*
    // the sender's stat-ack probe (~0.04s), so site 1's receivers are still
    // dormant when the sweep runs while their site is dark, and their wakes
    // race revived traffic right after -- while everyone else was woken
    // early by a probe their core ignores (no watchdog re-arm from
    // on_packet).  Both sweep-fired and wake-armed watchdog paths are
    // exercised in one run.  Eager per-receiver watchdog timers and the
    // dormant sweep must tell the application the exact same story.
    ScenarioConfig config = chaos_config();
    config.dormant_receivers = dormant;
    ChaosSchedule schedule;
    schedule.events.push_back(SiteBlackout{1, millis(20), millis(780)});

    DisScenario scenario{config};
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[2].router,
                                std::make_unique<BernoulliLoss>(0.25));
    Fnv1a hash;
    hash_packets(scenario, hash);
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    engine.arm();
    standard_traffic(scenario);
    return collect(scenario, hash);
}

TEST(DormantChaos, BlackoutOverlappingSweepTickIsTraceIdentical) {
    const Trace eager = run_sweep_overlap(false);
    const Trace dormant = run_sweep_overlap(true);
    EXPECT_EQ(eager, dormant) << first_difference(eager, dormant);
    // The scenario exercised what it claims to: idle watchdogs fired and
    // packets were lost and recovered.
    std::size_t freshness_lost = 0;
    for (const auto& n : eager.notices)
        if (std::get<1>(n) == NoticeKind::kFreshnessLost) ++freshness_lost;
    EXPECT_GT(freshness_lost, 0u);
    EXPECT_GT(eager.recovered, 0u);
}

}  // namespace
}  // namespace lbrm::sim
