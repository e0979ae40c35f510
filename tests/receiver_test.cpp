// ReceiverCore unit tests: delivery, NACK generation/batching, retry and
// escalation through the logger hierarchy, freshness watchdog, discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::count_sent;
using test::deliveries;
using test::find_timer;
using test::payload;
using test::sent_of_type;

constexpr NodeId kSelf{10};
constexpr NodeId kSource{1};
constexpr NodeId kSecondary{2};
constexpr NodeId kPrimary{3};
constexpr GroupId kGroup{5};

ReceiverConfig base_config() {
    ReceiverConfig c;
    c.self = kSelf;
    c.group = kGroup;
    c.source = kSource;
    c.logger = kSecondary;
    c.fallback_logger = kPrimary;
    c.nack_delay_min = millis(5);
    c.nack_delay_max = millis(15);
    c.nack_retry = millis(200);
    c.nack_max_retries = 2;
    return c;
}

Packet data(SeqNum seq, std::uint8_t salt = 0) {
    return Packet{Header{kGroup, kSource, kSource}, DataBody{seq, EpochId{0}, payload(8, salt)}};
}

Packet heartbeat(SeqNum last, std::uint32_t index = 0) {
    return Packet{Header{kGroup, kSource, kSource}, HeartbeatBody{last, index}};
}

Packet retransmission(NodeId from, SeqNum seq) {
    return Packet{Header{kGroup, kSource, from},
                  RetransmissionBody{seq, EpochId{0}, false, payload(8)}};
}

TEST(Receiver, DeliversDataInArrivalOrder) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    auto a1 = r.on_packet(at(1.0), data(SeqNum{1}));
    auto a2 = r.on_packet(at(1.1), data(SeqNum{2}));
    ASSERT_EQ(deliveries(a1).size(), 1u);
    ASSERT_EQ(deliveries(a2).size(), 1u);
    EXPECT_EQ(deliveries(a1)[0].seq, SeqNum{1});
    EXPECT_FALSE(deliveries(a1)[0].recovered);
    EXPECT_EQ(r.delivered(), 2u);
}

TEST(Receiver, DuplicateDataNotRedelivered) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto again = r.on_packet(at(1.1), data(SeqNum{1}));
    EXPECT_TRUE(deliveries(again).empty());
    EXPECT_EQ(r.duplicates(), 1u);
}

TEST(Receiver, GapSchedulesDelayedNackToLocalLogger) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));

    // Loss notice plus a short randomized NACK delay (Appendix A).
    EXPECT_EQ(test::notices(gap, NoticeKind::kLossDetected).size(), 1u);
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    ASSERT_TRUE(delay.has_value());
    EXPECT_GE(delay->deadline, at(1.1) + millis(5));
    EXPECT_LE(delay->deadline, at(1.1) + millis(15));

    auto fired = r.on_timer(delay->deadline, delay->id);
    const auto nacks = sent_of_type(fired, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kSecondary);
    EXPECT_EQ(std::get<NackBody>(nacks[0].packet.body).missing,
              std::vector<SeqNum>{SeqNum{2}});
    EXPECT_EQ(r.nacks_sent(), 1u);
}

TEST(Receiver, NackBatchesMultipleMissing) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{5}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    auto fired = r.on_timer(delay->deadline, delay->id);
    const auto nacks = sent_of_type(fired, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(std::get<NackBody>(nacks[0].packet.body).missing.size(), 3u);  // 2,3,4
}

TEST(Receiver, ReorderedArrivalBeforeNackTimerSuppressesNack) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    // Packet 2 was merely reordered and arrives before the timer.
    auto fill = r.on_packet(at(1.105), data(SeqNum{2}));
    ASSERT_EQ(deliveries(fill).size(), 1u);
    EXPECT_TRUE(deliveries(fill)[0].recovered);  // arrived out of order, filled gap

    auto fired = r.on_timer(delay->deadline, delay->id);
    EXPECT_EQ(count_sent(fired, PacketType::kNack), 0u);
    EXPECT_EQ(r.nacks_sent(), 0u);
}

TEST(Receiver, HeartbeatRevealsLoss) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto hb = r.on_packet(at(1.3), heartbeat(SeqNum{2}));
    EXPECT_EQ(test::notices(hb, NoticeKind::kLossDetected).size(), 1u);
    EXPECT_TRUE(find_timer(hb, TimerKind::kNackDelay).has_value());
}

TEST(Receiver, RetransmissionFillsGapAndStopsRetry) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    r.on_timer(delay->deadline, delay->id);

    auto repair = r.on_packet(at(1.2), retransmission(kSecondary, SeqNum{2}));
    ASSERT_EQ(deliveries(repair).size(), 1u);
    EXPECT_TRUE(deliveries(repair)[0].recovered);
    EXPECT_TRUE(test::has_cancel(repair, TimerKind::kNackRetry));
    EXPECT_EQ(r.recovered(), 1u);
}

TEST(Receiver, RetryThenEscalateToFallback) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    auto first = r.on_timer(delay->deadline, delay->id);
    auto retry_timer = find_timer(first, TimerKind::kNackRetry);
    ASSERT_TRUE(retry_timer.has_value());

    // First retry goes to the same (secondary) logger.
    auto retry1 = r.on_timer(retry_timer->deadline, retry_timer->id);
    auto nacks = sent_of_type(retry1, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kSecondary);

    // Second retry exhausts the per-level budget: escalate to the fallback.
    auto rt2 = find_timer(retry1, TimerKind::kNackRetry);
    auto retry2 = r.on_timer(rt2->deadline, rt2->id);
    nacks = sent_of_type(retry2, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kPrimary);
    EXPECT_EQ(test::notices(retry2, NoticeKind::kLoggerChanged).size(), 1u);
}

TEST(Receiver, FinalEscalationQueriesSourceForPrimary) {
    ReceiverConfig c = base_config();
    c.nack_max_retries = 1;
    ReceiverCore r{c};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    auto fired = r.on_timer(delay->deadline, delay->id);

    // Exhaust local level -> fallback; exhaust fallback -> PrimaryQuery.
    auto t1 = find_timer(fired, TimerKind::kNackRetry);
    auto esc1 = r.on_timer(t1->deadline, t1->id);  // -> fallback nack
    auto t2 = find_timer(esc1, TimerKind::kNackRetry);
    auto esc2 = r.on_timer(t2->deadline, t2->id);  // -> PrimaryQuery
    const auto query = sent_of_type(esc2, PacketType::kPrimaryQuery);
    ASSERT_EQ(query.size(), 1u);
    EXPECT_EQ(query[0].to, kSource);

    // Source answers with a (new) primary; the receiver re-NACKs there
    // after its usual short batching delay.
    auto reply = r.on_packet(
        at(3.0), Packet{Header{kGroup, kSource, kSource}, PrimaryReplyBody{NodeId{77}}});
    auto delay2 = find_timer(reply, TimerKind::kNackDelay);
    ASSERT_TRUE(delay2.has_value());
    auto renack = r.on_timer(delay2->deadline, delay2->id);
    const auto nacks = sent_of_type(renack, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, NodeId{77});
}

TEST(Receiver, RetryBudgetIsPerGapAndEveryTierChangeResetsIt) {
    // Each gap gets nack_max_retries NACK rounds per tier.  A gap opened
    // mid-recovery starts its own count, and both escalating to the
    // fallback and a PrimaryReply restart every gap's count.
    ReceiverConfig c = base_config();
    c.nack_max_retries = 3;
    ReceiverCore r{c};
    std::optional<StartTimer> retry;
    auto track = [&retry](Actions actions) {
        if (auto t = find_timer(actions, TimerKind::kNackRetry)) retry = t;
        return actions;
    };
    auto fire_retry = [&] { return track(r.on_timer(retry->deadline, retry->id)); };
    auto nack_to = [](const Actions& actions) {
        const auto nacks = sent_of_type(actions, PacketType::kNack);
        return nacks.size() == 1 ? nacks[0].to : kNoNode;
    };

    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    EXPECT_EQ(nack_to(track(r.on_timer(delay->deadline, delay->id))), kSecondary);
    EXPECT_EQ(nack_to(fire_retry()), kSecondary);  // seq 2: round 1

    // Seq 4 goes missing mid-recovery; one round covers both gaps (seq 2:
    // round 2, seq 4: round 1), then seq 2 is repaired.
    auto gap4 = r.on_packet(retry->deadline - millis(100), data(SeqNum{5}));
    delay = find_timer(gap4, TimerKind::kNackDelay);
    track(r.on_timer(delay->deadline, delay->id));
    EXPECT_EQ(nack_to(fire_retry()), kSecondary);
    r.on_packet(retry->deadline - millis(100), retransmission(kSecondary, SeqNum{2}));

    // Seq 4's budget is its own: round 2 at the secondary, its third
    // exhausts the tier, and at the fallback the count starts over.
    EXPECT_EQ(nack_to(fire_retry()), kSecondary);
    auto escalated = fire_retry();
    EXPECT_EQ(nack_to(escalated), kPrimary);
    EXPECT_EQ(test::notices(escalated, NoticeKind::kLoggerChanged).size(), 1u);
    EXPECT_EQ(nack_to(fire_retry()), kPrimary);
    EXPECT_EQ(nack_to(fire_retry()), kPrimary);
    auto query = fire_retry();
    ASSERT_EQ(count_sent(query, PacketType::kPrimaryQuery), 1u);

    // The source names a new primary: the count starts over there too.
    auto reply = r.on_packet(retry->deadline - millis(100),
                             Packet{Header{kGroup, kSource, kSource},
                                    PrimaryReplyBody{NodeId{77}}});
    delay = find_timer(reply, TimerKind::kNackDelay);
    ASSERT_TRUE(delay.has_value());
    EXPECT_EQ(nack_to(track(r.on_timer(delay->deadline, delay->id))), NodeId{77});
    EXPECT_EQ(nack_to(fire_retry()), NodeId{77});
    EXPECT_EQ(nack_to(fire_retry()), NodeId{77});
    EXPECT_EQ(r.recovery_failures(), 0u);
}

TEST(Receiver, RecoveryEventuallyAbandons) {
    ReceiverConfig c = base_config();
    c.nack_max_retries = 1;
    c.recovery_cold_cycles = 0;  // walk the chain once, then give up
    ReceiverCore r{c};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    Actions last = r.on_timer(delay->deadline, delay->id);

    // Walk every escalation level to exhaustion.
    for (int i = 0; i < 10; ++i) {
        auto t = find_timer(last, TimerKind::kNackRetry);
        if (!t) break;
        last = r.on_timer(t->deadline, t->id);
        if (!test::notices(last, NoticeKind::kRecoveryFailed).empty()) break;
    }
    EXPECT_EQ(r.recovery_failures(), 1u);
    EXPECT_FALSE(r.detector().is_missing(SeqNum{2}));
}

TEST(Receiver, ExhaustedRecoveryParksBeforeAbandoning) {
    // With cold cycles enabled (the default), one unanswered walk of the
    // escalation chain is an outage signal, not packet death: the gap is
    // parked and the chain restarts after recovery_cold_retry.  Only the
    // configured number of whole walks later is the packet abandoned.
    ReceiverConfig c = base_config();
    c.nack_max_retries = 1;
    c.recovery_cold_cycles = 1;
    ReceiverCore r{c};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    TimePoint now = delay->deadline;
    Actions last = r.on_timer(now, delay->id);

    // First walk: ends in a park (a retry armed one cold pause out), not a
    // kRecoveryFailed.
    bool parked = false;
    for (int i = 0; i < 30 && !parked; ++i) {
        ASSERT_TRUE(test::notices(last, NoticeKind::kRecoveryFailed).empty());
        auto t = find_timer(last, TimerKind::kNackRetry);
        ASSERT_TRUE(t.has_value()) << "chain stalled without parking";
        if (t->deadline - now == c.recovery_cold_retry) {
            parked = true;
            now = t->deadline;
            last = r.on_timer(now, t->id);
            break;
        }
        now = t->deadline;
        last = r.on_timer(now, t->id);
    }
    ASSERT_TRUE(parked);
    EXPECT_EQ(r.recovery_failures(), 0u);
    EXPECT_TRUE(r.detector().is_missing(SeqNum{2}));

    // Second walk (the one cold cycle spent): terminal.
    for (int i = 0; i < 30; ++i) {
        if (!test::notices(last, NoticeKind::kRecoveryFailed).empty()) break;
        auto t = find_timer(last, TimerKind::kNackRetry);
        ASSERT_TRUE(t.has_value());
        now = t->deadline;
        last = r.on_timer(now, t->id);
    }
    EXPECT_EQ(r.recovery_failures(), 1u);
    EXPECT_FALSE(r.detector().is_missing(SeqNum{2}));
}

TEST(Receiver, ParkedRecoveryStillAcceptsLateRepair) {
    ReceiverConfig c = base_config();
    c.nack_max_retries = 1;
    ReceiverCore r{c};
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    TimePoint now = delay->deadline;
    Actions last = r.on_timer(now, delay->id);
    for (int i = 0; i < 10; ++i) {  // run the chain into its first park
        auto t = find_timer(last, TimerKind::kNackRetry);
        if (!t) break;
        if (t->deadline - now == c.recovery_cold_retry) break;
        now = t->deadline;
        last = r.on_timer(now, t->id);
    }
    ASSERT_TRUE(r.detector().is_missing(SeqNum{2}));

    // A repair landing mid-pause (the healed logger flushing its backlog)
    // closes the gap and delivers normally.
    auto repair = r.on_packet(
        at(5.0), Packet{Header{kGroup, kSource, kSecondary},
                        RetransmissionBody{SeqNum{2}, EpochId{0}, false, payload(8)}});
    EXPECT_EQ(test::deliveries(repair).size(), 1u);
    EXPECT_FALSE(r.detector().is_missing(SeqNum{2}));
    EXPECT_EQ(r.recovery_failures(), 0u);
}

TEST(Receiver, FreshnessLostAfterSilenceAndRestored) {
    ReceiverCore r{base_config()};
    auto start = r.start(at(0.0));
    r.on_packet(at(0.1), data(SeqNum{1}));
    EXPECT_TRUE(r.fresh());

    // Idle timer armed by the data packet: h_min expected, x2 safety.
    auto idle = find_timer(r.on_packet(at(0.2), data(SeqNum{2})), TimerKind::kIdle);
    ASSERT_TRUE(idle.has_value());
    EXPECT_EQ(idle->deadline, at(0.2) + secs(0.5));

    auto fired = r.on_timer(idle->deadline, idle->id);
    EXPECT_EQ(test::notices(fired, NoticeKind::kFreshnessLost).size(), 1u);
    EXPECT_FALSE(r.fresh());

    auto back = r.on_packet(at(2.0), data(SeqNum{3}));
    EXPECT_EQ(test::notices(back, NoticeKind::kFreshnessRestored).size(), 1u);
    EXPECT_TRUE(r.fresh());
}

TEST(Receiver, IdleThresholdTracksHeartbeatBackoff) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    // Heartbeat index 3: next gap = 0.25 * 2^4 = 4 s; threshold = 8 s.
    auto actions = r.on_packet(at(1.0), heartbeat(SeqNum{0}, 3));
    auto idle = find_timer(actions, TimerKind::kIdle);
    ASSERT_TRUE(idle.has_value());
    EXPECT_EQ(idle->deadline, at(1.0) + secs(8.0));
}

TEST(Receiver, IdleThresholdCapsAtHMax) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    auto actions = r.on_packet(at(1.0), heartbeat(SeqNum{0}, 60));
    auto idle = find_timer(actions, TimerKind::kIdle);
    EXPECT_EQ(idle->deadline, at(1.0) + secs(64.0));  // 2 x h_max
}

TEST(Receiver, DiscoveryExpandsRings) {
    ReceiverConfig c = base_config();
    c.logger = kNoNode;  // force discovery
    ReceiverCore r{c};
    auto start = r.start(at(0.0));
    auto queries = sent_of_type(start, PacketType::kDiscoveryQuery);
    ASSERT_EQ(queries.size(), 1u);
    EXPECT_EQ(queries[0].scope, McastScope::kSite);

    // No answer: rings widen.
    auto t = find_timer(start, TimerKind::kDiscovery);
    auto round2 = r.on_timer(t->deadline, t->id);
    EXPECT_EQ(sent_of_type(round2, PacketType::kDiscoveryQuery)[0].scope, McastScope::kSite);
    t = find_timer(round2, TimerKind::kDiscovery);
    auto round3 = r.on_timer(t->deadline, t->id);
    EXPECT_EQ(sent_of_type(round3, PacketType::kDiscoveryQuery)[0].scope,
              McastScope::kRegion);
}

TEST(Receiver, DiscoveryReplyAdoptsLogger) {
    ReceiverConfig c = base_config();
    c.logger = kNoNode;
    ReceiverCore r{c};
    auto start = r.start(at(0.0));
    const auto query = sent_of_type(start, PacketType::kDiscoveryQuery)[0];
    const auto nonce = std::get<DiscoveryQueryBody>(query.packet.body).nonce;

    auto reply = r.on_packet(at(0.05), Packet{Header{kGroup, kSource, kSecondary},
                                              DiscoveryReplyBody{nonce, kSecondary, false}});
    EXPECT_EQ(test::notices(reply, NoticeKind::kLoggerChanged).size(), 1u);
    EXPECT_EQ(r.current_logger(), kSecondary);
}

TEST(Receiver, StaleDiscoveryReplyIgnored) {
    ReceiverConfig c = base_config();
    c.logger = kNoNode;
    ReceiverCore r{c};
    auto start = r.start(at(0.0));
    auto reply = r.on_packet(at(0.05), Packet{Header{kGroup, kSource, kSecondary},
                                              DiscoveryReplyBody{9999, kSecondary, false}});
    EXPECT_TRUE(test::notices(reply, NoticeKind::kLoggerChanged).empty());
}

TEST(Receiver, IgnoresForeignGroup) {
    ReceiverCore r{base_config()};
    r.start(at(0.0));
    Packet foreign{Header{GroupId{99}, kSource, kSource},
                   DataBody{SeqNum{1}, EpochId{0}, payload(8)}};
    EXPECT_TRUE(r.on_packet(at(1.0), foreign).empty());
    EXPECT_EQ(r.delivered(), 0u);
}

// --- property: one gap record per lost packet -------------------------------

// Seeded random streams drive a bare core whose timers fire in deadline
// order: DATA with loss, reordering and duplicates, heartbeats, unsolicited
// repairs, and a logger answering part of every NACK (one number in 16 it
// never holds, so some gaps are abandoned); even seeds start within 64 of
// 2^32, every third recovers through the retransmission channel.  Every
// NACK must name exactly the detector's missing set, in wire order, and the
// episode tracker must hold one open episode per gap.
TEST(ReceiverGapRecord, NacksNameTheDetectorsGapsOnRandomStreams) {
    constexpr GroupId kChannel{6};
    std::size_t nacks_checked = 0;
    std::uint64_t abandoned = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng{seed};
        ReceiverConfig c = base_config();
        c.recovery_cold_cycles = 1;
        c.recovery_cold_retry = millis(300);
        const bool channel = seed % 3 == 0;
        if (channel) c.retrans_channel = kChannel;
        ReceiverCore r{c};
        obs::Metrics m;
        r.bind_metrics(m.protocol());

        auto held = [seed](SeqNum s) { return splitmix64(seed ^ s.value()) % 16 != 0; };
        auto repair = [&](SeqNum s) {
            return channel ? Packet{Header{kChannel, kSource, kSource},
                                    RetransmissionBody{s, EpochId{0}, true, payload(8)}}
                           : retransmission(kSecondary, s);
        };

        // The source's schedule, pre-planned; repairs join it as NACKs go out.
        std::multimap<TimePoint, Packet> inbox;
        SeqNum next{seed % 2 == 0
                        ? static_cast<std::uint32_t>(0xFFFFFFFFu - rng.uniform_int(0, 63))
                        : static_cast<std::uint32_t>(1 + rng.uniform_int(0, 1000))};
        TimePoint t = at(1.0);
        for (int i = 0; i < 300; ++i) {
            t += rng.uniform_duration(millis(2), millis(25));
            const double u = rng.uniform();
            if (u < 0.85) {
                const SeqNum s = next;
                ++next;
                if (rng.bernoulli(0.15)) continue;  // lost
                const TimePoint arrive =
                    t + (rng.bernoulli(0.1) ? rng.uniform_duration(millis(1), millis(60))
                                            : Duration::zero());
                inbox.emplace(arrive, data(s));
                if (rng.bernoulli(0.05)) inbox.emplace(arrive + millis(3), data(s));
            } else if (u < 0.95) {
                inbox.emplace(t, heartbeat(next.plus(-1)));
            } else {
                const auto back = static_cast<std::int32_t>(rng.uniform_int(1, 64));
                if (held(next.plus(-back))) inbox.emplace(t, repair(next.plus(-back)));
            }
        }

        std::map<TimerId, TimePoint> armed;
        auto apply = [&](TimePoint now, const Actions& actions) {
            for (const Action& a : actions) {
                if (const auto* st = std::get_if<StartTimer>(&a)) {
                    armed[st->id] = st->deadline;
                } else if (const auto* ct = std::get_if<CancelTimer>(&a)) {
                    armed.erase(ct->id);
                } else if (const auto* u = std::get_if<SendUnicast>(&a)) {
                    if (const auto* nack = std::get_if<NackBody>(&u->packet.body)) {
                        std::vector<SeqNum> want = r.detector().missing();
                        std::sort(want.begin(), want.end(), SeqNum::WireOrder{});
                        EXPECT_EQ(nack->missing, want);
                        ++nacks_checked;
                        for (SeqNum s : nack->missing)
                            if (held(s) && rng.bernoulli(0.5))
                                inbox.emplace(
                                    now + rng.uniform_duration(millis(5), millis(60)),
                                    retransmission(u->to, s));
                    } else if (std::holds_alternative<PrimaryQueryBody>(u->packet.body) &&
                               rng.bernoulli(0.7)) {
                        inbox.emplace(now + millis(30),
                                      Packet{Header{kGroup, kSource, kSource},
                                             PrimaryReplyBody{kPrimary}});
                    }
                }
            }
            if constexpr (obs::kTelemetryEnabled) {
                EXPECT_EQ(m.value("recovery.episodes_open"), r.detector().missing_count());
            }
        };

        apply(at(0.0), r.start(at(0.0)));
        for (int step = 0; step < 100000 && (!armed.empty() || !inbox.empty()); ++step) {
            const auto timer = std::min_element(
                armed.begin(), armed.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
            if (timer != armed.end() &&
                (inbox.empty() || timer->second <= inbox.begin()->first)) {
                const auto [id, when] = *timer;
                armed.erase(timer);
                apply(when, r.on_timer(when, id));
            } else {
                const auto [when, packet] = *inbox.begin();
                inbox.erase(inbox.begin());
                apply(when, r.on_packet(when, packet));
            }
        }

        // Drained: every gap was repaired or abandoned, and each episode
        // closed the same way.
        EXPECT_TRUE(armed.empty());
        EXPECT_EQ(r.detector().missing_count(), 0u);
        const obs::EpisodeTracker& episodes = m.episodes();
        EXPECT_TRUE(episodes.balanced());
        if constexpr (obs::kTelemetryEnabled) {
            EXPECT_GT(episodes.opened(), 0u);
            EXPECT_EQ(episodes.open_count(), 0u);
            EXPECT_EQ(episodes.repaired(), r.recovered());
            EXPECT_EQ(episodes.abandoned(), r.recovery_failures());
        }
        abandoned += r.recovery_failures();
    }
    EXPECT_GT(nacks_checked, 100u);
    EXPECT_GT(abandoned, 0u);
}

// The record a gap closes with carries the highest tier it ever reached:
// a cold restart walks the chain from the local logger again, and the
// abandoned record still says primary.
TEST(ReceiverGapRecord, TierIsTheMaxEverReachedAndAbandonCloses) {
    ReceiverConfig c = base_config();
    c.nack_max_retries = 1;
    c.recovery_cold_cycles = 1;
    ReceiverCore r{c};
    obs::Metrics m;
    r.bind_metrics(m.protocol());
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    TimePoint now = delay->deadline;
    Actions last = r.on_timer(now, delay->id);
    std::size_t nacks = count_sent(last, PacketType::kNack);
    // Two walks of local -> fallback -> PrimaryQuery: the first parks the
    // gap, the second abandons it.
    for (int i = 0; i < 30 && test::notices(last, NoticeKind::kRecoveryFailed).empty(); ++i) {
        auto t = find_timer(last, TimerKind::kNackRetry);
        ASSERT_TRUE(t.has_value());
        now = t->deadline;
        last = r.on_timer(now, t->id);
        nacks += count_sent(last, PacketType::kNack);
    }
    ASSERT_EQ(r.recovery_failures(), 1u);

    const obs::EpisodeTracker& episodes = m.episodes();
    EXPECT_TRUE(episodes.balanced());
    if constexpr (obs::kTelemetryEnabled) {
        ASSERT_EQ(episodes.records().size(), 1u);
        const obs::EpisodeTracker::Record& rec = episodes.records().front();
        EXPECT_EQ(rec.seq, 2u);
        EXPECT_EQ(rec.tier, obs::EpisodeTracker::kTierPrimary);
        EXPECT_EQ(rec.reason, obs::EpisodeTracker::Reason::kAbandoned);
        EXPECT_EQ(rec.cold_restarts, 1u);
        EXPECT_EQ(rec.nacks, nacks);
        EXPECT_DOUBLE_EQ(rec.opened_s, 1.1);
        EXPECT_DOUBLE_EQ(rec.closed_s, to_seconds(now));
        EXPECT_EQ(m.value("recovery.escalations"), 4u);  // fallback, primary; twice
        EXPECT_EQ(m.value("recovery.cold_restarts"), 1u);
        EXPECT_EQ(m.value("recovery.nack_sends"), nacks);
        EXPECT_EQ(episodes.abandoned(), 1u);
        EXPECT_EQ(episodes.open_count(), 0u);
        EXPECT_EQ(m.histogram("recovery.latency_s.primary", {}).count(), 0u);
    }
}

// A gap opened while the receiver already NACKs its fallback starts at the
// fallback tier: its only NACK went there, so its repair is a fallback one.
TEST(ReceiverGapRecord, GapOpenedMidEscalationStartsAtTheCurrentTier) {
    ReceiverCore r{base_config()};  // nack_max_retries = 2
    obs::Metrics m;
    r.bind_metrics(m.protocol());
    std::optional<StartTimer> retry;
    auto track = [&retry](Actions actions) {
        if (auto t = find_timer(actions, TimerKind::kNackRetry)) retry = t;
        return actions;
    };
    r.start(at(0.0));
    r.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = r.on_packet(at(1.1), data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    track(r.on_timer(delay->deadline, delay->id));
    track(r.on_timer(retry->deadline, retry->id));
    auto escalated = track(r.on_timer(retry->deadline, retry->id));
    ASSERT_EQ(sent_of_type(escalated, PacketType::kNack).at(0).to, kPrimary);

    // Seq 4 is lost after the escalation; its one NACK goes to the fallback.
    const TimePoint lost = retry->deadline - millis(100);
    auto gap4 = r.on_packet(lost, data(SeqNum{5}));
    delay = find_timer(gap4, TimerKind::kNackDelay);
    const auto nacks = sent_of_type(r.on_timer(delay->deadline, delay->id), PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kPrimary);
    r.on_packet(delay->deadline + millis(20), retransmission(kPrimary, SeqNum{4}));

    if constexpr (obs::kTelemetryEnabled) {
        const obs::EpisodeTracker& episodes = m.episodes();
        ASSERT_EQ(episodes.records().size(), 1u);
        const obs::EpisodeTracker::Record& rec = episodes.records().front();
        EXPECT_EQ(rec.seq, 4u);
        EXPECT_EQ(rec.nacks, 1u);
        EXPECT_EQ(rec.tier, obs::EpisodeTracker::kTierFallback);
        EXPECT_EQ(m.histogram("recovery.latency_s.local", {}).count(), 0u);
        EXPECT_EQ(m.histogram("recovery.latency_s.fallback", {}).count(), 1u);
    }
}

}  // namespace
}  // namespace lbrm
