// LoggerCore unit tests across all three roles: primary handoff + replica
// fan-out + dual-sequence LogAcks, secondary stream logging + NACK service +
// re-multicast decisions + upstream fetch, replica promotion, acker duty.
#include <gtest/gtest.h>

#include "core/logger.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::count_sent;
using test::find_timer;
using test::payload;
using test::sent_of_type;

constexpr NodeId kSource{1};
constexpr NodeId kPrimary{2};
constexpr NodeId kReplica{3};
constexpr NodeId kSecondary{4};
constexpr NodeId kReceiverA{10};
constexpr NodeId kReceiverB{11};
constexpr NodeId kReceiverC{12};
constexpr GroupId kGroup{5};

LoggerConfig primary_config() {
    LoggerConfig c;
    c.self = kPrimary;
    c.group = kGroup;
    c.source = kSource;
    c.role = LoggerRole::kPrimary;
    c.replicas = {kReplica};
    return c;
}

LoggerConfig secondary_config() {
    LoggerConfig c;
    c.self = kSecondary;
    c.group = kGroup;
    c.source = kSource;
    c.role = LoggerRole::kSecondary;
    c.upstream = kPrimary;
    c.remulticast_request_threshold = 3;
    c.fetch_delay = millis(20);
    return c;
}

LoggerConfig replica_config() {
    LoggerConfig c;
    c.self = kReplica;
    c.group = kGroup;
    c.source = kSource;
    c.role = LoggerRole::kReplica;
    c.upstream = kPrimary;
    return c;
}

Packet from(NodeId sender, Body body) {
    return Packet{Header{kGroup, kSource, sender}, std::move(body)};
}

Packet log_store(SeqNum seq, std::uint8_t salt = 0) {
    return from(kSource, LogStoreBody{seq, EpochId{0}, payload(16, salt)});
}

Packet mcast_data(SeqNum seq, std::uint8_t salt = 0) {
    return from(kSource, DataBody{seq, EpochId{0}, payload(16, salt)});
}

// --- primary ---------------------------------------------------------------

TEST(PrimaryLogger, LogStoreStoredAckedAndFannedOut) {
    LoggerCore logger{primary_config(), 1};
    auto actions = logger.on_packet(at(1.0), log_store(SeqNum{1}));

    // Dual-sequence ack to the source: logged at primary, replica not yet.
    const auto acks = sent_of_type(actions, PacketType::kLogAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].to, kSource);
    const auto& ack = std::get<LogAckBody>(acks[0].packet.body);
    EXPECT_EQ(ack.primary_seq, SeqNum{1});
    EXPECT_EQ(ack.replica_seq, SeqNum{0});
    EXPECT_TRUE(ack.has_replica);

    // Replica update fan-out.
    const auto updates = sent_of_type(actions, PacketType::kReplicaUpdate);
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_EQ(updates[0].to, kReplica);
    EXPECT_TRUE(logger.store().contains(SeqNum{1}));
}

TEST(PrimaryLogger, ReplicaAckAdvancesReplicaSeq) {
    LoggerCore logger{primary_config(), 1};
    logger.on_packet(at(1.0), log_store(SeqNum{1}));
    auto actions = logger.on_packet(at(1.1), from(kReplica, ReplicaAckBody{SeqNum{1}}));
    const auto acks = sent_of_type(actions, PacketType::kLogAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(std::get<LogAckBody>(acks[0].packet.body).replica_seq, SeqNum{1});
}

TEST(PrimaryLogger, ReplicaAckFromANonReplicaIsIgnored) {
    // Section 2.2.3: the source may discard what a replica holds.  A
    // ReplicaAck from node 99, which is no configured replica, must not
    // reach the source as replica coverage.
    LoggerCore logger{primary_config(), 1};
    for (std::uint32_t s = 1; s <= 5; ++s) logger.on_packet(at(1.0), log_store(SeqNum{s}));
    auto actions = logger.on_packet(at(1.1), from(NodeId{99}, ReplicaAckBody{SeqNum{5}}));
    for (const auto& ack : sent_of_type(actions, PacketType::kLogAck))
        EXPECT_NE(std::get<LogAckBody>(ack.packet.body).replica_seq, SeqNum{5});

    // The configured replica's own ack is what counts.
    actions = logger.on_packet(at(1.2), from(kReplica, ReplicaAckBody{SeqNum{2}}));
    const auto acks = sent_of_type(actions, PacketType::kLogAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(std::get<LogAckBody>(acks[0].packet.body).replica_seq, SeqNum{2});
}

TEST(PrimaryLogger, DuplicateLogStoreIsIdempotent) {
    LoggerCore logger{primary_config(), 1};
    logger.on_packet(at(1.0), log_store(SeqNum{1}));
    auto again = logger.on_packet(at(1.1), log_store(SeqNum{1}));
    // Re-acked (the source clearly missed our ack) but not re-fanned-out.
    EXPECT_EQ(count_sent(again, PacketType::kLogAck), 1u);
    EXPECT_EQ(count_sent(again, PacketType::kReplicaUpdate), 0u);
}

TEST(PrimaryLogger, ContiguousAckWithOutOfOrderArrival) {
    LoggerCore logger{primary_config(), 1};
    logger.on_packet(at(1.0), log_store(SeqNum{1}));
    auto gap = logger.on_packet(at(1.1), log_store(SeqNum{3}));
    // Cumulative ack stays at 1 until 2 arrives.
    EXPECT_EQ(std::get<LogAckBody>(sent_of_type(gap, PacketType::kLogAck)[0].packet.body)
                  .primary_seq,
              SeqNum{1});
    auto fill = logger.on_packet(at(1.2), log_store(SeqNum{2}));
    EXPECT_EQ(std::get<LogAckBody>(sent_of_type(fill, PacketType::kLogAck)[0].packet.body)
                  .primary_seq,
              SeqNum{3});
}

TEST(PrimaryLogger, ServesNackUnicast) {
    LoggerCore logger{primary_config(), 1};
    logger.on_packet(at(1.0), log_store(SeqNum{1}, 9));
    auto actions = logger.on_packet(at(2.0), from(kReceiverA, NackBody{{SeqNum{1}}}));
    const auto rt = sent_of_type(actions, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 1u);
    EXPECT_EQ(rt[0].to, kReceiverA);
    EXPECT_EQ(std::get<RetransmissionBody>(rt[0].packet.body).payload, payload(16, 9));
    EXPECT_EQ(logger.nacks_served_unicast(), 1u);
}

TEST(PrimaryLogger, ReplicaRetryResendsUnacked) {
    LoggerCore logger{primary_config(), 1};
    auto first = logger.on_packet(at(1.0), log_store(SeqNum{1}));
    auto timer = find_timer(first, TimerKind::kReplicaRetry);
    ASSERT_TRUE(timer.has_value());
    // Replica never acked: retry re-sends the update and re-arms.
    auto retry = logger.on_timer(timer->deadline, timer->id);
    EXPECT_EQ(count_sent(retry, PacketType::kReplicaUpdate), 1u);
    EXPECT_TRUE(find_timer(retry, TimerKind::kReplicaRetry).has_value());
}

// --- secondary ----------------------------------------------------------------

TEST(SecondaryLogger, LogsTheMulticastStream) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    logger.on_packet(at(1.1), mcast_data(SeqNum{2}));
    EXPECT_EQ(logger.store().size(), 2u);
    EXPECT_EQ(logger.contiguous_high_water(), SeqNum{2});
}

TEST(SecondaryLogger, ServesLocalNackFromLog) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto actions = logger.on_packet(at(1.5), from(kReceiverA, NackBody{{SeqNum{1}}}));
    const auto rt = sent_of_type(actions, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 1u);
    EXPECT_EQ(rt[0].to, kReceiverA);
    EXPECT_FALSE(std::get<RetransmissionBody>(rt[0].packet.body).multicast);
}

TEST(SecondaryLogger, ManyRequestsTriggerSiteScopedRemulticast) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto a1 = logger.on_packet(at(1.5), from(kReceiverA, NackBody{{SeqNum{1}}}));
    auto a2 = logger.on_packet(at(1.501), from(kReceiverB, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(a1, PacketType::kRetransmission) +
                  count_sent(a2, PacketType::kRetransmission),
              2u);  // below threshold: unicasts
    // Third request within the window crosses the threshold.
    auto a3 = logger.on_packet(at(1.502), from(kReceiverC, NackBody{{SeqNum{1}}}));
    const auto rt = sent_of_type(a3, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 1u);
    EXPECT_EQ(rt[0].to, kNoNode);  // multicast
    EXPECT_EQ(rt[0].scope, McastScope::kSite);
    EXPECT_TRUE(std::get<RetransmissionBody>(rt[0].packet.body).multicast);
    EXPECT_EQ(logger.nacks_served_multicast(), 1u);

    // A fourth request inside the same window is absorbed by the multicast.
    auto a4 = logger.on_packet(at(1.503), from(NodeId{13}, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(a4, PacketType::kRetransmission), 0u);
}

TEST(SecondaryLogger, WindowExpiryResetsRemulticastCounting) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto a1 = logger.on_packet(at(1.5), from(kReceiverA, NackBody{{SeqNum{1}}}));
    auto window = find_timer(a1, TimerKind::kRemcastWindow);
    ASSERT_TRUE(window.has_value());
    logger.on_timer(window->deadline, window->id);
    // Window closed: counting restarts, so two more requests stay unicast.
    auto a2 = logger.on_packet(at(2.0), from(kReceiverB, NackBody{{SeqNum{1}}}));
    auto a3 = logger.on_packet(at(2.001), from(kReceiverC, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(a2, PacketType::kRetransmission), 1u);
    EXPECT_EQ(count_sent(a3, PacketType::kRetransmission), 1u);
    EXPECT_EQ(sent_of_type(a3, PacketType::kRetransmission)[0].to, kReceiverC);
}

TEST(SecondaryLogger, StreamGapTriggersUpstreamFetch) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto gap = logger.on_packet(at(1.1), mcast_data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    ASSERT_TRUE(delay.has_value());
    EXPECT_EQ(delay->deadline, at(1.1) + millis(20));  // fetch_delay

    auto fetch = logger.on_timer(delay->deadline, delay->id);
    const auto nacks = sent_of_type(fetch, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kPrimary);
    EXPECT_EQ(std::get<NackBody>(nacks[0].packet.body).missing,
              std::vector<SeqNum>{SeqNum{2}});
    EXPECT_EQ(logger.upstream_fetches(), 1u);
}

TEST(SecondaryLogger, NackForUnloggedSeqFetchesAndServesRequesters) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    // Local receivers ask for seq 2, which we never saw either (whole-site
    // loss on the tail circuit).
    auto a1 = logger.on_packet(at(1.2), from(kReceiverA, NackBody{{SeqNum{2}}}));
    auto delay = find_timer(a1, TimerKind::kNackDelay);
    ASSERT_TRUE(delay.has_value());
    logger.on_packet(at(1.21), from(kReceiverB, NackBody{{SeqNum{2}}}));
    auto fetch = logger.on_timer(delay->deadline, delay->id);
    EXPECT_EQ(count_sent(fetch, PacketType::kNack), 1u);

    // The primary's retransmission arrives: since the secondary itself
    // missed the packet, the whole site likely did -> one site-scoped
    // re-multicast repairs everyone.
    auto repair = logger.on_packet(
        at(1.4), from(kPrimary, RetransmissionBody{SeqNum{2}, EpochId{0}, false, payload(16)}));
    const auto rt = sent_of_type(repair, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 1u);
    EXPECT_EQ(rt[0].to, kNoNode);
    EXPECT_EQ(rt[0].scope, McastScope::kSite);
}

TEST(SecondaryLogger, FetchRetriesOnSilence) {
    LoggerCore logger{secondary_config(), 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto gap = logger.on_packet(at(1.1), mcast_data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    auto fetch = logger.on_timer(delay->deadline, delay->id);
    auto retry_timer = find_timer(fetch, TimerKind::kNackRetry);
    ASSERT_TRUE(retry_timer.has_value());
    auto retry = logger.on_timer(retry_timer->deadline, retry_timer->id);
    EXPECT_EQ(count_sent(retry, PacketType::kNack), 1u);
}

TEST(SecondaryLogger, FetchExhaustionRefreshesUpstreamInsteadOfAbandoning) {
    // A full fetch-attempt budget going unanswered means the configured
    // upstream is dark (crashed, mid-failover) or does not hold the packet
    // yet -- not that the packet is dead.  The secondary asks the source
    // who the primary is *now*, parks the fetch for a cold pause, and
    // retries against the refreshed target.
    LoggerConfig c = secondary_config();
    c.fetch_max_retries = 1;
    c.fetch_cold_cycles = 1;
    LoggerCore logger{c, 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    auto gap = logger.on_packet(at(1.1), mcast_data(SeqNum{3}));
    auto delay = find_timer(gap, TimerKind::kNackDelay);
    ASSERT_TRUE(delay.has_value());
    auto fetch = logger.on_timer(delay->deadline, delay->id);
    ASSERT_EQ(count_sent(fetch, PacketType::kNack), 1u);
    EXPECT_EQ(sent_of_type(fetch, PacketType::kNack)[0].to, kPrimary);

    // Budget exhausted on the next retry tick: a PrimaryQuery goes to the
    // source, no abandonment, and the fetch keeps its retry timer.
    auto t = find_timer(fetch, TimerKind::kNackRetry);
    ASSERT_TRUE(t.has_value());
    TimePoint now = t->deadline;
    Actions parked = logger.on_timer(now, t->id);
    EXPECT_EQ(count_sent(parked, PacketType::kNack), 0u);
    ASSERT_EQ(count_sent(parked, PacketType::kPrimaryQuery), 1u);
    EXPECT_EQ(sent_of_type(parked, PacketType::kPrimaryQuery)[0].to, kSource);
    EXPECT_TRUE(test::notices(parked, NoticeKind::kRecoveryFailed).empty());

    // The source names the promoted replica; after the cold pause the next
    // fetch goes there.
    logger.on_packet(now + millis(10), from(kSource, PrimaryReplyBody{NodeId{30}}));
    EXPECT_EQ(logger.upstream(), NodeId{30});
    Actions last = std::move(parked);
    std::vector<test::Sent> nacks;
    for (int i = 0; i < 10 && nacks.empty(); ++i) {
        auto rt = find_timer(last, TimerKind::kNackRetry);
        ASSERT_TRUE(rt.has_value());
        now = rt->deadline;
        last = logger.on_timer(now, rt->id);
        nacks = sent_of_type(last, PacketType::kNack);
    }
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, NodeId{30});

    // The single cold cycle is spent: the next exhaustion is terminal.
    for (int i = 0; i < 10; ++i) {
        if (!test::notices(last, NoticeKind::kRecoveryFailed).empty()) break;
        auto rt = find_timer(last, TimerKind::kNackRetry);
        ASSERT_TRUE(rt.has_value());
        now = rt->deadline;
        last = logger.on_timer(now, rt->id);
    }
    EXPECT_EQ(test::notices(last, NoticeKind::kRecoveryFailed).size(), 1u);
    EXPECT_FALSE(logger.detector().is_missing(SeqNum{2}));
}

TEST(SecondaryLogger, VolunteersAsDesignatedAcker) {
    LoggerConfig c = secondary_config();
    LoggerCore logger{c, /*rng_seed=*/7};
    // p_ack = 1.0 guarantees volunteering regardless of seed.
    auto actions =
        logger.on_packet(at(1.0), from(kSource, AckerSelectionBody{EpochId{1}, 1.0}));
    const auto responses = sent_of_type(actions, PacketType::kAckerResponse);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].to, kSource);
    EXPECT_TRUE(logger.is_designated_acker());

    // Designated: every data packet of the epoch gets a unicast ACK.
    auto data = logger.on_packet(at(1.5), from(kSource, DataBody{SeqNum{1}, EpochId{1},
                                                                 payload(8)}));
    const auto acks = sent_of_type(data, PacketType::kAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(std::get<AckBody>(acks[0].packet.body).seq, SeqNum{1});
    EXPECT_EQ(logger.acks_sent(), 1u);
}

TEST(SecondaryLogger, NeverVolunteersAtZeroProbability) {
    LoggerCore logger{secondary_config(), 7};
    auto actions =
        logger.on_packet(at(1.0), from(kSource, AckerSelectionBody{EpochId{1}, 0.0}));
    EXPECT_EQ(count_sent(actions, PacketType::kAckerResponse), 0u);
    EXPECT_FALSE(logger.is_designated_acker());
}

TEST(SecondaryLogger, RecoveredPacketOfDesignatedEpochIsAcked) {
    LoggerCore logger{secondary_config(), 7};
    logger.on_packet(at(1.0), from(kSource, AckerSelectionBody{EpochId{1}, 1.0}));
    // The packet arrives via retransmission, not the live stream: Section
    // 2.3.1 says designated ackers ack "each packet of the epoch they
    // receive", however it got there.
    auto repair = logger.on_packet(
        at(1.5), from(kPrimary, RetransmissionBody{SeqNum{1}, EpochId{1}, false, payload(8)}));
    EXPECT_EQ(count_sent(repair, PacketType::kAck), 1u);
}

TEST(SecondaryLogger, AnswersProbesProbabilistically) {
    LoggerCore logger{secondary_config(), 7};
    auto yes = logger.on_packet(at(1.0), from(kSource, ProbeRequestBody{1, 1.0}));
    EXPECT_EQ(count_sent(yes, PacketType::kProbeReply), 1u);
    auto no = logger.on_packet(at(1.1), from(kSource, ProbeRequestBody{2, 0.0}));
    EXPECT_EQ(count_sent(no, PacketType::kProbeReply), 0u);
}

TEST(Logger, AnswersDiscoveryQueries) {
    LoggerCore logger{secondary_config(), 1};
    auto actions = logger.on_packet(at(1.0),
                                    from(kReceiverA, DiscoveryQueryBody{1, 0xAB}));
    const auto replies = sent_of_type(actions, PacketType::kDiscoveryReply);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].to, kReceiverA);
    const auto& body = std::get<DiscoveryReplyBody>(replies[0].packet.body);
    EXPECT_EQ(body.logger, kSecondary);
    EXPECT_EQ(body.nonce, 0xABu);
    EXPECT_FALSE(body.is_primary);
}

// --- replica -----------------------------------------------------------------

TEST(ReplicaLogger, StoresUpdatesAndAcksCumulatively) {
    LoggerCore logger{replica_config(), 1};
    auto a1 = logger.on_packet(at(1.0),
                               from(kPrimary, ReplicaUpdateBody{SeqNum{1}, EpochId{0},
                                                                payload(8)}));
    const auto acks = sent_of_type(a1, PacketType::kReplicaAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(std::get<ReplicaAckBody>(acks[0].packet.body).cumulative_seq, SeqNum{1});

    // Out of order: cumulative ack does not jump the gap.
    auto a3 = logger.on_packet(at(1.1),
                               from(kPrimary, ReplicaUpdateBody{SeqNum{3}, EpochId{0},
                                                                payload(8)}));
    EXPECT_EQ(std::get<ReplicaAckBody>(sent_of_type(a3, PacketType::kReplicaAck)[0]
                                           .packet.body)
                  .cumulative_seq,
              SeqNum{1});
}

TEST(ReplicaLogger, PromotionMakesItPrimary) {
    LoggerCore logger{replica_config(), 1};
    logger.on_packet(at(1.0), from(kPrimary, ReplicaUpdateBody{SeqNum{1}, EpochId{0},
                                                               payload(8)}));
    auto actions = logger.on_packet(at(2.0), from(kSource, PromoteRequestBody{}));
    const auto replies = sent_of_type(actions, PacketType::kPromoteReply);
    ASSERT_EQ(replies.size(), 1u);
    const auto& body = std::get<PromoteReplyBody>(replies[0].packet.body);
    EXPECT_TRUE(body.accepted);
    EXPECT_EQ(body.log_high_water, SeqNum{1});
    EXPECT_EQ(logger.role(), LoggerRole::kPrimary);

    // Now accepts LogStore like any primary.
    auto store = logger.on_packet(at(2.1), log_store(SeqNum{2}));
    EXPECT_EQ(count_sent(store, PacketType::kLogAck), 1u);
}

TEST(ReplicaLogger, SecondaryIgnoresPromotion) {
    LoggerCore logger{secondary_config(), 1};
    auto actions = logger.on_packet(at(2.0), from(kSource, PromoteRequestBody{}));
    const auto replies = sent_of_type(actions, PacketType::kPromoteReply);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_FALSE(std::get<PromoteReplyBody>(replies[0].packet.body).accepted);
    EXPECT_EQ(logger.role(), LoggerRole::kSecondary);
}

TEST(Logger, RetentionPolicyEnforcedOnNackService) {
    LoggerConfig c = secondary_config();
    c.retention.max_age = secs(1.0);
    LoggerCore logger{c, 1};
    logger.on_packet(at(1.0), mcast_data(SeqNum{1}));
    logger.on_packet(at(1.1), mcast_data(SeqNum{2}));
    // Much later the packets have aged out: a NACK triggers an upstream
    // fetch instead of local service.
    auto actions = logger.on_packet(at(10.0), from(kReceiverA, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(actions, PacketType::kRetransmission), 0u);
    EXPECT_TRUE(find_timer(actions, TimerKind::kNackDelay).has_value());
}

}  // namespace
}  // namespace lbrm
