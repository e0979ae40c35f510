// SenderCore unit tests: data transmission, reliable primary handoff, buffer
// release rules (Section 2.2.3), heartbeat emission, failover.
#include <gtest/gtest.h>

#include "core/sender.hpp"
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
constexpr NodeId kReplicaA{3};
constexpr NodeId kReplicaB{4};
constexpr GroupId kGroup{5};

SenderConfig base_config() {
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

TEST(Sender, SendMulticastsDataAndHandsOffToPrimary) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    auto actions = sender.send(at(1.0), payload(32));

    const auto data = sent_of_type(actions, PacketType::kData);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].to, kNoNode);  // multicast
    const auto& body = std::get<DataBody>(data[0].packet.body);
    EXPECT_EQ(body.seq, SeqNum{1});
    EXPECT_EQ(body.payload, payload(32));

    const auto store = sent_of_type(actions, PacketType::kLogStore);
    ASSERT_EQ(store.size(), 1u);
    EXPECT_EQ(store[0].to, kPrimary);
    EXPECT_TRUE(find_timer(actions, TimerKind::kLogStoreRetry).has_value());
}

TEST(Sender, SequenceNumbersIncrease) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(8));
    sender.send(at(2.0), payload(8));
    auto actions = sender.send(at(3.0), payload(8));
    const auto data = sent_of_type(actions, PacketType::kData);
    EXPECT_EQ(std::get<DataBody>(data[0].packet.body).seq, SeqNum{3});
    EXPECT_EQ(sender.last_seq(), SeqNum{3});
    EXPECT_EQ(sender.data_sent(), 3u);
}

TEST(Sender, RetainsUntilReplicaAck) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(100));
    EXPECT_EQ(sender.retained_count(), 1u);

    // Primary ack without replica coverage: application may continue but the
    // buffer must be retained (Section 2.2.3).
    sender.on_packet(at(1.01), from(kPrimary, LogAckBody{SeqNum{1}, SeqNum{0}, true}));
    EXPECT_EQ(sender.retained_count(), 1u);

    // Replica catches up: now the data is droppable.
    sender.on_packet(at(1.05), from(kPrimary, LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_EQ(sender.retained_count(), 0u);
}

TEST(Sender, LogAckFromANonPrimaryReleasesNothing) {
    // Only the current primary speaks for the log: a LogAck claiming
    // replica coverage from any other node releases no retained copy.
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(100));
    sender.on_packet(at(1.01), from(NodeId{99}, LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_EQ(sender.retained_count(), 1u);
    sender.on_packet(at(1.02), from(kReplicaA, LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_EQ(sender.retained_count(), 1u);

    sender.on_packet(at(1.05), from(kPrimary, LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_EQ(sender.retained_count(), 0u);
}

TEST(Sender, UnreplicatedPrimaryAckReleasesBuffer) {
    SenderConfig c = base_config();
    c.replicas.clear();
    SenderCore sender{c};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(100));
    sender.on_packet(at(1.01), from(kPrimary, LogAckBody{SeqNum{1}, SeqNum{0}, false}));
    EXPECT_EQ(sender.retained_count(), 0u);
}

TEST(Sender, LogStoreRetriesUntilAcked) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    auto first = sender.send(at(1.0), payload(16));
    auto timer = find_timer(first, TimerKind::kLogStoreRetry);
    ASSERT_TRUE(timer.has_value());

    // No ack: the retry timer re-sends the LogStore.
    auto retry = sender.on_timer(timer->deadline, timer->id);
    EXPECT_EQ(count_sent(retry, PacketType::kLogStore), 1u);
    EXPECT_TRUE(find_timer(retry, TimerKind::kLogStoreRetry).has_value());
}

TEST(Sender, AckCancelsRetry) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));
    auto actions =
        sender.on_packet(at(1.01), from(kPrimary, LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_TRUE(test::has_cancel(actions, TimerKind::kLogStoreRetry));
}

TEST(Sender, HeartbeatEmittedAndRescheduled) {
    SenderCore sender{base_config()};
    auto start = sender.start(at(0.0));
    auto timer = find_timer(start, TimerKind::kHeartbeat);
    ASSERT_TRUE(timer.has_value());
    EXPECT_EQ(timer->deadline, at(0.25));

    auto actions = sender.on_timer(timer->deadline, timer->id);
    const auto hb = sent_of_type(actions, PacketType::kHeartbeat);
    ASSERT_EQ(hb.size(), 1u);
    EXPECT_EQ(std::get<HeartbeatBody>(hb[0].packet.body).last_seq, SeqNum{0});
    auto next = find_timer(actions, TimerKind::kHeartbeat);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->deadline, at(0.75));  // interval doubled
    EXPECT_EQ(sender.heartbeats_sent(), 1u);
}

TEST(Sender, DataResetsHeartbeatSchedule) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    auto actions = sender.send(at(10.0), payload(8));
    auto timer = find_timer(actions, TimerKind::kHeartbeat);
    ASSERT_TRUE(timer.has_value());
    EXPECT_EQ(timer->deadline, at(10.25));
}

TEST(Sender, AnswersPrimaryQuery) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    auto actions = sender.on_packet(at(1.0), from(NodeId{42}, PrimaryQueryBody{}));
    const auto reply = sent_of_type(actions, PacketType::kPrimaryReply);
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0].to, NodeId{42});
    EXPECT_EQ(std::get<PrimaryReplyBody>(reply[0].packet.body).primary, kPrimary);
}

TEST(Sender, ServesNackFromRetainedBuffer) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(64, 7));
    auto actions = sender.on_packet(at(1.5), from(NodeId{42}, NackBody{{SeqNum{1}}}));
    const auto rt = sent_of_type(actions, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 1u);
    EXPECT_EQ(rt[0].to, NodeId{42});
    EXPECT_EQ(std::get<RetransmissionBody>(rt[0].packet.body).payload, payload(64, 7));
}

TEST(Sender, FailoverPromotesFirstReplica) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    auto actions = sender.send(at(1.0), payload(16));
    auto timer = find_timer(actions, TimerKind::kLogStoreRetry);

    // Exhaust the retry budget: the primary is dead.
    TimePoint t = timer->deadline;
    Actions last;
    for (std::uint32_t i = 0; i <= base_config().log_store_max_retries; ++i) {
        last = sender.on_timer(t, {TimerKind::kLogStoreRetry, 0});
        t = t + millis(50);
    }
    const auto promote = sent_of_type(last, PacketType::kPromoteRequest);
    ASSERT_EQ(promote.size(), 1u);
    EXPECT_EQ(promote[0].to, kReplicaA);

    // The replica accepts with a stale high-water mark: the sender switches
    // primaries and replays the missing packet.
    auto replay =
        sender.on_packet(t, from(kReplicaA, PromoteReplyBody{SeqNum{0}, true}));
    EXPECT_EQ(sender.current_primary(), kReplicaA);
    EXPECT_EQ(count_sent(replay, PacketType::kLogStore), 1u);
    EXPECT_EQ(test::notices(replay, NoticeKind::kPrimaryFailover).size(), 1u);
}

TEST(Sender, FailoverTriesNextReplicaOnSilence) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));

    TimePoint t = at(1.05);
    Actions last;
    for (std::uint32_t i = 0; i <= base_config().log_store_max_retries; ++i) {
        last = sender.on_timer(t, {TimerKind::kLogStoreRetry, 0});
        t = t + millis(50);
    }
    // Replica A never replies; the failover timer moves to replica B.
    auto failover_timer = find_timer(last, TimerKind::kFailover);
    ASSERT_TRUE(failover_timer.has_value());
    auto next = sender.on_timer(failover_timer->deadline, failover_timer->id);
    const auto promote = sent_of_type(next, PacketType::kPromoteRequest);
    ASSERT_EQ(promote.size(), 1u);
    EXPECT_EQ(promote[0].to, kReplicaB);
}

TEST(Sender, SelfPrimaryModeLogsLocally) {
    SenderConfig c = base_config();
    c.primary_logger = kNoNode;  // source is its own primary
    c.replicas.clear();
    SenderCore sender{c};
    sender.start(at(0.0));
    auto actions = sender.send(at(1.0), payload(16));
    EXPECT_EQ(count_sent(actions, PacketType::kLogStore), 0u);
    EXPECT_TRUE(sender.is_self_primary());
    // Serves recovery directly.
    auto nack = sender.on_packet(at(2.0), from(NodeId{9}, NackBody{{SeqNum{1}}}));
    EXPECT_EQ(count_sent(nack, PacketType::kRetransmission), 1u);
}

TEST(Sender, IgnoresForeignGroupTraffic) {
    SenderCore sender{base_config()};
    sender.start(at(0.0));
    Packet foreign{Header{GroupId{99}, kSource, NodeId{42}}, NackBody{{SeqNum{1}}}};
    EXPECT_TRUE(sender.on_packet(at(1.0), foreign).empty());
}

}  // namespace
}  // namespace lbrm
