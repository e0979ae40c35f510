// Coverage for smaller seams: the SRM sender's repair suppression
// (Section 6 model fidelity), the receiver's adaptive idle gap under
// data-carrying heartbeats, and sender buffering floors.
#include <gtest/gtest.h>

#include "baseline/srm.hpp"
#include "core/receiver.hpp"
#include "core/sender.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::count_sent;
using test::find_timer;
using test::payload;
using test::sent_of_type;

// --- SRM sender repair suppression (Section 6 model) ---------------------------

TEST(SrmSender, DelaysRepairsAndSuppressesOnForeignRepair) {
    baseline::SrmConfig config;
    config.self = NodeId{1};
    config.group = GroupId{1};
    config.source = NodeId{1};
    config.rtt_to_source = millis(80);
    baseline::SrmSenderCore sender{config, 5};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));

    // A repair request arrives: the sender must NOT answer instantly -- it
    // schedules a randomized repair window like any member.
    Packet request{Header{GroupId{1}, NodeId{1}, NodeId{9}}, NackBody{{SeqNum{1}}}};
    auto heard = sender.on_packet(at(2.0), request);
    EXPECT_EQ(count_sent(heard, PacketType::kRetransmission), 0u);
    auto timer = find_timer(heard, TimerKind::kRemcastWindow);
    ASSERT_TRUE(timer.has_value());
    EXPECT_GE(timer->deadline, at(2.0) + millis(80));
    EXPECT_LE(timer->deadline, at(2.0) + millis(160));

    // Another member repairs first: the sender's pending repair cancels.
    Packet foreign{Header{GroupId{1}, NodeId{1}, NodeId{7}},
                   RetransmissionBody{SeqNum{1}, EpochId{0}, true, payload(16)}};
    auto suppressed = sender.on_packet(at(2.05), foreign);
    EXPECT_TRUE(test::has_cancel(suppressed, TimerKind::kRemcastWindow));
    auto fired = sender.on_timer(timer->deadline, timer->id);
    EXPECT_EQ(count_sent(fired, PacketType::kRetransmission), 0u);
}

TEST(SrmSender, UnsuppressedRepairFiresOnce) {
    baseline::SrmConfig config;
    config.self = NodeId{1};
    config.group = GroupId{1};
    config.source = NodeId{1};
    baseline::SrmSenderCore sender{config, 5};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(16));

    Packet request{Header{GroupId{1}, NodeId{1}, NodeId{9}}, NackBody{{SeqNum{1}}}};
    auto heard = sender.on_packet(at(2.0), request);
    auto timer = find_timer(heard, TimerKind::kRemcastWindow);

    // A duplicate request inside the armed window does not double-arm.
    auto again = sender.on_packet(at(2.01), request);
    EXPECT_FALSE(find_timer(again, TimerKind::kRemcastWindow).has_value());

    auto fired = sender.on_timer(timer->deadline, timer->id);
    const auto repairs = sent_of_type(fired, PacketType::kRetransmission);
    ASSERT_EQ(repairs.size(), 1u);
    EXPECT_EQ(repairs[0].to, kNoNode);  // multicast, wb-style

    // Firing the (now disarmed) window again repairs nothing.
    auto refire = sender.on_timer(timer->deadline + millis(1), timer->id);
    EXPECT_EQ(count_sent(refire, PacketType::kRetransmission), 0u);
}

// --- receiver idle gap under repeated data (Section 7 data heartbeats) --------

TEST(Receiver, RepeatedDataGrowsTheExpectedGapLikeHeartbeats) {
    ReceiverConfig config;
    config.self = NodeId{5};
    config.group = GroupId{1};
    config.source = NodeId{1};
    config.logger = NodeId{2};
    ReceiverCore receiver{config};
    receiver.start(at(0.0));

    Packet data{Header{GroupId{1}, NodeId{1}, NodeId{1}},
                DataBody{SeqNum{1}, EpochId{0}, payload(8)}};

    // Fresh data: watchdog armed for 2 x h_min = 0.5 s.
    auto first = receiver.on_packet(at(1.0), data);
    auto idle = find_timer(first, TimerKind::kIdle);
    ASSERT_TRUE(idle.has_value());
    EXPECT_EQ(idle->deadline, at(1.5));

    // The same packet repeated (a data-carrying heartbeat): the expected
    // gap doubles each time, exactly like heartbeat indices.
    auto second = receiver.on_packet(at(1.25), data);
    idle = find_timer(second, TimerKind::kIdle);
    ASSERT_TRUE(idle.has_value());
    EXPECT_EQ(idle->deadline, at(1.25) + secs(1.0));  // gap 0.5 x safety 2

    auto third = receiver.on_packet(at(1.75), data);
    idle = find_timer(third, TimerKind::kIdle);
    EXPECT_EQ(idle->deadline, at(1.75) + secs(2.0));  // gap 1.0 x safety 2

    // No duplicate deliveries happened along the way.
    EXPECT_EQ(receiver.delivered(), 1u);
    EXPECT_EQ(receiver.duplicates(), 2u);
}

TEST(Receiver, FreshDataResetsTheGap) {
    ReceiverConfig config;
    config.self = NodeId{5};
    config.group = GroupId{1};
    config.source = NodeId{1};
    config.logger = NodeId{2};
    ReceiverCore receiver{config};
    receiver.start(at(0.0));

    Packet d1{Header{GroupId{1}, NodeId{1}, NodeId{1}},
              DataBody{SeqNum{1}, EpochId{0}, payload(8)}};
    receiver.on_packet(at(1.0), d1);
    receiver.on_packet(at(1.25), d1);  // repeat grows gap to 0.5
    Packet d2{Header{GroupId{1}, NodeId{1}, NodeId{1}},
              DataBody{SeqNum{2}, EpochId{0}, payload(8)}};
    auto fresh = receiver.on_packet(at(1.5), d2);
    auto idle = find_timer(fresh, TimerKind::kIdle);
    EXPECT_EQ(idle->deadline, at(1.5) + secs(0.5));  // back to 2 x h_min
}

// --- sender buffering floors -----------------------------------------------

TEST(Sender, RetransChannelKeepsPayloadUntilCopiesDone) {
    SenderConfig config;
    config.self = NodeId{1};
    config.group = GroupId{1};
    config.primary_logger = NodeId{2};
    config.stat_ack.enabled = false;
    config.retrans_channel = GroupId{9};
    config.retrans_channel_copies = 2;
    config.retrans_channel_first_delay = millis(40);
    SenderCore sender{config};
    sender.start(at(0.0));
    auto sent = sender.send(at(1.0), payload(64));

    // Replica-safe immediately...
    sender.on_packet(at(1.01),
                     Packet{Header{GroupId{1}, NodeId{1}, NodeId{2}},
                            LogAckBody{SeqNum{1}, SeqNum{1}, true}});
    // ...but the channel still owes two copies: the payload is retained.
    EXPECT_EQ(sender.retained_count(), 1u);

    auto t1 = find_timer(sent, TimerKind::kRetxChannel);
    ASSERT_TRUE(t1.has_value());
    auto copy1 = sender.on_timer(t1->deadline, t1->id);
    const auto out1 = sent_of_type(copy1, PacketType::kRetransmission);
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(out1[0].packet.header.group, GroupId{9});  // on the channel

    auto t2 = find_timer(copy1, TimerKind::kRetxChannel);
    ASSERT_TRUE(t2.has_value());
    auto copy2 = sender.on_timer(t2->deadline, t2->id);
    EXPECT_EQ(count_sent(copy2, PacketType::kRetransmission), 1u);
    // Copies exhausted: buffer released.
    EXPECT_EQ(sender.retained_count(), 0u);
    EXPECT_FALSE(find_timer(copy2, TimerKind::kRetxChannel).has_value());
}

}  // namespace
}  // namespace lbrm
