// Baseline-protocol tests: the wb/SRM-style recovery model and the
// positive-ACK sender-reliable protocol, both as units and end-to-end on
// the simulated topology.
#include <gtest/gtest.h>

#include "baseline/ack_protocol.hpp"
#include "baseline/srm.hpp"
#include "sim/network.hpp"
#include "sim/sim_host.hpp"
#include "sim/topology.hpp"
#include "tests/test_util.hpp"

namespace lbrm::baseline {
namespace {

using test::at;
using test::count_sent;
using test::find_timer;
using test::payload;
using test::sent_of_type;

constexpr NodeId kSource{1};
constexpr GroupId kGroup{3};

SrmConfig member_config(NodeId self) {
    SrmConfig c;
    c.self = self;
    c.group = kGroup;
    c.source = kSource;
    c.rtt_to_source = millis(80);
    return c;
}

Packet data(SeqNum seq) {
    return Packet{Header{kGroup, kSource, kSource}, DataBody{seq, EpochId{0}, payload(8)}};
}

// --- SRM member unit behaviour ------------------------------------------------

TEST(SrmMember, RequestDelayScalesWithRtt) {
    SrmMemberCore m{member_config(NodeId{10}), 42};
    m.start(at(0.0));
    m.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = m.on_packet(at(1.1), data(SeqNum{3}));
    auto timer = find_timer(gap, TimerKind::kNackDelay);
    ASSERT_TRUE(timer.has_value());
    // Uniform in [1, 2] x RTT after detection.
    EXPECT_GE(timer->deadline, at(1.1) + millis(80));
    EXPECT_LE(timer->deadline, at(1.1) + millis(160));
}

TEST(SrmMember, RequestIsMulticastToWholeGroup) {
    SrmMemberCore m{member_config(NodeId{10}), 42};
    m.start(at(0.0));
    m.on_packet(at(1.0), data(SeqNum{1}));
    auto gap = m.on_packet(at(1.1), data(SeqNum{3}));
    auto timer = find_timer(gap, TimerKind::kNackDelay);
    auto fired = m.on_timer(timer->deadline, timer->id);
    const auto nacks = sent_of_type(fired, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    EXPECT_EQ(nacks[0].to, kNoNode);  // multicast: the crying-baby mechanism
    EXPECT_EQ(m.requests_sent(), 1u);
}

TEST(SrmMember, HearingAnotherRequestSuppressesOwn) {
    SrmMemberCore m{member_config(NodeId{10}), 42};
    m.start(at(0.0));
    m.on_packet(at(1.0), data(SeqNum{1}));
    m.on_packet(at(1.1), data(SeqNum{3}));
    // Another member's multicast request for the same seq arrives first.
    auto heard = m.on_packet(at(1.12), Packet{Header{kGroup, kSource, NodeId{11}},
                                              NackBody{{SeqNum{2}}}});
    // Our pending request timer was cancelled and rescheduled with backoff.
    EXPECT_TRUE(test::has_cancel(heard, TimerKind::kNackDelay));
    auto backoff = find_timer(heard, TimerKind::kNackDelay);
    ASSERT_TRUE(backoff.has_value());
    EXPECT_GE(backoff->deadline, at(1.12) + millis(160));  // doubled window
}

TEST(SrmMember, HolderRacesToRepair) {
    SrmMemberCore m{member_config(NodeId{10}), 42};
    m.start(at(0.0));
    m.on_packet(at(1.0), data(SeqNum{1}));
    m.on_packet(at(1.1), data(SeqNum{2}));
    // Someone requests seq 2, which we hold.
    auto heard = m.on_packet(at(2.0), Packet{Header{kGroup, kSource, NodeId{11}},
                                             NackBody{{SeqNum{2}}}});
    auto repair_timer = find_timer(heard, TimerKind::kRemcastWindow);
    ASSERT_TRUE(repair_timer.has_value());
    auto fired = m.on_timer(repair_timer->deadline, repair_timer->id);
    const auto repairs = sent_of_type(fired, PacketType::kRetransmission);
    ASSERT_EQ(repairs.size(), 1u);
    EXPECT_EQ(repairs[0].to, kNoNode);  // repairs are multicast too
    EXPECT_EQ(m.repairs_sent(), 1u);
}

TEST(SrmMember, RepairSuppressesOtherRepairers) {
    SrmMemberCore m{member_config(NodeId{10}), 42};
    m.start(at(0.0));
    m.on_packet(at(1.0), data(SeqNum{1}));
    m.on_packet(at(1.1), data(SeqNum{2}));
    m.on_packet(at(2.0), Packet{Header{kGroup, kSource, NodeId{11}},
                                NackBody{{SeqNum{2}}}});
    // Someone else's repair lands before our timer: ours is cancelled.
    auto heard = m.on_packet(
        at(2.01), Packet{Header{kGroup, kSource, NodeId{12}},
                         RetransmissionBody{SeqNum{2}, EpochId{0}, true, payload(8)}});
    EXPECT_TRUE(test::has_cancel(heard, TimerKind::kRemcastWindow));
    // Firing the stale timer later sends nothing.
    auto fired = m.on_timer(at(2.2), {TimerKind::kRemcastWindow, 2});
    EXPECT_EQ(count_sent(fired, PacketType::kRetransmission), 0u);
}

// --- SRM end-to-end on the simulator -------------------------------------------

TEST(SrmIntegration, RecoversLossViaGroupRepair) {
    sim::Simulator simulator;
    sim::Network net{simulator, 7};
    sim::DisTopologySpec spec;
    spec.sites = 3;
    spec.receivers_per_site = 3;
    spec.secondary_logger_per_site = false;  // wb has no loggers
    spec.replicas = 0;
    const sim::DisTopology topo = sim::make_dis_topology(net, spec);
    net.finalize();

    SrmConfig sender_config = member_config(topo.source);
    auto& source_host = net.attach_host(topo.source);
    auto& sender = dynamic_cast<SrmSenderCore&>(source_host.protocol().add_core(
        std::make_unique<SrmSenderCore>(sender_config, 1)));
    net.join(kGroup, topo.source);

    std::map<NodeId, SrmMemberCore*> members;
    std::uint64_t delivered = 0;
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [&delivered](TimePoint, NodeId, const DeliverData&) { ++delivered; };
    for (NodeId r : topo.all_receivers()) {
        auto& host = net.attach_host(r);
        members[r] = dynamic_cast<SrmMemberCore*>(&host.protocol().add_core(
            std::make_unique<SrmMemberCore>(member_config(r), r.value()), handlers));
        net.join(kGroup, r);
    }
    for (auto& [id, rec] : members) (void)id;
    source_host.protocol().start(simulator.now());
    for (NodeId r : topo.all_receivers()) net.host(r)->protocol().start(simulator.now());

    // Lossless packet.
    auto run_actions = [&](Actions a) {
        (void)a;  // executed inside hosts already
    };
    (void)run_actions;
    source_host.protocol().on_timer(simulator.now(), 1, {TimerKind::kHeartbeat, 0});

    // Send via the generic core: execute its actions through the host by
    // calling the core and replaying... simplest: use the core's send() and
    // hand actions to the host's network service by re-dispatching.
    // SrmSenderCore::send returns Actions; feed them through a tiny shim:
    auto send_payload = [&](std::uint8_t salt) {
        Actions actions = sender.send(simulator.now(), payload(32, salt));
        for (auto& action : actions) {
            if (auto* m = std::get_if<SendMulticast>(&action))
                net.multicast(topo.source, m->packet, m->scope);
            if (auto* u = std::get_if<SendUnicast>(&action))
                net.unicast(topo.source, u->to, u->packet);
        }
    };

    send_payload(1);
    simulator.run_for(secs(1.0));
    EXPECT_EQ(delivered, 9u);

    // Drop the next packet at one site's tail: SRM recovery must repair it.
    net.set_loss(topo.backbone, topo.sites[0].router,
                 std::make_unique<sim::BernoulliLoss>(1.0));
    send_payload(2);
    simulator.run_for(millis(50));
    net.set_loss(topo.backbone, topo.sites[0].router,
                 std::make_unique<sim::BernoulliLoss>(0.0));
    simulator.run_for(secs(10.0));
    EXPECT_EQ(delivered, 18u);

    // The defining wb cost: repair requests and repairs were multicast to
    // the whole group, so even site 2's links carried them.
    std::uint64_t foreign_repair_traffic = 0;
    for (NodeId r : topo.sites[2].receivers) {
        const auto& stats = net.link(topo.sites[2].router, r)->stats();
        foreign_repair_traffic +=
            stats.packets_of(PacketType::kNack) +
            stats.packets_of(PacketType::kRetransmission);
    }
    EXPECT_GT(foreign_repair_traffic, 0u);
}

// --- positive-ACK baseline ---------------------------------------------------

TEST(AckProtocol, EveryReceiverAcksEveryPacket) {
    AckProtocolConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.source = kSource;
    config.receivers = {NodeId{10}, NodeId{11}, NodeId{12}};
    AckSenderCore sender{config};

    auto actions = sender.send(at(1.0), payload(16));
    EXPECT_EQ(count_sent(actions, PacketType::kData), 1u);
    EXPECT_EQ(sender.unacked_packets(), 1u);

    for (std::uint32_t node : {10u, 11u, 12u}) {
        Packet ack{Header{kGroup, kSource, NodeId{node}}, AckBody{EpochId{0}, SeqNum{1}}};
        sender.on_packet(at(1.1), ack);
    }
    EXPECT_EQ(sender.acks_received(), 3u);
    EXPECT_EQ(sender.unacked_packets(), 0u);
    EXPECT_EQ(sender.buffered_bytes(), 0u);
}

TEST(AckProtocol, TimeoutRetransmitsUnicastToMissing) {
    AckProtocolConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.source = kSource;
    config.receivers = {NodeId{10}, NodeId{11}, NodeId{12}};
    AckSenderCore sender{config};

    auto actions = sender.send(at(1.0), payload(16));
    auto timer = find_timer(actions, TimerKind::kAckWait);
    ASSERT_TRUE(timer.has_value());

    // Only node 10 acks.
    sender.on_packet(at(1.1), Packet{Header{kGroup, kSource, NodeId{10}},
                                     AckBody{EpochId{0}, SeqNum{1}}});
    auto retry = sender.on_timer(timer->deadline, timer->id);
    const auto rt = sent_of_type(retry, PacketType::kRetransmission);
    ASSERT_EQ(rt.size(), 2u);  // 11 and 12
    EXPECT_EQ(sender.retransmissions(), 2u);
}

TEST(AckProtocol, GivesUpAfterMaxRetries) {
    AckProtocolConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.source = kSource;
    config.receivers = {NodeId{10}};
    config.max_retries = 2;
    AckSenderCore sender{config};
    sender.send(at(1.0), payload(16));
    Actions last;
    for (int i = 0; i < 5; ++i) last = sender.on_timer(at(2.0 + i), {TimerKind::kAckWait, 1});
    EXPECT_EQ(sender.unacked_packets(), 0u);  // abandoned
    EXPECT_EQ(test::notices(last, NoticeKind::kRecoveryFailed).size(), 0u);  // already reported
}

TEST(AckProtocol, ReceiverAcksDuplicates) {
    AckProtocolConfig config;
    config.self = NodeId{10};
    config.group = kGroup;
    config.source = kSource;
    AckReceiverCore receiver{config};
    auto first = receiver.on_packet(at(1.0), data(SeqNum{1}));
    EXPECT_EQ(count_sent(first, PacketType::kAck), 1u);
    EXPECT_EQ(test::deliveries(first).size(), 1u);
    auto dup = receiver.on_packet(at(1.1), data(SeqNum{1}));
    EXPECT_EQ(count_sent(dup, PacketType::kAck), 1u);  // re-acks
    EXPECT_EQ(test::deliveries(dup).size(), 0u);       // no redelivery
}

}  // namespace
}  // namespace lbrm::baseline
