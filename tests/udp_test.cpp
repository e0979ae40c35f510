// Real-socket transport tests: loopback UDP endpoints running the actual
// LBRM cores through the epoll reactor -- sockets, timers, encode/decode on
// the wire, and loss recovery with an artificial drop.
#include <gtest/gtest.h>

#include "transport/reactor.hpp"
#include "transport/udp_endpoint.hpp"
#include "transport/udp_socket.hpp"

namespace lbrm::transport {
namespace {

TEST(SockAddr, ParseAndFormat) {
    const SockAddr a = SockAddr::parse("127.0.0.1:9000");
    EXPECT_EQ(a.ip, 0x7F000001u);
    EXPECT_EQ(a.port, 9000);
    EXPECT_EQ(a.to_string(), "127.0.0.1:9000");
    EXPECT_THROW(SockAddr::parse("no-colon"), std::invalid_argument);
    EXPECT_THROW(SockAddr::parse("999.0.0.1:1"), std::invalid_argument);
    EXPECT_THROW(SockAddr::parse("127.0.0.1:70000"), std::invalid_argument);
    EXPECT_TRUE(SockAddr::parse("239.1.2.3:5000").is_multicast());
    EXPECT_FALSE(a.is_multicast());
}

TEST(UdpSocket, LoopbackSendReceive) {
    UdpSocket receiver = UdpSocket::bind(SockAddr::loopback(0));
    UdpSocket sender = UdpSocket::bind(SockAddr::loopback(0));
    const SockAddr dest = receiver.local_addr();

    const std::vector<std::uint8_t> message{1, 2, 3, 4, 5};
    ASSERT_TRUE(sender.send_to(dest, message));

    // Loopback delivery is immediate but give the kernel a poll's grace.
    std::array<std::uint8_t, 64> buffer;
    std::optional<UdpSocket::Datagram> got;
    for (int i = 0; i < 100 && !got; ++i) got = receiver.recv_into(buffer);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size, 5u);
    EXPECT_EQ(buffer[0], 1);
    EXPECT_EQ(got->from, sender.local_addr());
}

TEST(Reactor, TimersFireInOrder) {
    Reactor reactor;
    std::vector<int> order;
    const TimePoint now = reactor.now();
    reactor.arm_timer(now + millis(30), [&] { order.push_back(2); });
    reactor.arm_timer(now + millis(10), [&] {
        order.push_back(1);
    });
    reactor.arm_timer(now + millis(50), [&] {
        order.push_back(3);
        reactor.stop();
    });
    reactor.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, CancelledTimerDoesNotFire) {
    Reactor reactor;
    bool fired = false;
    const auto token = reactor.arm_timer(reactor.now() + millis(10), [&] { fired = true; });
    reactor.cancel_timer(token);
    reactor.arm_timer(reactor.now() + millis(30), [&] { reactor.stop(); });
    reactor.run();
    EXPECT_FALSE(fired);
}

/// Build a three-endpoint deployment on loopback: source+primary+receiver,
/// wired in unicast fan-out mode (works in any container).
struct LoopbackDeployment {
    Reactor reactor;
    std::unique_ptr<UdpEndpoint> source;
    std::unique_ptr<UdpEndpoint> primary;
    std::unique_ptr<UdpEndpoint> receiver;

    static constexpr NodeId kSourceId{1};
    static constexpr NodeId kPrimaryId{2};
    static constexpr NodeId kReceiverId{3};
    static constexpr GroupId kGroup{1};

    LoopbackDeployment() {
        auto make = [this](NodeId id) {
            UdpEndpointConfig config;
            config.self = id;
            return std::make_unique<UdpEndpoint>(reactor, std::move(config));
        };
        source = make(kSourceId);
        primary = make(kPrimaryId);
        receiver = make(kReceiverId);

        // Everyone learns everyone's ephemeral address.
        for (auto* a : {source.get(), primary.get(), receiver.get()}) {
            a->add_peer(kSourceId, source->unicast_addr());
            a->add_peer(kPrimaryId, primary->unicast_addr());
            a->add_peer(kReceiverId, receiver->unicast_addr());
        }
    }

    void pump_for(Duration d) {
        const TimePoint deadline = reactor.now() + d;
        while (reactor.now() < deadline) reactor.run_once(millis(5));
    }
};

TEST(UdpEndpoint, EndToEndDeliveryOverRealSockets) {
    LoopbackDeployment net;

    SenderConfig sender_config;
    sender_config.self = LoopbackDeployment::kSourceId;
    sender_config.group = LoopbackDeployment::kGroup;
    sender_config.primary_logger = LoopbackDeployment::kPrimaryId;
    sender_config.stat_ack.enabled = false;
    net.source->protocol().add_sender(sender_config);

    LoggerConfig logger_config;
    logger_config.self = LoopbackDeployment::kPrimaryId;
    logger_config.group = LoopbackDeployment::kGroup;
    logger_config.source = LoopbackDeployment::kSourceId;
    logger_config.role = LoggerRole::kPrimary;
    net.primary->protocol().add_logger(logger_config, 1);

    ReceiverConfig receiver_config;
    receiver_config.self = LoopbackDeployment::kReceiverId;
    receiver_config.group = LoopbackDeployment::kGroup;
    receiver_config.source = LoopbackDeployment::kSourceId;
    receiver_config.logger = LoopbackDeployment::kPrimaryId;
    std::vector<Payload> delivered;
    AppHandlers handlers;
    handlers.on_data = [&](TimePoint, const DeliverData& d) {
        delivered.push_back(d.payload);
    };
    net.receiver->protocol().add_receiver(receiver_config, handlers);

    const TimePoint now = net.reactor.now();
    net.source->protocol().start(now);
    net.primary->protocol().start(now);
    net.receiver->protocol().start(now);

    const std::vector<std::uint8_t> message{'h', 'i', '!', 0x00, 0xFF};
    net.source->protocol().send(net.reactor.now(), message);
    net.pump_for(millis(200));

    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], message);
    // The primary logged the packet via LogStore.
    EXPECT_GE(net.primary->datagrams_received(), 1u);
}

TEST(UdpEndpoint, LostDataRecoveredFromLoggerOverRealSockets) {
    LoopbackDeployment net;

    SenderConfig sender_config;
    sender_config.self = LoopbackDeployment::kSourceId;
    sender_config.group = LoopbackDeployment::kGroup;
    sender_config.primary_logger = LoopbackDeployment::kPrimaryId;
    sender_config.stat_ack.enabled = false;
    // Fast heartbeats so the gap is revealed quickly in real time.
    sender_config.heartbeat.h_min = millis(30);
    auto& sender = net.source->protocol().add_sender(sender_config);
    (void)sender;

    LoggerConfig logger_config;
    logger_config.self = LoopbackDeployment::kPrimaryId;
    logger_config.group = LoopbackDeployment::kGroup;
    logger_config.source = LoopbackDeployment::kSourceId;
    logger_config.role = LoggerRole::kPrimary;
    net.primary->protocol().add_logger(logger_config, 1);

    ReceiverConfig receiver_config;
    receiver_config.self = LoopbackDeployment::kReceiverId;
    receiver_config.group = LoopbackDeployment::kGroup;
    receiver_config.source = LoopbackDeployment::kSourceId;
    receiver_config.logger = LoopbackDeployment::kPrimaryId;
    receiver_config.heartbeat.h_min = millis(30);
    std::vector<SeqNum> delivered;
    std::vector<bool> recovered_flags;
    AppHandlers handlers;
    handlers.on_data = [&](TimePoint, const DeliverData& d) {
        delivered.push_back(d.seq);
        recovered_flags.push_back(d.recovered);
    };
    net.receiver->protocol().add_receiver(receiver_config, handlers);

    const TimePoint now = net.reactor.now();
    net.source->protocol().start(now);
    net.primary->protocol().start(now);
    net.receiver->protocol().start(now);

    // Packet 1 delivered normally.
    net.source->protocol().send(net.reactor.now(), std::vector<std::uint8_t>{1});
    net.pump_for(millis(100));

    // "Lose" packet 2 at the receiver: remove the receiver from the
    // source's directory so the fan-out multicast misses it, while the
    // LogStore to the primary still goes through.
    net.source->add_peer(LoopbackDeployment::kReceiverId, SockAddr::loopback(1));
    net.source->protocol().send(net.reactor.now(), std::vector<std::uint8_t>{2});
    net.pump_for(millis(50));
    net.source->add_peer(LoopbackDeployment::kReceiverId, net.receiver->unicast_addr());

    // Heartbeats reveal the gap; the receiver NACKs the primary logger and
    // recovers seq 2 as a retransmission.
    net.pump_for(millis(700));

    ASSERT_GE(delivered.size(), 2u);
    bool saw_recovered_2 = false;
    for (std::size_t i = 0; i < delivered.size(); ++i)
        if (delivered[i] == SeqNum{2} && recovered_flags[i]) saw_recovered_2 = true;
    EXPECT_TRUE(saw_recovered_2);
}

}  // namespace
}  // namespace lbrm::transport

namespace lbrm::transport {
namespace {

/// Real IP multicast on loopback; skipped cleanly where the kernel or
/// container forbids group membership.
TEST(UdpMulticast, LoopbackGroupDelivery) {
    const SockAddr group = SockAddr::parse("239.255.42.99:0");
    std::unique_ptr<UdpSocket> listener;
    SockAddr group_addr{};
    try {
        listener = std::make_unique<UdpSocket>(UdpSocket::bind(SockAddr{0, 0}));
        group_addr = SockAddr{group.ip, listener->local_addr().port};
        listener->join_multicast(group_addr);
    } catch (const std::system_error& e) {
        GTEST_SKIP() << "IP multicast unavailable here: " << e.what();
    }

    UdpSocket sender = UdpSocket::bind(SockAddr::loopback(0));
    sender.set_multicast_ttl(1);
    const std::vector<std::uint8_t> message{9, 8, 7};
    if (!sender.send_to(group_addr, message))
        GTEST_SKIP() << "multicast send refused (no route)";

    std::array<std::uint8_t, 64> buffer;
    std::optional<UdpSocket::Datagram> got;
    for (int i = 0; i < 2000 && !got; ++i) got = listener->recv_into(buffer);
    if (!got) GTEST_SKIP() << "multicast loopback not delivered (no mcast route)";
    EXPECT_EQ(got->size, 3u);
    EXPECT_EQ(buffer[0], 9);
}

TEST(UdpEndpoint, DynamicGroupJoinLeave) {
    // Endpoint-level join/leave of a configured group address; exercises
    // the Section 7 retransmission-channel plumbing on real sockets.
    Reactor reactor;
    UdpEndpointConfig config;
    config.self = NodeId{1};
    config.group_addrs[GroupId{9}] = SockAddr::parse("239.255.43.1:47123");
    UdpEndpoint endpoint{reactor, std::move(config)};

    try {
        endpoint.join_group(GroupId{9});
    } catch (const std::system_error& e) {
        GTEST_SKIP() << "IP multicast unavailable here: " << e.what();
    }
    endpoint.join_group(GroupId{9});   // idempotent
    endpoint.leave_group(GroupId{9});
    endpoint.leave_group(GroupId{9});  // idempotent
    endpoint.join_group(GroupId{42});  // unknown group: silently ignored
    SUCCEED();
}

}  // namespace
}  // namespace lbrm::transport
