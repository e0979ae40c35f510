// ProtocolHost tests: action execution against fake driver services, timer
// keying across cores, packet fan-in to all attached cores, datagram
// decode-and-dispatch, generic-core attachment and inject(), the one table
// of cores (attach order, tags as indices, growth mid-dispatch), and its
// receivers' attach order whatever woke them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "runtime/protocol_host.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::payload;

/// Records everything the host asks the driver to do.
class FakeNetwork final : public NetworkService {
public:
    struct Sent {
        bool unicast;
        NodeId to;
        Packet packet;
    };
    std::vector<Sent> sent;
    std::vector<GroupId> joined;
    std::vector<GroupId> left;

    void send_unicast(NodeId to, const Packet& packet) override {
        sent.push_back({true, to, packet});
    }
    void send_multicast(const Packet& packet, McastScope) override {
        sent.push_back({false, kNoNode, packet});
    }
    void join_group(GroupId group) override { joined.push_back(group); }
    void leave_group(GroupId group) override { left.push_back(group); }

    [[nodiscard]] std::size_t count(PacketType type) const {
        std::size_t n = 0;
        for (const auto& s : sent)
            if (s.packet.type() == type) ++n;
        return n;
    }
};

class FakeTimers final : public TimerService {
public:
    struct Key {
        std::uint32_t tag;
        TimerId id;
        friend bool operator<(const Key& a, const Key& b) {
            if (a.tag != b.tag) return a.tag < b.tag;
            return a.id < b.id;
        }
    };
    std::map<Key, TimePoint> armed;

    void arm(std::uint32_t tag, TimerId id, TimePoint deadline) override {
        armed[{tag, id}] = deadline;
    }
    void cancel(std::uint32_t tag, TimerId id) override { armed.erase({tag, id}); }
};

constexpr GroupId kGroup{1};
constexpr NodeId kSource{1};
constexpr NodeId kPrimary{2};
constexpr NodeId kReceiver{3};

TEST(ProtocolHost, SenderActionsReachTheDriver) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    SenderConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.primary_logger = kPrimary;
    config.stat_ack.enabled = false;
    SenderCore& sender = host.add_sender(config);
    host.start(at(0.0));

    // start() armed the heartbeat under the sender's tag: its index, 0.
    EXPECT_TRUE(timers.armed.contains({0, {TimerKind::kHeartbeat, 0}}));

    host.inject(at(1.0), sender, sender.send(at(1.0), payload(32)));
    EXPECT_EQ(network.count(PacketType::kData), 1u);
    EXPECT_EQ(network.count(PacketType::kLogStore), 1u);
    EXPECT_TRUE(timers.armed.contains({0, {TimerKind::kLogStoreRetry, 0}}));
}

TEST(ProtocolHost, PacketsFanInToEveryCore) {
    // A host that is simultaneously a receiver for the group and a
    // secondary logger (the paper's co-hosting recursion): one incoming
    // data packet must reach both cores.
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    ReceiverConfig receiver_config;
    receiver_config.self = kReceiver;
    receiver_config.group = kGroup;
    receiver_config.source = kSource;
    receiver_config.logger = kPrimary;
    std::vector<SeqNum> delivered;
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [&](TimePoint, NodeId, const DeliverData& d) {
        delivered.push_back(d.seq);
    };
    host.add_receiver(receiver_config, handlers);

    LoggerConfig logger_config;
    logger_config.self = kReceiver;
    logger_config.group = kGroup;
    logger_config.source = kSource;
    logger_config.role = LoggerRole::kSecondary;
    logger_config.upstream = kPrimary;
    LoggerCore& logger = host.add_logger(logger_config, 7);

    host.start(at(0.0));
    Packet data{Header{kGroup, kSource, kSource},
                DataBody{SeqNum{1}, EpochId{0}, payload(16)}};
    host.on_packet(at(1.0), data);

    EXPECT_EQ(delivered.size(), 1u);            // receiver delivered it
    EXPECT_TRUE(logger.store().contains(SeqNum{1}));  // logger logged it
}

TEST(ProtocolHost, TimerKeysAreScopedPerCore) {
    // Two receivers on one host: both arm kIdle; the keys must not collide.
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    for (std::uint32_t group : {1u, 2u}) {
        ReceiverConfig config;
        config.self = kReceiver;
        config.group = GroupId{group};
        config.source = kSource;
        config.logger = kPrimary;
        host.add_receiver(config);
    }
    host.start(at(0.0));

    int idle_timers = 0;
    for (const auto& [key, deadline] : timers.armed)
        if (key.id.kind == TimerKind::kIdle) ++idle_timers;
    EXPECT_EQ(idle_timers, 2);
}

TEST(ProtocolHost, TimerDispatchReachesTheRightCore) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    SenderConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.primary_logger = kPrimary;
    config.stat_ack.enabled = false;
    SenderCore& sender = host.add_sender(config);
    host.start(at(0.0));

    host.on_timer(at(0.25), 0, {TimerKind::kHeartbeat, 0});
    EXPECT_EQ(sender.heartbeats_sent(), 1u);
    EXPECT_EQ(network.count(PacketType::kHeartbeat), 1u);

    // A timer for an unknown tag is ignored.
    host.on_timer(at(0.5), 99, {TimerKind::kHeartbeat, 0});
    EXPECT_EQ(sender.heartbeats_sent(), 1u);
}

TEST(ProtocolHost, DatagramPathDecodesAndDrops) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    ReceiverConfig config;
    config.self = kReceiver;
    config.group = kGroup;
    config.source = kSource;
    config.logger = kPrimary;
    std::vector<SeqNum> delivered;
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [&](TimePoint, NodeId, const DeliverData& d) {
        delivered.push_back(d.seq);
    };
    host.add_receiver(config, handlers);
    host.start(at(0.0));

    Packet data{Header{kGroup, kSource, kSource},
                DataBody{SeqNum{1}, EpochId{0}, payload(8)}};
    const auto wire = encode(data);
    host.on_datagram(at(1.0), wire);
    EXPECT_EQ(delivered.size(), 1u);

    // Garbage is silently ignored.
    const std::vector<std::uint8_t> junk{0x00, 0x01, 0x02};
    host.on_datagram(at(1.1), junk);
    EXPECT_EQ(delivered.size(), 1u);
}

/// Minimal generic core: counts starts, echoes a heartbeat on any packet.
class EchoCore final : public CoreBase {
public:
    int started = 0;
    int packets = 0;
    int timers = 0;

    [[nodiscard]] NodeId self() const override { return kReceiver; }
    Actions start(TimePoint) override {
        ++started;
        return {};
    }
    Actions on_packet(TimePoint, const Packet& packet) override {
        ++packets;
        Actions actions;
        actions.push_back(SendMulticast{
            Packet{packet.header, HeartbeatBody{SeqNum{0}, 0}}});
        return actions;
    }
    Actions on_timer(TimePoint, TimerId) override {
        ++timers;
        return {};
    }
};

TEST(ProtocolHost, GenericCoreAttachAndInject) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    auto owned = std::make_unique<EchoCore>();
    EchoCore* echo = owned.get();
    CoreBase& attached = host.add_core(std::move(owned));
    EXPECT_EQ(&attached, echo);
    EXPECT_EQ(host.core_count(), 1u);

    host.start(at(0.0));
    EXPECT_EQ(echo->started, 1);

    Packet data{Header{kGroup, kSource, kSource},
                DataBody{SeqNum{1}, EpochId{0}, payload(4)}};
    host.on_packet(at(1.0), data);
    EXPECT_EQ(echo->packets, 1);
    EXPECT_EQ(network.count(PacketType::kHeartbeat), 1u);

    // inject() executes externally produced actions under the core's tag.
    Actions extra;
    extra.push_back(StartTimer{{TimerKind::kHeartbeat, 7}, at(9.0)});
    extra.push_back(JoinGroup{GroupId{42}});
    host.inject(at(2.0), *echo, std::move(extra));
    EXPECT_EQ(timers.armed.size(), 1u);
    ASSERT_EQ(network.joined.size(), 1u);
    EXPECT_EQ(network.joined[0], GroupId{42});

    // The injected timer dispatches back into the generic core.
    const auto key = timers.armed.begin()->first;
    host.on_timer(at(9.0), key.tag, key.id);
    EXPECT_EQ(echo->timers, 1);
}

TEST(ProtocolHost, InjectForUnknownCoreIsIgnored) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};
    EchoCore stray;  // never attached
    Actions actions;
    actions.push_back(JoinGroup{GroupId{1}});
    host.inject(at(0.0), stray, std::move(actions));
    EXPECT_TRUE(network.joined.empty());
}

TEST(ProtocolHost, JoinLeaveActionsReachTheDriver) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};

    ReceiverConfig config;
    config.self = kReceiver;
    config.group = kGroup;
    config.source = kSource;
    config.logger = kPrimary;
    config.retrans_channel = GroupId{2};
    host.add_receiver(config);
    host.start(at(0.0));

    // Loss on the stream triggers a JoinGroup of the retrans channel.
    Packet d1{Header{kGroup, kSource, kSource}, DataBody{SeqNum{1}, EpochId{0}, payload(4)}};
    Packet d3{Header{kGroup, kSource, kSource}, DataBody{SeqNum{3}, EpochId{0}, payload(4)}};
    host.on_packet(at(1.0), d1);
    host.on_packet(at(1.1), d3);
    ASSERT_EQ(network.joined.size(), 1u);
    EXPECT_EQ(network.joined[0], GroupId{2});
}

// --- the one table of cores -------------------------------------------------

/// Logs every timer arm, in order.
class ArmLog final : public TimerService {
public:
    struct Arm {
        std::uint32_t tag;
        TimerId id;
        TimePoint deadline;
        friend bool operator==(const Arm&, const Arm&) = default;
        friend void PrintTo(const Arm& a, std::ostream* os) {
            *os << "{tag " << a.tag << ", kind " << static_cast<int>(a.id.kind) << ", arg "
                << a.id.arg << ", at " << (a.deadline - time_zero()).count() << "}";
        }
    };
    std::vector<Arm> arms;

    void arm(std::uint32_t tag, TimerId id, TimePoint deadline) override {
        arms.push_back({tag, id, deadline});
    }
    void cancel(std::uint32_t, TimerId) override {}

    /// The log reduced to each timer's last arm, in the order those last
    /// arms happened: what a dispatch left armed, in the order the cores
    /// set it.  A wake's own idle-watchdog arm, superseded by the woken
    /// core's re-arm, drops out.
    [[nodiscard]] std::vector<Arm> last_arms() const {
        std::vector<Arm> out;
        for (std::size_t i = 0; i < arms.size(); ++i) {
            const auto later = std::find_if(arms.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                            arms.end(), [&](const Arm& a) {
                                                return a.tag == arms[i].tag && a.id == arms[i].id;
                                            });
            if (later == arms.end()) out.push_back(arms[i]);
        }
        return out;
    }
};

/// A generic core that arms one timer on start() and on every packet, so
/// the driver's log shows when the host reached it; counts its timers.
class ProbeCore final : public CoreBase {
public:
    static constexpr TimerId kProbe{TimerKind::kHeartbeat, 7};
    int timers = 0;

    [[nodiscard]] NodeId self() const override { return kReceiver; }
    Actions start(TimePoint now) override { return arm(now); }
    Actions on_packet(TimePoint now, const Packet&) override { return arm(now); }
    Actions on_timer(TimePoint, TimerId) override {
        ++timers;
        return {};
    }

private:
    static Actions arm(TimePoint now) {
        Actions actions;
        actions.push_back(StartTimer{kProbe, now + secs(1.0)});
        return actions;
    }
};

constexpr NodeId kUpstream{5};

LoggerConfig secondary_logger_config() {
    LoggerConfig config;
    config.self = kReceiver;
    config.group = kGroup;
    config.source = kSource;
    config.role = LoggerRole::kSecondary;
    config.upstream = kUpstream;
    return config;
}

Packet data_packet(std::uint32_t seq) {
    return Packet{Header{kGroup, kSource, kSource},
                  DataBody{SeqNum{seq}, EpochId{0}, payload(4)}};
}

/// One core of each kind on one host, attached receiver, sender, logger,
/// generic: tags 0 to 3.
struct OneOfEach {
    ReceiverCore* receiver;
    SenderCore* sender;
    LoggerCore* logger;
    ProbeCore* probe;
};

OneOfEach attach_one_of_each(ProtocolHost& host) {
    ReceiverConfig receiver_config;
    receiver_config.self = kReceiver;
    receiver_config.group = kGroup;
    receiver_config.source = kSource;
    receiver_config.logger = kPrimary;
    SenderConfig sender_config;
    sender_config.self = kSource;
    sender_config.group = kGroup;
    sender_config.primary_logger = kPrimary;
    sender_config.stat_ack.enabled = false;
    auto probe = std::make_unique<ProbeCore>();
    OneOfEach cores{};
    cores.receiver = &host.add_receiver(receiver_config);
    cores.sender = &host.add_sender(sender_config);
    cores.logger = &host.add_logger(secondary_logger_config(), 7);
    cores.probe = probe.get();
    host.add_core(std::move(probe));
    return cores;
}

/// The (tag, kind) of every arm, in order.
std::vector<std::pair<std::uint32_t, TimerKind>> tags_and_kinds(
    const std::vector<ArmLog::Arm>& arms) {
    std::vector<std::pair<std::uint32_t, TimerKind>> out;
    for (const ArmLog::Arm& a : arms) out.emplace_back(a.tag, a.id.kind);
    return out;
}

TEST(CoreTable, StartAndPacketsRunInAttachOrder) {
    FakeNetwork network;
    ArmLog timers;
    ProtocolHost host{network, timers};
    attach_one_of_each(host);
    using Arms = std::vector<std::pair<std::uint32_t, TimerKind>>;

    // The receiver arms its idle watchdog, then the sender its first
    // heartbeat; the logger's start() arms nothing; the probe comes last.
    host.start(at(0.0));
    EXPECT_EQ(tags_and_kinds(timers.arms), (Arms{{0, TimerKind::kIdle},
                                                 {1, TimerKind::kHeartbeat},
                                                 {3, TimerKind::kHeartbeat}}));

    // After seq 1, seq 3 opens a gap at the receiver and at the logger,
    // which each arm a NACK delay; the sender ignores data.
    host.on_packet(at(1.0), data_packet(1));
    timers.arms.clear();
    host.on_packet(at(1.1), data_packet(3));
    EXPECT_EQ(tags_and_kinds(timers.arms), (Arms{{0, TimerKind::kIdle},
                                                 {0, TimerKind::kNackDelay},
                                                 {2, TimerKind::kNackDelay},
                                                 {3, TimerKind::kHeartbeat}}));
}

TEST(CoreTable, TimerTagIndexesTheTable) {
    FakeNetwork network;
    FakeTimers timers;
    ProtocolHost host{network, timers};
    const OneOfEach cores = attach_one_of_each(host);
    host.start(at(0.0));
    host.on_packet(at(1.0), data_packet(1));
    host.on_packet(at(1.1), data_packet(3));
    ASSERT_TRUE(timers.armed.contains({0, {TimerKind::kNackDelay, 0}}));
    ASSERT_TRUE(timers.armed.contains({2, {TimerKind::kNackDelay, 0}}));

    // The same timer id under two tags: each reaches its own core only.
    host.on_timer(at(1.2), 2, {TimerKind::kNackDelay, 0});
    EXPECT_EQ(cores.logger->upstream_fetches(), 1u);
    EXPECT_EQ(cores.receiver->nacks_sent(), 0u);
    host.on_timer(at(1.2), 0, {TimerKind::kNackDelay, 0});
    EXPECT_EQ(cores.receiver->nacks_sent(), 1u);
    EXPECT_EQ(cores.logger->upstream_fetches(), 1u);

    host.on_timer(at(1.25), 1, {TimerKind::kHeartbeat, 0});
    EXPECT_EQ(cores.sender->heartbeats_sent(), 1u);
    host.on_timer(at(2.0), 3, ProbeCore::kProbe);
    EXPECT_EQ(cores.probe->timers, 1);

    // A tag past the table reaches no core.
    const std::size_t sent = network.sent.size();
    host.on_timer(at(3.0), 4, {TimerKind::kHeartbeat, 0});
    host.on_timer(at(3.0), TimerService::kTagLimit - 1, ProbeCore::kProbe);
    EXPECT_EQ(network.sent.size(), sent);
    EXPECT_EQ(cores.sender->heartbeats_sent(), 1u);
    EXPECT_EQ(cores.probe->timers, 1);
}

TEST(CoreTable, AttachFromAHandlerGrowsTheTableMidDispatch) {
    // Two receivers fill the table's first heap block; the first delivery
    // attaches a logger, a third entry, so the table moves to a new block
    // while the host is still dispatching from the old one.
    FakeNetwork network;
    ArmLog timers;
    ProtocolHost host{network, timers};
    LoggerCore* logger = nullptr;
    std::vector<ProbeCore*> probes;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deliveries;
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [&](TimePoint, NodeId self, const DeliverData& d) {
        deliveries.emplace_back(self.value(), d.seq.value());
        if (logger == nullptr) logger = &host.add_logger(secondary_logger_config(), 7);
    };
    handlers->on_notice = [&](TimePoint, NodeId, const Notice& n) {
        if (n.kind != NoticeKind::kLossDetected || !probes.empty()) return;
        for (int i = 0; i < 2; ++i) {
            auto probe = std::make_unique<ProbeCore>();
            probes.push_back(probe.get());
            host.add_core(std::move(probe));
        }
    };
    auto policy = std::make_shared<ReceiverConfig>();
    policy->group = kGroup;
    policy->source = kSource;
    for (const NodeId id : {NodeId{10}, NodeId{11}})
        host.add_receiver(policy, id, kPrimary, kNoNode, handlers);
    host.start(at(0.0));

    timers.arms.clear();
    host.on_packet(at(1.0), data_packet(1));
    ASSERT_NE(logger, nullptr);
    EXPECT_EQ(host.core_count(), 3u);
    // The second receiver still ran, under its own tag, and the logger,
    // attached behind the dispatch, saw the packet too.
    EXPECT_EQ(deliveries,
              (std::vector<std::pair<std::uint32_t, std::uint32_t>>{{10, 1}, {11, 1}}));
    EXPECT_EQ(tags_and_kinds(timers.arms),
              (std::vector<std::pair<std::uint32_t, TimerKind>>{{0, TimerKind::kIdle},
                                                                {1, TimerKind::kIdle}}));
    EXPECT_TRUE(logger->store().contains(SeqNum{1}));

    // seq 3 opens a gap.  The first receiver's loss notice attaches two
    // probes, and the fifth entry moves the table again; its delivery of
    // seq 3 comes later in the same action list and still reaches the
    // handler.
    deliveries.clear();
    host.on_packet(at(1.1), data_packet(3));
    ASSERT_EQ(probes.size(), 2u);
    EXPECT_EQ(host.core_count(), 5u);
    EXPECT_EQ(deliveries,
              (std::vector<std::pair<std::uint32_t, std::uint32_t>>{{10, 3}, {11, 3}}));
    EXPECT_TRUE(logger->store().contains(SeqNum{3}));
}

// --- the receiver table -------------------------------------------------------

enum class Wake { kEager, kBeforeFirstPacket, kFromFirstDelivery };

/// What a host with three receivers of one group did with three packets:
/// every delivery its handler saw, as (self, seq), and per packet the
/// timers the dispatch left armed (ArmLog::last_arms).
struct HostRun {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deliveries;
    std::vector<std::vector<ArmLog::Arm>> arms;
};

/// The receivers are eager, or dormant with the third woken by
/// receiver_for() either after start() or from inside the first
/// receiver's first delivery.
HostRun run_three_receivers(Wake wake) {
    FakeNetwork network;
    ArmLog timers;
    ProtocolHost host{network, timers};
    const NodeId ids[] = {NodeId{10}, NodeId{11}, NodeId{12}};
    HostRun run;

    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [&](TimePoint, NodeId self, const DeliverData& d) {
        run.deliveries.emplace_back(self.value(), d.seq.value());
        if (wake == Wake::kFromFirstDelivery && self == ids[0]) {
            ASSERT_NE(host.receiver_for(ids[2]), nullptr);  // reentrant wake
        }
    };
    auto tmpl = std::make_shared<ProtocolHost::DormantReceiverTemplate>();
    tmpl->config.group = kGroup;
    tmpl->config.source = kSource;
    tmpl->handlers = handlers;
    for (const NodeId id : ids) {
        if (wake == Wake::kEager)
            host.add_receiver(std::shared_ptr<const ReceiverConfig>(tmpl, &tmpl->config), id,
                              kPrimary, kNoNode, handlers);
        else
            host.add_dormant_receiver(tmpl, id, kPrimary);
    }
    host.start(at(0.0));
    if (wake == Wake::kBeforeFirstPacket) {
        EXPECT_NE(host.receiver_for(ids[2]), nullptr);
    }

    // seq 2 is lost: the third packet opens a gap, so NACK timers arm too.
    const Packet packets[] = {
        Packet{Header{kGroup, kSource, kSource}, DataBody{SeqNum{1}, EpochId{0}, payload(4)}},
        Packet{Header{kGroup, kSource, kSource}, HeartbeatBody{SeqNum{1}, 0}},
        Packet{Header{kGroup, kSource, kSource}, DataBody{SeqNum{3}, EpochId{0}, payload(4)}}};
    double t = 1.0;
    for (const Packet& packet : packets) {
        timers.arms.clear();
        host.on_packet(at(t), packet);
        run.arms.push_back(timers.last_arms());
        t += 0.1;
    }
    EXPECT_EQ(host.dormant_count(), 0u);
    return run;
}

TEST(ReceiverTable, EarlyWakeKeepsAttachOrder) {
    const HostRun eager = run_three_receivers(Wake::kEager);
    ASSERT_EQ(eager.deliveries.size(), 6u);  // three receivers x two data packets
    const HostRun woken = run_three_receivers(Wake::kBeforeFirstPacket);
    EXPECT_EQ(woken.deliveries, eager.deliveries);
    EXPECT_EQ(woken.arms, eager.arms);
}

TEST(ReceiverTable, ReentrantWakeSeesThePacketBeingDispatched) {
    const HostRun eager = run_three_receivers(Wake::kEager);
    ASSERT_EQ(eager.deliveries.size(), 6u);
    const HostRun woken = run_three_receivers(Wake::kFromFirstDelivery);
    EXPECT_EQ(woken.deliveries, eager.deliveries);
    EXPECT_EQ(woken.arms, eager.arms);
}

}  // namespace
}  // namespace lbrm
