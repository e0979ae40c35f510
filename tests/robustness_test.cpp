// Adversarial robustness: protocol cores must tolerate any syntactically
// valid packet at any time -- wrong state, absurd field values, mismatched
// roles -- without crashing, and long runs must keep memory bounded.
#include <gtest/gtest.h>

#include <random>

#include "core/logger.hpp"
#include "core/receiver.hpp"
#include "core/sender.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::payload;

constexpr GroupId kGroup{1};
constexpr NodeId kSource{1};
constexpr NodeId kPrimary{2};

/// Generate an arbitrary (valid-format) packet from random state.
Packet random_packet(std::mt19937& gen) {
    std::uniform_int_distribution<std::uint32_t> u32(0, 0xFFFFFFFFu);
    std::uniform_int_distribution<int> type(1, 19);
    std::uniform_int_distribution<int> small(0, 64);
    std::uniform_real_distribution<double> prob(-1.0, 2.0);  // deliberately out of range

    const Header header{GroupId{u32(gen) % 3},  // sometimes matching group 1
                        NodeId{u32(gen) % 8}, NodeId{u32(gen) % 8}};
    const SeqNum seq{u32(gen) % 128};
    const EpochId epoch{u32(gen) % 8};
    std::vector<std::uint8_t> body(static_cast<std::size_t>(small(gen)), 0x5A);

    switch (type(gen)) {
        case 1: return {header, DataBody{seq, epoch, body}};
        case 2: return {header, HeartbeatBody{seq, u32(gen)}};
        case 3: {
            NackBody nack;
            for (int i = 0; i < small(gen) % 10; ++i) nack.missing.push_back(SeqNum{u32(gen)});
            return {header, std::move(nack)};
        }
        case 4: return {header, RetransmissionBody{seq, epoch, true, body}};
        case 5: return {header, LogStoreBody{seq, epoch, body}};
        case 6: return {header, LogAckBody{seq, SeqNum{u32(gen)}, (u32(gen) & 1) != 0}};
        case 7: return {header, ReplicaUpdateBody{seq, epoch, body}};
        case 8: return {header, ReplicaAckBody{seq}};
        case 9: return {header, AckerSelectionBody{epoch, prob(gen)}};
        case 10: return {header, AckerResponseBody{epoch}};
        case 11: return {header, AckBody{epoch, seq}};
        case 12: return {header, ProbeRequestBody{u32(gen) % 16, prob(gen)}};
        case 13: return {header, ProbeReplyBody{u32(gen) % 16}};
        case 14: return {header, DiscoveryQueryBody{static_cast<std::uint8_t>(u32(gen)), u32(gen)}};
        case 15: return {header, DiscoveryReplyBody{u32(gen), NodeId{u32(gen) % 8}, true}};
        case 16: return {header, PrimaryQueryBody{}};
        case 17: return {header, PrimaryReplyBody{NodeId{u32(gen) % 8}}};
        case 18: return {header, PromoteRequestBody{}};
        default: return {header, PromoteReplyBody{seq, (u32(gen) & 1) != 0}};
    }
}

template <typename Core>
void hammer(Core& core, std::uint64_t seed, int packets = 20000) {
    std::mt19937 gen{static_cast<std::uint32_t>(seed)};
    TimePoint t = time_zero();
    for (int i = 0; i < packets; ++i) {
        t = t + micros(100);
        auto actions = core.on_packet(t, random_packet(gen));
        // Also fire arbitrary timers occasionally.
        if (i % 17 == 0) {
            const TimerId id{static_cast<TimerKind>(1 + (i % 16)),
                             static_cast<std::uint32_t>(i % 64)};
            core.on_timer(t, id);
        }
    }
}

TEST(Robustness, SenderSurvivesArbitraryPackets) {
    SenderConfig config;
    config.self = kSource;
    config.group = kGroup;
    config.primary_logger = kPrimary;
    config.replicas = {NodeId{3}};
    SenderCore sender{config};
    sender.start(time_zero());
    sender.send(at(0.1), payload(16));
    hammer(sender, 1);
    // Still functional afterwards.
    auto actions = sender.send(at(100.0), payload(16));
    EXPECT_EQ(test::count_sent(actions, PacketType::kData), 1u);

    // The release rule under random input: with no timer fired, nothing from
    // a node that is neither the primary nor a replica releases a retained
    // copy, and one LogAck from the primary then releases every one.
    SenderCore guarded{config};
    guarded.start(time_zero());
    for (int i = 0; i < 10; ++i) guarded.send(at(0.1 + 0.01 * i), payload(16));
    ASSERT_EQ(guarded.retained_count(), 10u);
    std::mt19937 gen{11};
    TimePoint t = at(1.0);
    for (int fed = 0; fed < 20000;) {
        const Packet p = random_packet(gen);
        if (p.header.sender == kPrimary || p.header.sender == config.replicas[0]) continue;
        t = t + micros(100);
        guarded.on_packet(t, p);
        ++fed;
    }
    EXPECT_EQ(guarded.retained_count(), 10u);
    guarded.on_packet(t + micros(100),
                      Packet{Header{kGroup, kSource, kPrimary},
                             LogAckBody{SeqNum{10}, SeqNum{10}, true}});
    EXPECT_EQ(guarded.retained_count(), 0u);
}

TEST(Robustness, ReceiverSurvivesArbitraryPackets) {
    ReceiverConfig config;
    config.self = NodeId{5};
    config.group = kGroup;
    config.source = kSource;
    config.logger = kPrimary;
    config.retrans_channel = GroupId{2};
    ReceiverCore receiver{config};
    receiver.start(time_zero());
    hammer(receiver, 2);
    // The loss detector's missing set stays bounded even under adversarial
    // sequence numbers (it is windowed by the stream horizon).
    EXPECT_LT(receiver.detector().missing_count(), 100000u);
}

TEST(Robustness, LoggersOfEveryRoleSurviveArbitraryPackets) {
    for (LoggerRole role :
         {LoggerRole::kPrimary, LoggerRole::kSecondary, LoggerRole::kReplica}) {
        LoggerConfig config;
        config.self = NodeId{4};
        config.group = kGroup;
        config.source = kSource;
        config.role = role;
        config.upstream = kPrimary;
        config.replicas = {NodeId{6}};
        config.retention.max_entries = 256;  // bounded under garbage floods
        LoggerCore logger{config, 9};
        logger.start(time_zero());
        hammer(logger, 3 + static_cast<std::uint64_t>(role));
        EXPECT_LE(logger.store().size(), 256u) << "role " << static_cast<int>(role);
    }
}

TEST(Robustness, SoakRunStaysBoundedAndConverges) {
    // 30 minutes of simulated operation: periodic data, intermittent loss
    // bursts, a logger crash + recovery.  Memory-proxy assertions: bounded
    // log stores, empty recovery queues at the end.
    sim::ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 3;
    config.stat_ack.enabled = true;
    config.stat_ack.k = 3;
    config.stat_ack.initial_probe_p = 0.5;
    config.stat_ack.probe_target_replies = 2;
    config.stat_ack.probe_repeats = 1;
    config.logger_defaults.retention.max_entries = 64;
    config.receiver_defaults.nack_max_retries = 6;
    sim::DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.run_for(secs(3.0));

    int updates = 0;
    for (int minute = 0; minute < 30; ++minute) {
        // A loss burst hits a rotating site for 2 s each minute.
        const auto& site = topo.sites[static_cast<std::size_t>(minute) % 3];
        const TimePoint burst = scenario.simulator().now();
        network.set_loss(topo.backbone, site.router,
                         std::make_unique<sim::BurstSchedule>(
                             std::vector<sim::BurstSchedule::Window>{
                                 {burst, burst + secs(2.0)}}));
        for (int i = 0; i < 4; ++i) {
            scenario.send_update(std::size_t{64});
            ++updates;
            scenario.run_for(secs(15.0));
        }
    }
    scenario.run_for(secs(80.0));

    // Everyone converged on the tail of the stream.
    const SeqNum last = scenario.sender().last_seq();
    EXPECT_EQ(scenario.delivery_times(last).size(), 9u);
    for (NodeId r : topo.all_receivers()) {
        EXPECT_EQ(scenario.receiver(r).detector().missing_count(), 0u);
        EXPECT_TRUE(scenario.receiver(r).fresh());
    }
    // Bounded state everywhere.
    EXPECT_LE(scenario.primary_logger().store().size(), 64u);
    for (std::size_t s = 0; s < 3; ++s)
        EXPECT_LE(scenario.secondary_logger(s).store().size(), 64u);
    EXPECT_LE(scenario.sender().retained_count(), 8u);
    EXPECT_EQ(updates, 120);
}

}  // namespace
}  // namespace lbrm
