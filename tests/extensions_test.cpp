// Tests for the paper's Section 7 future-work extensions, implemented here:
//   * dedicated retransmission channel (subscribe-to-recover),
//   * multi-level logging hierarchy (regional tier),
//   * data-carrying heartbeats for small payloads,
//   * sequence-number wraparound across the whole stack (initial_seq knob).
#include <gtest/gtest.h>

#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

// --- retransmission channel ---------------------------------------------------

ScenarioConfig retx_config() {
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 3;
    config.stat_ack.enabled = false;
    config.use_retrans_channel = true;
    // Copies go out 40/120/280/600/1240 ms after the data packet.  Loss is
    // detected via the first heartbeat (~250 ms + propagation), so at least
    // two copies remain after a receiver joins the channel -- the paper's
    // caveat that this technique needs "fast multicast group subscription".
    config.retrans_channel_copies = 5;
    config.retrans_channel_first_delay = millis(40);
    return config;
}

TEST(RetransChannel, LossRecoveredWithoutAnyNack) {
    DisScenario scenario(retx_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    // Drop one packet at a site; the channel copies (40/80/160 ms after
    // send) repair it once the loss window clears.
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(5.0));

    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 9u);
    // No receiver NACKed: the channel did the repair.
    std::uint64_t nacks = 0;
    for (NodeId r : topo.all_receivers()) nacks += scenario.receiver(r).nacks_sent();
    EXPECT_EQ(nacks, 0u);
}

TEST(RetransChannel, ReceiversLeaveTheChannelAfterRecovery) {
    DisScenario scenario(retx_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(5.0));

    // After recovery + linger, further channel copies reach nobody: send a
    // packet, drop nothing, and verify the retransmission-channel copies hit
    // zero receiver LAN links.
    network.reset_link_stats();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(2.0));
    std::uint64_t channel_copies_on_lans = 0;
    for (const auto& site : topo.sites)
        for (NodeId r : site.receivers)
            channel_copies_on_lans += network.link(site.router, r)
                                          ->stats().packets_of(PacketType::kRetransmission);
    EXPECT_EQ(channel_copies_on_lans, 0u);
}

TEST(RetransChannel, FallsBackToNackWhenChannelExhausted) {
    // Loss burst outlives all channel copies: the receiver must fall back
    // to the logging hierarchy ("logging servers would provide
    // retransmissions of packets no longer being transmitted").
    ScenarioConfig config = retx_config();
    config.receiver_defaults.retrans_channel_window = millis(300);
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    // Burst of 1 s swallows the data packet AND all three channel copies
    // (40/120/280 ms after send).
    const TimePoint t0 = scenario.simulator().now();
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BurstSchedule>(std::vector<BurstSchedule::Window>{
                         {t0, t0 + secs(1.0)}}));
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(8.0));

    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 9u);
    std::uint64_t nacks = 0;
    for (NodeId r : topo.sites[0].receivers) nacks += scenario.receiver(r).nacks_sent();
    EXPECT_GE(nacks, 1u);  // fallback engaged
}

// --- multi-level hierarchy ---------------------------------------------------

ScenarioConfig hierarchy_config(bool regional) {
    ScenarioConfig config;
    config.topology.sites = 6;
    config.topology.receivers_per_site = 3;
    config.topology.sites_per_region = 3;  // two regions of three sites
    config.use_regional_loggers = regional;
    config.stat_ack.enabled = false;
    return config;
}

TEST(Hierarchy, TopologyBuildsRegions) {
    DisScenario scenario(hierarchy_config(true));
    const auto& topo = scenario.topology();
    ASSERT_EQ(topo.regions.size(), 2u);
    EXPECT_EQ(topo.regions[0].site_indices.size(), 3u);
    EXPECT_NE(topo.region_of_site(0), nullptr);
    EXPECT_EQ(topo.region_of_site(0), topo.region_of_site(2));
    EXPECT_NE(topo.region_of_site(0), topo.region_of_site(3));
}

TEST(Hierarchy, DeliveryStillReachesEveryone) {
    DisScenario scenario(hierarchy_config(true));
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(2.0));
    EXPECT_EQ(scenario.delivery_times(SeqNum{1}).size(), 18u);
}

TEST(Hierarchy, RegionalLoggerAbsorbsWholeRegionLoss) {
    // A whole region loses a packet (loss between region router and
    // backbone).  With the 3-level hierarchy only ONE NACK reaches the
    // primary (from the regional logger); flat distributed logging sends
    // one per site.
    auto run = [](bool regional) {
        DisScenario scenario(hierarchy_config(regional));
        auto& network = scenario.network();
        const auto& topo = scenario.topology();
        scenario.start();
        scenario.send_update(std::size_t{64});
        scenario.run_for(secs(2.0));
        const std::uint64_t before = scenario.primary_logger().nacks_received();

        network.set_loss(topo.backbone, topo.regions[0].router,
                         std::make_unique<BernoulliLoss>(1.0));
        scenario.send_update(std::size_t{64});
        scenario.run_for(millis(50));
        network.set_loss(topo.backbone, topo.regions[0].router,
                         std::make_unique<BernoulliLoss>(0.0));
        scenario.run_for(secs(8.0));

        EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 18u)
            << (regional ? "regional" : "flat");
        return scenario.primary_logger().nacks_received() - before;
    };

    const std::uint64_t flat = run(false);
    const std::uint64_t regional = run(true);
    EXPECT_EQ(regional, 1u);   // one call-back from the regional logger
    EXPECT_GE(flat, 3u);       // one per affected site
}

// --- data-carrying heartbeats ---------------------------------------------------

TEST(DataHeartbeat, RepairsLossWithoutRetransmissionRequest) {
    // Core-level check: the heartbeat timer emits a Data packet when the
    // last payload is small.
    SenderConfig sender_config;
    sender_config.self = NodeId{1};
    sender_config.group = GroupId{1};
    sender_config.primary_logger = NodeId{2};
    sender_config.stat_ack.enabled = false;
    sender_config.heartbeat_carries_small_data = true;
    sender_config.heartbeat_data_max_bytes = 128;
    SenderCore sender{sender_config};
    sender.start(time_zero());
    auto send_actions = sender.send(time_zero() + secs(1.0), test::payload(64));
    auto hb_timer = test::find_timer(send_actions, TimerKind::kHeartbeat);
    ASSERT_TRUE(hb_timer.has_value());
    auto hb_actions = sender.on_timer(hb_timer->deadline, hb_timer->id);
    // The "heartbeat" is a repeat of the data packet.
    EXPECT_EQ(test::count_sent(hb_actions, PacketType::kHeartbeat), 0u);
    const auto datas = test::sent_of_type(hb_actions, PacketType::kData);
    ASSERT_EQ(datas.size(), 1u);
    EXPECT_EQ(std::get<DataBody>(datas[0].packet.body).seq, SeqNum{1});
    EXPECT_EQ(std::get<DataBody>(datas[0].packet.body).payload, test::payload(64));
}

TEST(DataHeartbeat, LargePayloadsStillUseEmptyHeartbeats) {
    SenderConfig sender_config;
    sender_config.self = NodeId{1};
    sender_config.group = GroupId{1};
    sender_config.primary_logger = NodeId{2};
    sender_config.stat_ack.enabled = false;
    sender_config.heartbeat_carries_small_data = true;
    sender_config.heartbeat_data_max_bytes = 32;
    SenderCore sender{sender_config};
    sender.start(time_zero());
    auto send_actions = sender.send(time_zero() + secs(1.0), test::payload(64));
    auto hb_timer = test::find_timer(send_actions, TimerKind::kHeartbeat);
    auto hb_actions = sender.on_timer(hb_timer->deadline, hb_timer->id);
    EXPECT_EQ(test::count_sent(hb_actions, PacketType::kHeartbeat), 1u);
    EXPECT_EQ(test::count_sent(hb_actions, PacketType::kData), 0u);
}

TEST(DataHeartbeat, EndToEndRecoveryWithNoNacks) {
    // Drop a (small) data packet at one site: the first repeated-data
    // heartbeat (h_min later) delivers it outright -- zero NACK traffic,
    // the Section 7 "reduce retransmission requests" effect.
    ScenarioConfig config;
    config.topology.sites = 2;
    config.topology.receivers_per_site = 3;
    config.stat_ack.enabled = false;
    config.heartbeat_carries_small_data = true;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(3.0));

    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 6u);
    std::uint64_t nacks = 0;
    for (NodeId r : topo.all_receivers()) nacks += scenario.receiver(r).nacks_sent();
    EXPECT_EQ(nacks, 0u);
}

// --- wraparound end-to-end ---------------------------------------------------

TEST(Wraparound, StreamCrossesSequenceSpaceBoundary) {
    SenderConfig sender_config;
    sender_config.self = NodeId{1};
    sender_config.group = GroupId{1};
    sender_config.primary_logger = kNoNode;  // self-primary keeps it compact
    sender_config.stat_ack.enabled = false;
    sender_config.initial_seq = SeqNum{0xFFFFFFFDu};
    SenderCore sender{sender_config};
    sender.start(time_zero());

    ReceiverConfig receiver_config;
    receiver_config.self = NodeId{9};
    receiver_config.group = GroupId{1};
    receiver_config.source = NodeId{1};
    receiver_config.logger = NodeId{1};
    ReceiverCore receiver{receiver_config};
    receiver.start(time_zero());

    // Feed six packets across the wrap directly into the receiver.
    TimePoint t = time_zero() + secs(1.0);
    for (int i = 0; i < 6; ++i) {
        auto actions = sender.send(t, test::payload(16, static_cast<std::uint8_t>(i)));
        const auto datas = test::sent_of_type(actions, PacketType::kData);
        ASSERT_EQ(datas.size(), 1u);
        auto delivered = receiver.on_packet(t, datas[0].packet);
        EXPECT_EQ(test::deliveries(delivered).size(), 1u) << "packet " << i;
        t = t + millis(100);
    }
    EXPECT_EQ(receiver.delivered(), 6u);
    EXPECT_EQ(receiver.detector().missing_count(), 0u);
    EXPECT_EQ(sender.last_seq(), SeqNum{2});  // FFFFFFFD..FFFFFFFF, 0, 1, 2
}

TEST(Wraparound, GapAcrossBoundaryIsRecoverable) {
    SenderConfig sender_config;
    sender_config.self = NodeId{1};
    sender_config.group = GroupId{1};
    sender_config.primary_logger = kNoNode;
    sender_config.stat_ack.enabled = false;
    sender_config.initial_seq = SeqNum{0xFFFFFFFFu};
    SenderCore sender{sender_config};
    sender.start(time_zero());

    ReceiverConfig receiver_config;
    receiver_config.self = NodeId{9};
    receiver_config.group = GroupId{1};
    receiver_config.source = NodeId{1};
    receiver_config.logger = NodeId{1};
    ReceiverCore receiver{receiver_config};
    receiver.start(time_zero());

    TimePoint t = time_zero() + secs(1.0);
    auto first = sender.send(t, test::payload(8));   // seq FFFFFFFF
    auto second = sender.send(t, test::payload(8));  // seq 0 -- lost
    auto third = sender.send(t, test::payload(8));   // seq 1

    receiver.on_packet(t, test::sent_of_type(first, PacketType::kData)[0].packet);
    auto gap = receiver.on_packet(
        t + millis(10), test::sent_of_type(third, PacketType::kData)[0].packet);
    const auto lost = test::notices(gap, NoticeKind::kLossDetected);
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].arg, 0u);  // the wrapped sequence number

    // NACK fires toward the source (self-primary) and names seq 0.
    auto delay = test::find_timer(gap, TimerKind::kNackDelay);
    auto fired = receiver.on_timer(delay->deadline, delay->id);
    const auto nacks = test::sent_of_type(fired, PacketType::kNack);
    ASSERT_EQ(nacks.size(), 1u);
    auto served = sender.on_packet(t + millis(20), nacks[0].packet);
    const auto repairs = test::sent_of_type(served, PacketType::kRetransmission);
    ASSERT_EQ(repairs.size(), 1u);
    auto recovered = receiver.on_packet(t + millis(30), repairs[0].packet);
    EXPECT_EQ(test::deliveries(recovered).size(), 1u);
    EXPECT_EQ(receiver.detector().missing_count(), 0u);
}

}  // namespace
}  // namespace lbrm::sim

namespace lbrm::sim {
namespace {

// --- rotating site loggers (Section 2.2.1 alternative) ------------------------

ScenarioConfig rotation_config() {
    ScenarioConfig config;
    config.topology.sites = 1;
    config.topology.receivers_per_site = 4;
    config.topology.secondary_logger_per_site = false;  // no dedicated logger
    config.stat_ack.enabled = false;
    config.site_logging = SiteLogging::kRotating;
    config.receiver_defaults.rotation_slot = secs(2.0);
    return config;
}

TEST(RotatingLoggers, RecoveryWorksInEverySlot) {
    DisScenario scenario(rotation_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    // One loss event per rotation slot, across two full rotations.
    for (int event = 0; event < 8; ++event) {
        network.set_loss(topo.backbone, topo.sites[0].router,
                         std::make_unique<BernoulliLoss>(1.0));
        scenario.send_update(std::size_t{64});
        scenario.run_for(millis(50));
        network.set_loss(topo.backbone, topo.sites[0].router,
                         std::make_unique<BernoulliLoss>(0.0));
        scenario.run_for(secs(2.0));  // one slot per event
    }
    scenario.run_for(secs(5.0));

    for (std::uint32_t s = 2; s <= 9; ++s)
        EXPECT_EQ(scenario.delivery_times(SeqNum{s}).size(), 4u) << "seq " << s;
}

TEST(RotatingLoggers, TargetRotatesAcrossSlots) {
    // The receiver's NACK target must walk through the host list slot by
    // slot (load distribution -- the point of the rotation).
    ScenarioConfig config = rotation_config();
    DisScenario scenario(config);
    const auto& topo = scenario.topology();
    const NodeId self = topo.sites[0].receivers[0];
    auto& receiver = scenario.receiver(self);

    std::set<NodeId> owners;
    for (int slot = 0; slot < 4; ++slot) {
        const TimePoint when =
            time_zero() +
            scale(config.receiver_defaults.rotation_slot, static_cast<double>(slot)) +
            millis(10);
        owners.insert(receiver.current_logger(when));
    }
    EXPECT_EQ(owners.size(), 4u);  // all four hosts took a turn
    for (NodeId owner : owners)
        EXPECT_NE(std::find(topo.sites[0].receivers.begin(),
                            topo.sites[0].receivers.end(), owner),
                  topo.sites[0].receivers.end());
}

TEST(RotatingLoggers, ScenarioRemulticastThresholdReachesTheSlotOwner) {
    // ScenarioConfig::remulticast_request_threshold applies to every logger,
    // rotating site loggers included: at 1 the slot owner answers the first
    // NACK for a packet with a site multicast instead of a unicast.
    ScenarioConfig config = rotation_config();
    config.remulticast_request_threshold = 1;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    const auto& hosts = topo.sites[0].receivers;
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(500));  // inside slot 0: hosts[0] owns it

    // hosts[1] alone loses seq 2; the owner logged it.
    network.set_loss(topo.sites[0].router, hosts[1], std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.sites[0].router, hosts[1], std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(1.0));

    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 4u);
    // The repair reached the whole site: the hosts that already had seq 2
    // received it again.
    EXPECT_EQ(scenario.receiver(hosts[2]).duplicates(), 1u);
    EXPECT_EQ(scenario.receiver(hosts[3]).duplicates(), 1u);
    if constexpr (obs::kTelemetryEnabled) {
        EXPECT_EQ(scenario.metrics().value("proto.logger.served_multicast"), 1u);
        EXPECT_EQ(scenario.metrics().value("proto.logger.served_unicast"), 0u);
    }
}

TEST(RotatingLoggers, EscalationStillReachesThePrimary) {
    // If every local host misses the packet, the rotation doesn't trap
    // recovery at the site: the usual fallback escalation kicks in.
    DisScenario scenario(rotation_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(10.0));
    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 4u);
}

TEST(RotatingLoggers, SlotOwnerReportsItsSiteRemulticast) {
    // Rotating loggers report their notices like every other core: when the
    // whole site misses a packet, the slot owner fetches it upstream and
    // re-multicasts it to the site, and the observer hears of it from the
    // owner's node.
    DisScenario scenario(rotation_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    const auto& hosts = topo.sites[0].receivers;
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(10.0));
    ASSERT_EQ(scenario.delivery_times(SeqNum{2}).size(), 4u);

    // The primary may re-multicast too; count the site's own.
    std::size_t site_remulticasts = 0;
    for (const NoticeRecord& n : scenario.notices()) {
        if (n.kind != NoticeKind::kRemulticast || n.arg != 2 ||
            std::find(hosts.begin(), hosts.end(), n.node) == hosts.end())
            continue;
        ++site_remulticasts;
        EXPECT_EQ(n.node, scenario.receiver(hosts[0]).current_logger(n.at));
    }
    EXPECT_EQ(site_remulticasts, 1u);
}

}  // namespace
}  // namespace lbrm::sim
