// Hardening integrations: statistical-ack probing under loss, regional
// hierarchy latency sanity, discovery when the local secondary is dead,
// heartbeat piggyback at scenario level, and back-to-back failovers.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace lbrm::sim {
namespace {

TEST(Hardening, ProbingConvergesDespiteProbeLoss) {
    // The source's probe rounds lose 30% of traffic in both directions;
    // escalation (doubling p_ack per silent round) must still converge to
    // a usable estimate.
    ScenarioConfig config;
    config.topology.sites = 15;
    config.topology.receivers_per_site = 2;
    config.stat_ack.enabled = true;
    config.stat_ack.k = 4;
    config.stat_ack.initial_probe_p = 0.1;
    config.stat_ack.probe_target_replies = 4;
    config.stat_ack.probe_repeats = 2;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    network.set_loss(topo.source_router, topo.backbone,
                     std::make_unique<BernoulliLoss>(0.3));
    network.set_loss(topo.backbone, topo.source_router,
                     std::make_unique<BernoulliLoss>(0.3));

    scenario.start();
    scenario.run_for(secs(20.0));

    auto& engine = scenario.sender().stat_ack();
    EXPECT_FALSE(engine.probing());
    // 15 secondaries; with 30% bidirectional loss the estimate skews low
    // (replies are lost) but must stay within a workable band.
    EXPECT_GT(engine.n_sl(), 3.0);
    EXPECT_LT(engine.n_sl(), 40.0);
}

TEST(Hardening, RegionalTierPreservesDeliveryLatency) {
    // Adding the regional tier must not meaningfully slow live delivery
    // (one extra router hop, +5 ms region link).
    auto worst_latency = [](bool regional) {
        ScenarioConfig config;
        config.topology.sites = 4;
        config.topology.receivers_per_site = 3;
        config.topology.sites_per_region = 2;
        config.use_regional_loggers = regional;
        config.stat_ack.enabled = false;
        DisScenario scenario(config);
        scenario.start();
        scenario.send_update(std::size_t{128});
        scenario.run_for(secs(1.0));
        const auto times = scenario.delivery_times(SeqNum{1});
        EXPECT_EQ(times.size(), 12u);
        Duration worst = Duration::zero();
        for (const auto& [node, at] : times)
            worst = std::max(worst, at - *scenario.sent_at(SeqNum{1}));
        return worst;
    };
    const Duration flat = worst_latency(false);
    const Duration tiered = worst_latency(true);
    EXPECT_LT(tiered, flat + millis(15));
}

TEST(Hardening, DiscoveryFallsBackWhenSecondaryIsDead) {
    // Receivers discover loggers dynamically, but their site's secondary is
    // down: the ring search must widen and settle on another logger
    // (a neighbouring site's secondary via the region ring, or the
    // primary), and recovery must still work through it.
    ScenarioConfig config;
    config.topology.sites = 2;
    config.topology.receivers_per_site = 2;
    config.site_logging = SiteLogging::kDiscovered;
    config.stat_ack.enabled = false;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    network.set_node_down(topo.sites[0].secondary, true);

    scenario.start();
    scenario.run_for(secs(3.0));  // discovery rings run

    for (NodeId r : topo.sites[0].receivers) {
        const NodeId logger = scenario.receiver(r).current_logger();
        EXPECT_NE(logger, topo.sites[0].secondary) << "receiver " << r;
        EXPECT_NE(logger, kNoNode) << "receiver " << r;
    }

    // Lose a packet at site 0: recovery must flow through the fallback.
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(8.0));
    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 4u);
}

TEST(Hardening, DataHeartbeatKeepsFreshnessThroughQuietPeriods) {
    // With data-carrying heartbeats on, long quiet periods still keep
    // receivers fresh (the repeated data acts as the keep-alive) and no
    // duplicate deliveries occur.
    ScenarioConfig config;
    config.topology.sites = 2;
    config.topology.receivers_per_site = 2;
    config.stat_ack.enabled = false;
    config.heartbeat_carries_small_data = true;
    DisScenario scenario(config);
    scenario.start();
    scenario.send_update(std::size_t{32});
    scenario.run_for(secs(120.0));  // two quiet minutes of repeated-data HBs

    EXPECT_EQ(scenario.notice_count(NoticeKind::kFreshnessLost), 0u);
    std::map<NodeId, int> copies;
    for (const auto& d : scenario.deliveries())
        if (d.seq == SeqNum{1}) ++copies[d.node];
    for (const auto& [node, count] : copies) EXPECT_EQ(count, 1) << node;
    EXPECT_EQ(copies.size(), 4u);
}

TEST(Hardening, DoubleFailoverSurvives) {
    // The promoted replica dies too: the source must fail over again to
    // the next replica and the stream keeps flowing.
    ScenarioConfig config;
    config.topology.sites = 2;
    config.topology.receivers_per_site = 2;
    config.topology.replicas = 2;
    config.stat_ack.enabled = false;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(1.0));

    network.set_node_down(topo.primary, true);
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(3.0));
    ASSERT_EQ(scenario.sender().current_primary(), topo.replicas[0]);

    network.set_node_down(topo.replicas[0], true);
    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(4.0));
    EXPECT_EQ(scenario.sender().current_primary(), topo.replicas[1]);

    scenario.send_update(std::size_t{64});
    scenario.run_for(secs(2.0));
    EXPECT_EQ(scenario.delivery_times(SeqNum{4}).size(), 4u);
    EXPECT_GE(scenario.notice_count(NoticeKind::kPrimaryFailover), 2u);
}

}  // namespace
}  // namespace lbrm::sim
