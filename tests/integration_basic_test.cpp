// End-to-end integration tests on the simulated DIS topology: live
// delivery, loss recovery through the logging hierarchy, freshness and
// heartbeat-driven detection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench/trace_hash.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"

namespace lbrm::sim {
namespace {

ScenarioConfig small_config() {
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 4;
    config.stat_ack.enabled = false;  // exercised separately
    return config;
}

TEST(IntegrationBasic, LosslessDeliveryReachesEveryReceiver) {
    DisScenario scenario(small_config());
    scenario.start();
    scenario.run_for(secs(0.1));

    scenario.send_update(128);
    scenario.run_for(secs(1.0));

    const auto times = scenario.delivery_times(SeqNum{1});
    EXPECT_EQ(times.size(), 12u);  // 3 sites x 4 receivers
    for (const auto& [node, at] : times) {
        const Duration latency = at - *scenario.sent_at(SeqNum{1});
        EXPECT_GT(latency, Duration::zero());
        EXPECT_LT(latency, millis(100)) << "node " << node;
    }
}

TEST(IntegrationBasic, MultipleUpdatesAllDelivered) {
    DisScenario scenario(small_config());
    scenario.start();
    for (int i = 0; i < 10; ++i) {
        scenario.send_update(64);
        scenario.run_for(millis(200));
    }
    scenario.run_for(secs(1.0));

    for (std::uint32_t s = 1; s <= 10; ++s)
        EXPECT_EQ(scenario.delivery_times(SeqNum{s}).size(), 12u) << "seq " << s;
}

TEST(IntegrationBasic, TailCircuitLossRecoveredViaSecondaryLogger) {
    DisScenario scenario(small_config());
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.run_for(secs(0.1));

    // Prime: one lossless packet so loggers and receivers are in sync.
    scenario.send_update(128);
    scenario.run_for(secs(1.0));

    // Site 0's incoming tail circuit drops everything for a moment.
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(128);
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[0].router,
                     std::make_unique<BernoulliLoss>(0.0));

    // Heartbeats (h_min = 250 ms) reveal the gap; the secondary fetches the
    // packet from the primary and repairs the site.
    scenario.run_for(secs(5.0));

    const auto times = scenario.delivery_times(SeqNum{2});
    EXPECT_EQ(times.size(), 12u);
    // Receivers at the lossy site got it recovered.
    int recovered = 0;
    for (const auto& d : scenario.deliveries())
        if (d.seq == SeqNum{2} && d.recovered) ++recovered;
    EXPECT_GE(recovered, 4);
}

TEST(IntegrationBasic, HeartbeatBoundsDetectionOfLastPacketLoss) {
    ScenarioConfig config = small_config();
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();
    scenario.send_update(128);
    scenario.run_for(secs(1.0));

    // Drop the *final* data packet on one site's tail: only heartbeats can
    // reveal it (there is no subsequent data packet).
    network.set_loss(topo.backbone, topo.sites[1].router,
                     std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(128);
    scenario.run_for(millis(100));
    network.set_loss(topo.backbone, topo.sites[1].router,
                     std::make_unique<BernoulliLoss>(0.0));
    const TimePoint sent = *scenario.sent_at(SeqNum{2});

    scenario.run_for(secs(5.0));

    // All receivers eventually have seq 2.
    EXPECT_EQ(scenario.delivery_times(SeqNum{2}).size(), 12u);

    // Loss was detected at the lossy site within ~h_min plus network delays,
    // not h_max.
    bool found = false;
    for (const auto& r : scenario.notices()) {
        if (r.kind == NoticeKind::kLossDetected && r.arg == 2) {
            found = true;
            EXPECT_LT(r.at - sent, secs(1.0));
        }
    }
    EXPECT_TRUE(found);
}

TEST(IntegrationBasic, FreshnessLostWhenSourceGoesSilent) {
    ScenarioConfig config = small_config();
    config.receiver_defaults.max_idle = secs(0.25);
    DisScenario scenario(config);
    scenario.start();
    scenario.send_update(64);
    scenario.run_for(secs(1.0));
    EXPECT_EQ(scenario.notice_count(NoticeKind::kFreshnessLost), 0u);

    // Kill the source: heartbeats stop; every receiver notices within MaxIT.
    scenario.network().set_node_down(scenario.topology().source, true);
    scenario.run_for(secs(2.0));
    EXPECT_GE(scenario.notice_count(NoticeKind::kFreshnessLost), 12u);
}

TEST(IntegrationBasic, ReceiverDefaultsSetTheFreshnessBound) {
    // receiver_defaults.max_idle is the MaxIT bound every receiver, eager or
    // dormant, starts its watchdog with.  With the source cut off from the
    // start no packet ever arrives, so none may go stale before 3 s.
    for (const bool dormant : {false, true}) {
        SCOPED_TRACE(dormant ? "dormant" : "eager");
        ScenarioConfig config = small_config();
        config.dormant_receivers = dormant;
        config.receiver_defaults.max_idle = secs(3.0);
        DisScenario scenario(config);
        scenario.network().set_node_down(scenario.topology().source, true);
        scenario.start();
        scenario.run_for(secs(2.9));
        EXPECT_EQ(scenario.notice_count(NoticeKind::kFreshnessLost), 0u);
        scenario.run_for(secs(0.2));
        EXPECT_EQ(scenario.notice_count(NoticeKind::kFreshnessLost), 12u);
    }
}

// Each site-logging mode wires what its Section 2.2.1 alternative needs,
// and nothing else: the packet-trace hash (bench/trace_hash.hpp's recipe)
// of one lossy run and the core count of every host the topology names,
// pinned per mode.  The literals were recorded from the boolean flags the
// modes replaced (use_secondary_loggers, discover_loggers,
// rotate_site_loggers), one combination per mode.  Dormant receivers are
// asked for throughout, so a mode that wrongly went dormant, or wrongly
// stayed live, fails too.
TEST(ScenarioWiring, EachSiteLoggingModeKeepsItsTrace) {
    struct Expected {
        SiteLogging mode;
        const char* name;
        std::size_t dormant;
        /// Source, primary, replica, then per site its secondary and
        /// receivers; 0 where the node has no host (a dormant receiver
        /// before its first packet).
        std::vector<std::size_t> cores;
        std::uint64_t trace_hash;
    };
    const std::vector<Expected> expected = {
        {SiteLogging::kDedicated, "dedicated", 9,
         {1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}, 0x29ac4f7b9195d637ull},
        {SiteLogging::kCentralized, "centralized", 9,
         {1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0x25aaa97adba3829aull},
        {SiteLogging::kDiscovered, "discovered", 0,
         {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x8628c3f56297f211ull},
        {SiteLogging::kRotating, "rotating", 0,
         {1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2}, 0xa393ba271c97f7e9ull},
    };
    for (const Expected& want : expected) {
        SCOPED_TRACE(want.name);
        ScenarioConfig config;
        config.topology.sites = 3;
        config.topology.receivers_per_site = 3;
        config.seed = 5;
        config.site_logging = want.mode;
        config.dormant_receivers = true;
        config.receiver_defaults.rotation_slot = secs(1.0);
        DisScenario scenario{config};
        const DisTopology& topo = scenario.topology();
        Network& net = scenario.network();
        for (const auto& site : topo.sites)
            net.set_loss(topo.backbone, site.router, std::make_unique<BernoulliLoss>(0.2));
        Fnv1a hash;
        bench::hash_trace(net, hash);

        std::vector<NodeId> nodes{topo.source, topo.primary};
        nodes.insert(nodes.end(), topo.replicas.begin(), topo.replicas.end());
        for (const auto& site : topo.sites) {
            nodes.push_back(site.secondary);
            nodes.insert(nodes.end(), site.receivers.begin(), site.receivers.end());
        }
        std::vector<std::size_t> cores;
        for (NodeId node : nodes) {
            const SimHost* host = net.host(node);
            cores.push_back(host == nullptr ? 0 : host->protocol().core_count());
        }
        EXPECT_EQ(cores, want.cores);
        EXPECT_EQ(scenario.dormant_receiver_count(), want.dormant);

        scenario.start();
        for (int i = 0; i < 12; ++i) {
            scenario.send_update(200);
            scenario.run_for(millis(50));
        }
        scenario.run_for(secs(3.0));
        EXPECT_EQ(scenario.deliveries().size(), 9u * 12u);  // every receiver, every update
        EXPECT_EQ(hash.h, want.trace_hash);
    }
}

}  // namespace
}  // namespace lbrm::sim
