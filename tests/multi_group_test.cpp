// Multi-source / multi-group deployments.
//
// The paper's model is fine-grained: one multicast group per source
// ("multicast sources in certain distributed applications...each
// containing a single data source"), and logging processes are shared:
// "a single logging process may serve as the primary logger for one group
// and as the secondary logger for another" (Section 2.2.1, footnote).
// These tests run two sources with crossed logging duties on one simulated
// network and verify full isolation and recovery per group.
#include <gtest/gtest.h>

#include <map>

#include "sim/network.hpp"
#include "sim/sim_host.hpp"
#include "sim/simulator.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

using test::payload;

/// Two sites; source A lives at site 1, source B at site 2.  The logger
/// host at each site is PRIMARY for its local source and SECONDARY for the
/// remote one -- the paper's crossed configuration.
struct CrossedDeployment {
    Simulator simulator;
    Network network{simulator, 99};

    NodeId backbone, router1, router2;
    NodeId source_a, source_b, logger1, logger2;
    std::vector<NodeId> receivers1, receivers2;

    GroupId group_a{1}, group_b{2};

    std::map<NodeId, std::map<std::uint32_t, std::vector<SeqNum>>> delivered;
    // delivered[node][group] -> seqs

    CrossedDeployment() {
        const LinkSpec lan{micros(500), 10e6, Duration::zero()};
        const LinkSpec wan{millis(10), 45e6, Duration::zero()};

        backbone = network.add_node(SiteId{0});
        router1 = network.add_node(SiteId{1});
        router2 = network.add_node(SiteId{2});
        network.add_link(router1, backbone, wan);
        network.add_link(router2, backbone, wan);

        source_a = network.add_node(SiteId{1});
        logger1 = network.add_node(SiteId{1});
        source_b = network.add_node(SiteId{2});
        logger2 = network.add_node(SiteId{2});
        network.add_link(source_a, router1, lan);
        network.add_link(logger1, router1, lan);
        network.add_link(source_b, router2, lan);
        network.add_link(logger2, router2, lan);

        for (int i = 0; i < 2; ++i) {
            NodeId r1 = network.add_node(SiteId{1});
            network.add_link(r1, router1, lan);
            receivers1.push_back(r1);
            NodeId r2 = network.add_node(SiteId{2});
            network.add_link(r2, router2, lan);
            receivers2.push_back(r2);
        }
        network.finalize();

        wire_source(source_a, group_a, logger1);
        wire_source(source_b, group_b, logger2);

        // logger1: primary for A (above), secondary for B; vice versa.
        wire_logger(logger1, group_a, source_a, LoggerRole::kPrimary, kNoNode);
        wire_logger(logger1, group_b, source_b, LoggerRole::kSecondary, logger2);
        wire_logger(logger2, group_b, source_b, LoggerRole::kPrimary, kNoNode);
        wire_logger(logger2, group_a, source_a, LoggerRole::kSecondary, logger1);
        network.join(group_a, logger1);
        network.join(group_b, logger1);
        network.join(group_a, logger2);
        network.join(group_b, logger2);

        // Every receiver subscribes to both groups, using its *site* logger
        // for both (primary for the local group, secondary for the remote).
        for (NodeId r : receivers1) wire_receiver(r, logger1);
        for (NodeId r : receivers2) wire_receiver(r, logger2);

        for (NodeId n : {source_a, source_b, logger1, logger2}) start_host(n);
        for (NodeId r : receivers1) start_host(r);
        for (NodeId r : receivers2) start_host(r);
    }

    void wire_source(NodeId self, GroupId group, NodeId primary) {
        SenderConfig config;
        config.self = self;
        config.group = group;
        config.primary_logger = primary;
        config.stat_ack.enabled = false;
        network.attach_host(self).protocol().add_sender(config);
    }

    void wire_logger(NodeId self, GroupId group, NodeId source, LoggerRole role,
                     NodeId upstream) {
        LoggerConfig config;
        config.self = self;
        config.group = group;
        config.source = source;
        config.role = role;
        config.upstream = upstream;
        network.attach_host(self).protocol().add_logger(config, self.value() * 31 +
                                                                    group.value());
    }

    void wire_receiver(NodeId self, NodeId site_logger) {
        for (auto [group, source] :
             {std::pair{group_a, source_a}, std::pair{group_b, source_b}}) {
            ReceiverConfig config;
            config.self = self;
            config.group = group;
            config.source = source;
            config.logger = site_logger;
            auto handlers = std::make_shared<AppHandlers>();
            const std::uint32_t g = group.value();
            handlers->on_data = [this, g](TimePoint, NodeId self, const DeliverData& d) {
                delivered[self][g].push_back(d.seq);
            };
            network.attach_host(self).protocol().add_receiver(config, handlers);
            network.join(group, self);
        }
    }

    void start_host(NodeId n) { network.host(n)->protocol().start(simulator.now()); }

    void send(NodeId source, std::uint8_t salt) {
        network.host(source)->protocol().send(simulator.now(), payload(32, salt));
    }
};

TEST(MultiGroup, TwoSourcesDeliverIndependently) {
    CrossedDeployment net;
    net.send(net.source_a, 1);
    net.send(net.source_b, 2);
    net.simulator.run_for(secs(1.0));

    for (NodeId r : net.receivers1) {
        EXPECT_EQ(net.delivered[r][1].size(), 1u) << "receiver " << r << " group A";
        EXPECT_EQ(net.delivered[r][2].size(), 1u) << "receiver " << r << " group B";
    }
    for (NodeId r : net.receivers2) {
        EXPECT_EQ(net.delivered[r][1].size(), 1u);
        EXPECT_EQ(net.delivered[r][2].size(), 1u);
    }
}

TEST(MultiGroup, SharedLoggerServesBothRolesAtOnce) {
    CrossedDeployment net;
    net.send(net.source_a, 1);
    net.send(net.source_b, 2);
    net.simulator.run_for(secs(1.0));

    // logger1 logged group A via LogStore (primary) AND group B off the
    // multicast stream (secondary): the host carries two LoggerCores.
    SimHost* host = net.network.host(net.logger1);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->protocol().core_count(), 2u);
}

TEST(MultiGroup, CrossGroupRecoveryThroughTheSharedLogger) {
    CrossedDeployment net;
    // Prime both streams.
    net.send(net.source_a, 1);
    net.send(net.source_b, 2);
    net.simulator.run_for(secs(1.0));

    // Site 1 loses source B's next packet on the WAN: receivers at site 1
    // recover group-B data from logger1 acting as a *secondary* for B
    // (which itself fetches from logger2, B's primary).
    net.network.set_loss(net.backbone, net.router1, std::make_unique<BernoulliLoss>(1.0));
    net.send(net.source_b, 3);
    net.simulator.run_for(millis(30));
    net.network.set_loss(net.backbone, net.router1, std::make_unique<BernoulliLoss>(0.0));
    net.simulator.run_for(secs(5.0));

    for (NodeId r : net.receivers1)
        EXPECT_EQ(net.delivered[r][2].size(), 2u) << "receiver " << r;

    // Group A traffic was never disturbed.
    net.send(net.source_a, 4);
    net.simulator.run_for(secs(1.0));
    for (NodeId r : net.receivers2) EXPECT_EQ(net.delivered[r][1].size(), 2u);
}

TEST(MultiGroup, GroupIsolationUnderCrossTraffic) {
    CrossedDeployment net;
    for (int i = 0; i < 5; ++i) {
        net.send(net.source_a, static_cast<std::uint8_t>(i));
        net.send(net.source_b, static_cast<std::uint8_t>(i + 100));
        net.simulator.run_for(millis(300));
    }
    net.simulator.run_for(secs(1.0));

    // Sequence spaces are independent per group: both streams run 1..5.
    for (NodeId r : net.receivers1) {
        ASSERT_EQ(net.delivered[r][1].size(), 5u);
        ASSERT_EQ(net.delivered[r][2].size(), 5u);
        for (std::uint32_t i = 0; i < 5; ++i) {
            EXPECT_EQ(net.delivered[r][1][i], SeqNum{i + 1});
            EXPECT_EQ(net.delivered[r][2][i], SeqNum{i + 1});
        }
    }
}

}  // namespace
}  // namespace lbrm::sim
