// Scale-engine tests (DESIGN.md "Scale engineering"): the struct-of-arrays
// node store, lazy finalize and the pluggable scenario observer must all be
// invisible to results -- rows built on first touch equal the rows an eager
// build produced, follow the finalize-time routes, and every observer leaves
// the protocol trace bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/stable_vector.hpp"
#include "sim/loss_model.hpp"
#include "sim/network.hpp"
#include "sim/observer.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "tests/route_oracle.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;

// --- StableVector ------------------------------------------------------------

TEST(StableVector, ReferencesSurviveGrowth) {
    StableVector<int> v;
    std::vector<int*> addrs;
    for (int i = 0; i < 1000; ++i) addrs.push_back(&v.emplace_back(i));
    ASSERT_EQ(v.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(*addrs[i], i);          // no element ever moved
        EXPECT_EQ(&v[static_cast<std::size_t>(i)], addrs[i]);
    }
}

TEST(StableVector, HoldsNonMovableElements) {
    struct Pinned {
        explicit Pinned(int x) : value(x) {}
        Pinned(const Pinned&) = delete;
        Pinned& operator=(const Pinned&) = delete;
        int value;
    };
    StableVector<Pinned> v;
    for (int i = 0; i < 100; ++i) v.emplace_back(i);
    int sum = 0;
    for (const Pinned& p : v) sum += p.value;
    EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(StableVector, ClearDestroysEveryElement) {
    static int live = 0;
    struct Counted {
        Counted() { ++live; }
        ~Counted() { --live; }
    };
    {
        StableVector<Counted> v;
        for (int i = 0; i < 37; ++i) v.emplace_back();
        EXPECT_EQ(live, 37);
        v.clear();
        EXPECT_EQ(live, 0);
        for (int i = 0; i < 5; ++i) v.emplace_back();  // reusable after clear
        EXPECT_EQ(live, 5);
    }
    EXPECT_EQ(live, 0);  // destructor path too
}

// --- link() fast path --------------------------------------------------------

TEST(NetworkLink, MissingSelfAndOutOfRangePairsReturnNull) {
    Simulator sim;
    Network net{sim, 1};
    const NodeId a = net.add_node(SiteId{1});
    const NodeId b = net.add_node(SiteId{1});
    const NodeId c = net.add_node(SiteId{2});
    net.add_link(a, b, LinkSpec{});

    EXPECT_NE(net.link(a, b), nullptr);
    EXPECT_NE(net.link(b, a), nullptr);
    EXPECT_NE(net.link(a, b), net.link(b, a));  // two directed links
    EXPECT_EQ(net.link(a, c), nullptr);         // no such cable
    EXPECT_EQ(net.link(a, a), nullptr);         // self pair
    EXPECT_EQ(net.link(a, NodeId{999}), nullptr);  // out of range
    EXPECT_EQ(net.link(NodeId{999}, a), nullptr);
}

TEST(NetworkLink, SiteAndRouterFlagsSurviveSoAStorage) {
    Simulator sim;
    Network net{sim, 1};
    const NodeId host = net.add_node(SiteId{7});
    const NodeId router = net.add_node(SiteId{7}, /*is_router=*/true);
    EXPECT_EQ(net.site_of(host), SiteId{7});
    EXPECT_FALSE(net.is_router(host));
    EXPECT_TRUE(net.is_router(router));
    EXPECT_EQ(net.node_count(), 2u);
    net.add_link(host, router, LinkSpec{});
    EXPECT_EQ(net.link_count(), 2u);  // one cable = two directed links
}

// --- lazy finalize -----------------------------------------------------------

std::uint64_t table_hash(std::uint32_t sites_per_region) {
    Simulator sim;
    Network net{sim, 5};
    DisTopologySpec spec;
    spec.sites = 12;
    spec.receivers_per_site = 6;
    spec.sites_per_region = sites_per_region;
    make_dis_topology(net, spec);
    net.finalize();
    return net.routing_table_hash();
}

// The pinned hashes are what the eager serial and parallel builds (since
// retired) produced for these topologies: rows materialised on demand are
// the same bytes.
TEST(FinalizeModes, TableHashIdenticalAcrossSerialParallelLazy) {
    EXPECT_EQ(table_hash(0), 12607537629962816793ull);
}

TEST(FinalizeModes, TableHashIdenticalWithRegionalTier) {
    EXPECT_EQ(table_hash(3), 10528010979986328073ull);
}

TEST(FinalizeModes, LazyMaterialisesRowsOnDemand) {
    Simulator sim;
    Network net{sim, 5};
    DisTopologySpec spec;
    spec.sites = 8;
    spec.receivers_per_site = 10;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    // Only border rows were built eagerly (one per site router here).
    const std::size_t after_finalize = net.site_rows_built();
    EXPECT_GT(after_finalize, 0u);
    EXPECT_LT(after_finalize, net.node_count());

    // Traffic touches rows; the count grows but only where needed.
    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);
    net.multicast(topo.source,
                  Packet{Header{group, topo.source, topo.source},
                         DataBody{SeqNum{1}, EpochId{0}, {1}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));
    EXPECT_GT(net.site_rows_built(), after_finalize);
    EXPECT_LT(net.site_rows_built(), net.node_count());

    // Hashing forces the rest: one row per node of each site, so the count
    // ends at the sum of the site sizes -- every node.
    (void)net.routing_table_hash();
    EXPECT_EQ(net.site_rows_built(), net.node_count());
}

// --- lazy rows vs mid-run liveness/topology changes --------------------------

TEST(FinalizeModes, LazyRowsUseFinalizeTimeLivenessSnapshot) {
    // Site A's interior host leaves through an interior relay: the fast way
    // is a_host -> a_relay -> a_r1, the slow way a_host -> a_r2.
    Simulator sim;
    Network net{sim, 7};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_relay = net.add_node(SiteId{1});
    const NodeId a_r1 = net.add_node(SiteId{1}, true);
    const NodeId a_r2 = net.add_node(SiteId{1}, true);
    const NodeId b_host = net.add_node(SiteId{2});
    const NodeId b_r = net.add_node(SiteId{2}, true);
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    const LinkSpec slow{millis(3), 0.0, Duration::zero()};
    net.add_link(a_host, a_relay, fast);
    net.add_link(a_relay, a_r1, fast);
    net.add_link(a_host, a_r2, slow);
    net.add_link(a_r1, b_r, fast);
    net.add_link(a_r2, b_r, fast);
    net.add_link(b_host, b_r, fast);
    net.finalize();
    const std::vector<NodeId> finalize_time = lbrm::test::oracle_path(net, a_host, b_host);
    ASSERT_EQ(finalize_time, (std::vector<NodeId>{a_host, a_relay, a_r1, b_r, b_host}));

    // a_host's row is first built by this unicast, after the relay went
    // down: it must still follow the finalize-time route and die in the
    // relay, not detour around it.
    const std::size_t rows_before = net.site_rows_built();
    net.set_node_down(a_relay, true);
    const Packet query{Header{GroupId{1}, a_host, a_host}, PrimaryQueryBody{}};
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, b_host, query),
              (std::vector<NodeId>{a_host, a_relay}));
    EXPECT_GT(net.site_rows_built(), rows_before);

    net.finalize();  // reconverge: the oracle's detour
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, b_host, query),
              lbrm::test::oracle_path(net, a_host, b_host, {a_relay}));
}

// --- observer A/B ------------------------------------------------------------

ScenarioConfig observer_scenario_config(std::shared_ptr<ScenarioObserver> observer) {
    ScenarioConfig config;
    config.topology.sites = 6;
    config.topology.receivers_per_site = 4;
    config.seed = 77;
    config.observer = std::move(observer);
    return config;
}

TEST(Observers, CountingMatchesRecordingAndLeavesSimBitIdentical) {
    auto counting = std::make_shared<CountingObserver>();

    DisScenario recorded{observer_scenario_config(nullptr)};  // default recorder
    DisScenario counted{observer_scenario_config(counting)};

    for (DisScenario* s : {&recorded, &counted}) {
        s->start();
        for (int i = 0; i < 5; ++i) {
            s->send_update(std::vector<std::uint8_t>{1, 2, 3, 4});
            s->run_for(millis(40));
        }
        s->run_for(secs(5.0));
    }

    // The observer must not perturb the simulation itself.
    EXPECT_EQ(recorded.simulator().events_processed(),
              counted.simulator().events_processed());

    // Tallies agree with the full records.
    EXPECT_EQ(counting->deliveries(), recorded.deliveries().size());
    EXPECT_EQ(counting->notices(), recorded.notices().size());
    EXPECT_EQ(counting->sends(), recorded.sends().size());
    ASSERT_GT(counting->deliveries(), 0u);

    std::uint64_t recorded_bytes = 0;
    for (const auto& d : recorded.deliveries()) recorded_bytes += d.payload.size();
    EXPECT_EQ(counting->payload_bytes(), recorded_bytes);

    for (const auto& site : recorded.topology().sites)
        for (NodeId r : site.receivers) {
            std::uint32_t expect = 0;
            for (const auto& d : recorded.deliveries())
                if (d.node == r) ++expect;
            EXPECT_EQ(counting->deliveries_at(r), expect);
        }

    // Record accessors require the recording observer.
    EXPECT_THROW((void)counted.deliveries(), std::logic_error);
    EXPECT_THROW((void)counted.notices(), std::logic_error);
    EXPECT_THROW((void)counted.sends(), std::logic_error);
    (void)counted.observer();  // the observer itself is always reachable

    // clear() resets tallies.
    counted.clear_records();
    EXPECT_EQ(counting->deliveries(), 0u);
    EXPECT_EQ(counting->nodes_with_at_least(1), 0u);
}

}  // namespace
