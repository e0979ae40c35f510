// Scale-engine tests (DESIGN.md "Scale engineering"): the struct-of-arrays
// node store, the finalize-time routing snapshot and the pluggable scenario
// observer must all be invisible to results -- routes answer as the
// routers they replaced did, follow the finalize-time snapshot, and every
// observer leaves the protocol trace bit-identical.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
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

/// link(a, b) against a std::map oracle of every directed link, on seeded
/// random multi-site trees: a hub of degree > 1,000, cables added in either
/// orientation and after finalize(), lookups before and after finalize(),
/// absent pairs and ids out of range.
/// A pair must resolve to the Link* its cable got when it was added, for
/// the network's lifetime.
TEST(NetworkLink, RandomTopologiesMatchMapOracle) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        Rng rng{seed};
        Simulator sim;
        Network net{sim, seed};
        std::map<std::pair<std::uint32_t, std::uint32_t>, Link*> oracle;
        std::vector<NodeId> nodes;

        auto random_node = [&] { return nodes[rng.uniform_int(0, nodes.size() - 1)]; };
        // Adds the cable a-b and records both directions.
        auto connect = [&](NodeId a, NodeId b) {
            const LinkSpec spec{micros(static_cast<std::int64_t>(rng.uniform_int(10, 5000))),
                                0.0, Duration::zero()};
            net.add_link(a, b, spec);
            oracle[{a.value(), b.value()}] = net.link(a, b);
            oracle[{b.value(), a.value()}] = net.link(b, a);
        };
        // A new node on `at`'s site hung off `at` (either orientation), so
        // the cables stay a tree.
        auto sprout = [&](NodeId at) {
            const NodeId leaf = nodes.emplace_back(net.add_node(net.site_of(at)));
            if (rng.uniform_int(0, 1) == 0) connect(leaf, at);
            else connect(at, leaf);
        };

        const NodeId hub = nodes.emplace_back(net.add_node(SiteId{0}));
        auto check = [&] {
            ASSERT_EQ(net.link_count(), oracle.size());
            for (const auto& [pair, l] : oracle) {
                const NodeId a{pair.first};
                const NodeId b{pair.second};
                ASSERT_EQ(net.link(a, b), l);
                EXPECT_EQ(l->from(), a);
                EXPECT_EQ(l->to(), b);
                EXPECT_EQ(net.link(b, a)->spec(), l->spec());  // one cable's row
            }
            const Network& cnet = net;
            for (int i = 0; i < 20'000; ++i) {  // mostly absent pairs
                const NodeId a = random_node();
                const NodeId b = i % 4 == 0 ? hub : random_node();
                const auto it = oracle.find({a.value(), b.value()});
                ASSERT_EQ(cnet.link(a, b), it == oracle.end() ? nullptr : it->second);
            }
            const NodeId past{static_cast<std::uint32_t>(net.node_count() + 1)};
            for (const NodeId bad : {NodeId{0}, past, NodeId{0xFFFFFFFFu}}) {
                EXPECT_EQ(net.link(hub, bad), nullptr);
                EXPECT_EQ(net.link(bad, hub), nullptr);
                EXPECT_EQ(net.link(bad, bad), nullptr);
            }
        };

        // Sites: a router on the hub, hosts on the router.
        for (std::uint32_t s = 1; s <= 20; ++s) {
            const NodeId router = nodes.emplace_back(net.add_node(SiteId{s}));
            connect(router, hub);
            const auto hosts = rng.uniform_int(40, 100);
            for (std::uint64_t h = 0; h < hosts; ++h)
                connect(nodes.emplace_back(net.add_node(SiteId{s})), router);
        }
        // Spokes until the hub's degree passes 1,000, then leaves on random
        // nodes.
        for (std::size_t hub_degree = 20; hub_degree < 1'100; ++hub_degree) sprout(hub);
        for (int i = 0; i < 3'000; ++i) sprout(random_node());
        check();

        net.finalize();
        check();

        // Cables and nodes added after finalize() are found at once: new
        // leaves, a third of them on the hub.
        for (int i = 0; i < 160; ++i) sprout(i % 3 == 0 ? hub : random_node());
        check();
        net.finalize();
        check();
    }
}

/// A cable is specified once: add_link over an existing pair throws in
/// either orientation, before and after finalize(), and changes nothing --
/// not the cable's spec, stats or loss models, nor the finalized routes.
TEST(NetworkLink, AddLinkOverAnExistingPairThrowsAndChangesNothing) {
    Simulator sim;
    Network net{sim, 9};
    const NodeId a = net.add_node(SiteId{1});
    const NodeId b = net.add_node(SiteId{1});
    const LinkSpec spec{millis(2), 1e6, millis(50)};
    net.add_link(a, b, spec);
    Link* ab = net.link(a, b);
    Link* ba = net.link(b, a);
    ASSERT_TRUE(ab->transmit(sim.now(), 100, PacketType::kData).has_value());
    net.set_loss(a, b, std::make_unique<BernoulliLoss>(0.0));
    const LinkSpec other{millis(7), 0.0, Duration::zero()};

    auto refused_unchanged = [&] {
        for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}})
            EXPECT_THROW(net.add_link(x, y, other), std::invalid_argument);
        EXPECT_EQ(net.link_count(), 2u);
        EXPECT_EQ(net.link(a, b), ab);
        EXPECT_EQ(net.link(b, a), ba);
        EXPECT_EQ(ab->spec().propagation, spec.propagation);
        EXPECT_EQ(ab->spec().bandwidth_bps, spec.bandwidth_bps);
        EXPECT_EQ(ab->spec().max_queue_delay, spec.max_queue_delay);
        EXPECT_EQ(ab->stats().packets, 1u);
        EXPECT_EQ(net.metrics().value("sim.link_bytes"), 100u);  // one cable
        EXPECT_TRUE(ab->has_loss_model());
        EXPECT_FALSE(ba->has_loss_model());
    };
    refused_unchanged();
    net.finalize();
    refused_unchanged();
    // Still finalized: traffic needs no second finalize().
    net.unicast(a, b, Packet{Header{GroupId{1}, a, a}, DataBody{SeqNum{1}, EpochId{0}, {1}}});
    sim.run_to_completion();
    EXPECT_EQ(ab->stats().packets, 2u);
}

TEST(NetworkLink, SiteAndRouterFlagsSurviveSoAStorage) {
    Simulator sim;
    Network net{sim, 1};
    const NodeId host = net.add_node(SiteId{7});
    const NodeId router = net.add_node(SiteId{9});
    EXPECT_EQ(net.site_of(host), SiteId{7});
    EXPECT_EQ(net.site_of(router), SiteId{9});
    EXPECT_EQ(net.node_count(), 2u);
    net.add_link(host, router, LinkSpec{});
    EXPECT_EQ(net.link_count(), 2u);  // one cable = two directed links
}

TEST(DisTopologySize, MatchesTheBuiltNetwork) {
    // make_dis_topology reserves from dis_topology_size, so an undercount
    // regrows every per-node vector at the last node.
    struct Shape {
        std::uint32_t sites, receivers, replicas, sites_per_region;
        bool secondaries;
    };
    for (const Shape& shape : {Shape{20, 5, 1, 0, true}, Shape{7, 3, 2, 3, true},
                               Shape{4, 0, 0, 0, false}, Shape{1, 9, 3, 1, false}}) {
        DisTopologySpec spec;
        spec.sites = shape.sites;
        spec.receivers_per_site = shape.receivers;
        spec.replicas = shape.replicas;
        spec.sites_per_region = shape.sites_per_region;
        spec.secondary_logger_per_site = shape.secondaries;
        Simulator sim;
        Network net{sim, 1};
        (void)make_dis_topology(net, spec);
        const DisTopologySize size = dis_topology_size(spec);
        EXPECT_EQ(size.nodes, net.node_count()) << shape.sites << " sites";
        EXPECT_EQ(size.directed_links, net.link_count()) << shape.sites << " sites";
    }
}

// --- routing snapshot ---------------------------------------------------------

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

// The pinned hashes digest every (node, destination) answer -- next hop
// and link -- as the site/backbone router this one replaced gave them for
// these topologies (that router's tables, hashed the same way), so any
// route the tree router answers differently fails here.
TEST(FinalizeModes, TableHashIdenticalAcrossSerialParallelLazy) {
    EXPECT_EQ(table_hash(0), 12795206644288431655ull);
}

TEST(FinalizeModes, TableHashIdenticalWithRegionalTier) {
    EXPECT_EQ(table_hash(3), 5813568451804292463ull);
}

// --- routes vs mid-run liveness/topology changes -----------------------------

TEST(FinalizeModes, LazyRowsUseFinalizeTimeLivenessSnapshot) {
    // Site A's host leaves through an interior relay:
    // a_host -> a_relay -> a_r -> b_r -> b_host.
    Simulator sim;
    Network net{sim, 7};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_relay = net.add_node(SiteId{1});
    const NodeId a_r = net.add_node(SiteId{1});
    const NodeId b_host = net.add_node(SiteId{2});
    const NodeId b_r = net.add_node(SiteId{2});
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    net.add_link(a_host, a_relay, fast);
    net.add_link(a_relay, a_r, fast);
    net.add_link(a_r, b_r, fast);
    net.add_link(b_host, b_r, fast);
    net.finalize();
    const std::vector<NodeId> finalize_time = lbrm::test::oracle_path(net, a_host, b_host);
    ASSERT_EQ(finalize_time, (std::vector<NodeId>{a_host, a_relay, a_r, b_r, b_host}));

    // The relay went down after finalize(): the unicast must still follow
    // the finalize-time route and die in the relay.
    net.set_node_down(a_relay, true);
    const Packet query{Header{GroupId{1}, a_host, a_host}, PrimaryQueryBody{}};
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, b_host, query),
              (std::vector<NodeId>{a_host, a_relay}));

    net.finalize();  // reconverge: the relay cuts a_host off, so nothing is sent
    ASSERT_TRUE(lbrm::test::oracle_path(net, a_host, b_host, {a_relay}).empty());
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, b_host, query),
              (std::vector<NodeId>{a_host}));
    // The relay itself is an endpoint, not a relay: still reachable.
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, b_host, a_relay, query),
              (lbrm::test::oracle_path(net, b_host, a_relay, {a_relay})));
}

/// Site A reaches site C across a single-node transit site:
///
///   a_host -- a_r --- t1 --- c_r -- c_host
TEST(FinalizeModes, LazyBackboneRowsUseFinalizeTimeLivenessSnapshot) {
    Simulator sim;
    Network net{sim, 7};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_r = net.add_node(SiteId{1});
    const NodeId t1 = net.add_node(SiteId{2});
    const NodeId c_r = net.add_node(SiteId{4});
    const NodeId c_host = net.add_node(SiteId{4});
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    net.add_link(a_host, a_r, fast);
    net.add_link(a_r, t1, fast);
    net.add_link(t1, c_r, fast);
    net.add_link(c_r, c_host, fast);
    net.finalize();
    const Packet query{Header{GroupId{1}, a_host, a_host}, PrimaryQueryBody{}};

    // The transit border t1 went down after finalize(): the unicast still
    // follows the finalize-time route and dies in t1.
    net.set_node_down(t1, true);
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, c_host, query),
              (std::vector<NodeId>{a_host, a_r, t1}));

    net.finalize();  // reconverge: site C is cut off
    EXPECT_TRUE(lbrm::test::oracle_path(net, a_host, c_host, {t1}).empty());
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, c_host, query),
              (std::vector<NodeId>{a_host}));
}

TEST(FinalizeModes, LazyBackboneRowsUseFinalizeTimeBorderGraph) {
    // a_host -- a_r --- t1 --- c_r -- c_host, and d_host in a tree of its
    // own.  A cable joining d_host to t1 while a unicast is in flight
    // leaves that packet on its finalize-time route; d_host routes only
    // from the next finalize() on.
    Simulator sim;
    Network net{sim, 7};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_r = net.add_node(SiteId{1});
    const NodeId t1 = net.add_node(SiteId{2});
    const NodeId c_r = net.add_node(SiteId{4});
    const NodeId c_host = net.add_node(SiteId{4});
    const NodeId d_host = net.add_node(SiteId{5});
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    net.add_link(a_host, a_r, fast);
    net.add_link(a_r, t1, fast);
    net.add_link(t1, c_r, fast);
    net.add_link(c_r, c_host, fast);
    net.finalize();
    const Packet query{Header{GroupId{1}, a_host, a_host}, PrimaryQueryBody{}};
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, d_host, query),
              (std::vector<NodeId>{a_host}));  // another tree: nothing sent

    std::vector<NodeId> path{a_host};
    net.set_tap([&path](TimePoint, const Link& l, const Packet&, bool) {
        if (l.from() != path.back()) path.push_back(kNoNode);
        path.push_back(l.to());
    });
    net.unicast(a_host, c_host, query);
    sim.run_for(micros(1500));  // in flight on a_r -> t1
    ASSERT_EQ(path, (std::vector<NodeId>{a_host, a_r, t1}));
    net.add_link(t1, d_host, fast);
    sim.run_for(secs(1.0));
    net.set_tap(nullptr);
    EXPECT_EQ(path, (std::vector<NodeId>{a_host, a_r, t1, c_r, c_host}));

    net.finalize();  // reconverge: d_host joins the tree under t1
    EXPECT_EQ(lbrm::test::traced_unicast(net, sim, a_host, d_host, query),
              (std::vector<NodeId>{a_host, a_r, t1, d_host}));
    EXPECT_EQ(lbrm::test::oracle_path(net, a_host, d_host),
              (std::vector<NodeId>{a_host, a_r, t1, d_host}));
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

    // Sized updates: the scenario fills in their bytes, which must not
    // depend on the observer either.
    Fnv1a recorded_trace;
    Fnv1a counted_trace;
    for (auto [s, trace] : {std::pair{&recorded, &recorded_trace},
                            std::pair{&counted, &counted_trace}}) {
        s->network().set_tap([trace](TimePoint at, const Link& link, const Packet& packet,
                                     bool delivered) {
            trace->feed_value(at.time_since_epoch().count());
            trace->feed_value(link.from().value());
            trace->feed_value(link.to().value());
            trace->feed_value(static_cast<std::uint8_t>(delivered));
            const std::vector<std::uint8_t> bytes = encode(packet);
            trace->feed(bytes.data(), bytes.size());
        });
        s->start();
        for (int i = 0; i < 5; ++i) {
            s->send_update(std::size_t{64});
            s->run_for(millis(40));
        }
        s->run_for(secs(5.0));
        s->network().set_tap(nullptr);
    }

    // The observer must not perturb the simulation itself: the same
    // events, and the same packets on every link, byte for byte.
    EXPECT_EQ(recorded.simulator().events_processed(),
              counted.simulator().events_processed());
    EXPECT_EQ(recorded_trace.h, counted_trace.h);

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
