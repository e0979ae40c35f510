// Routing tests (DESIGN.md "Hierarchical routing"): the site/backbone
// tables must route every packet along the true shortest path.  The RoutingAB
// tests compare the hops packets actually take (through the tap) with a
// test-only Dijkstra oracle over the public topology (tests/route_oracle.hpp)
// -- on topologies with unique shortest paths, the scope of the guarantee
// (see DESIGN.md, tie-breaking) -- including after a router goes down, with
// and without a re-finalize, and after cables are added to a finalized
// network.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "tests/route_oracle.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::oracle_path;
using lbrm::test::traced_unicast;

Packet query_from(NodeId from) {
    return Packet{Header{GroupId{1}, from, from}, PrimaryQueryBody{}};
}

using LinkSet = std::set<std::pair<NodeId, NodeId>>;

/// The links one multicast crosses, from the tap.
LinkSet traced_multicast(Network& net, Simulator& sim, NodeId from, McastScope scope) {
    LinkSet links;
    net.set_tap([&links](TimePoint, const Link& l, const Packet&, bool) {
        links.emplace(l.from(), l.to());
    });
    net.multicast(from,
                  Packet{Header{GroupId{1}, from, from},
                         DataBody{SeqNum{1}, EpochId{0}, {1, 2, 3}}},
                  scope);
    sim.run_for(secs(1.0));
    net.set_tap(nullptr);
    return links;
}

/// The links the oracle says that multicast must cross: the union of the
/// oracle paths to every member in scope -- same site (and never leaving
/// it) for site scope, at most 4 hops for region scope.
LinkSet oracle_multicast(const Network& net, NodeId from, const std::vector<NodeId>& members,
                         McastScope scope) {
    LinkSet links;
    for (const NodeId m : members) {
        if (m == from) continue;
        const std::vector<NodeId> path = oracle_path(net, from, m);
        bool in_scope = !path.empty();
        if (scope == McastScope::kSite)
            for (const NodeId n : path) in_scope = in_scope && net.site_of(n) == net.site_of(from);
        if (scope == McastScope::kRegion) in_scope = in_scope && path.size() - 1 <= 4;
        if (!in_scope) continue;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) links.emplace(path[i], path[i + 1]);
    }
    return links;
}

// --- oracle checks on the 6-site DIS topology -------------------------------

/// Unicasts from a spread of senders to every node, then a global, a
/// site-scoped and a region-scoped multicast: every hop must be the
/// oracle's.
void expect_routes_match_oracle(std::uint32_t sites_per_region) {
    Simulator sim;
    Network net{sim, 1234};
    DisTopologySpec spec;
    spec.sites = 6;
    spec.receivers_per_site = 4;
    spec.sites_per_region = sites_per_region;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    std::vector<NodeId> members = topo.all_receivers();
    for (const auto& site : topo.sites)
        if (site.secondary != kNoNode) members.push_back(site.secondary);
    for (const NodeId m : members) net.join(GroupId{1}, m);

    const std::vector<NodeId> senders = {topo.source, topo.sites[0].secondary,
                                         topo.sites[1].receivers[2],
                                         topo.sites[4].receivers[1]};
    for (const NodeId from : senders) {
        for (std::uint32_t id = 1; id <= net.node_count(); ++id) {
            const NodeId to{id};
            if (to == from) continue;
            EXPECT_EQ(traced_unicast(net, sim, from, to, query_from(from)),
                      oracle_path(net, from, to))
                << "unicast " << from << " -> " << to;
        }
    }

    const std::pair<NodeId, McastScope> sends[] = {
        {topo.source, McastScope::kGlobal},
        {topo.sites[0].secondary, McastScope::kSite},
        {topo.sites[3].secondary, McastScope::kRegion},
        {topo.sites[5].receivers[0], McastScope::kGlobal}};
    for (const auto& [from, scope] : sends) {
        const LinkSet want = oracle_multicast(net, from, members, scope);
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(traced_multicast(net, sim, from, scope), want)
            << "multicast from " << from << ", scope " << static_cast<int>(scope);
    }
}

TEST(RoutingAB, ScopedMulticastAndUnicastTraceIdentical) {
    expect_routes_match_oracle(/*sites_per_region=*/0);
}

TEST(RoutingAB, RegionalTierTraceIdentical) {
    expect_routes_match_oracle(/*sites_per_region=*/2);
}

// --- downed router forcing a backbone detour ---------------------------------

/// Two sites, each with two border routers and redundant inter-site cables:
///
///   a_host -- a_r1 ---- b_r1 -- b_host
///        \___ a_r2 ---- b_r2 ___/
///
/// The r1 corridor is faster, so traffic prefers it; downing a_r1 and
/// re-finalizing must detour everything over the r2 corridor.
struct DetourNet {
    Simulator sim;
    Network net;
    NodeId a_host, a_r1, a_r2, b_host, b_r1, b_r2;

    DetourNet() : net(sim, 7) {
        a_host = net.add_node(SiteId{1});
        a_r1 = net.add_node(SiteId{1}, /*is_router=*/true);
        a_r2 = net.add_node(SiteId{1}, /*is_router=*/true);
        b_host = net.add_node(SiteId{2});
        b_r1 = net.add_node(SiteId{2}, /*is_router=*/true);
        b_r2 = net.add_node(SiteId{2}, /*is_router=*/true);
        const LinkSpec fast{millis(1), 0.0, Duration::zero()};
        const LinkSpec slow{millis(3), 0.0, Duration::zero()};
        net.add_link(a_host, a_r1, fast);
        net.add_link(a_host, a_r2, fast);
        net.add_link(b_host, b_r1, fast);
        net.add_link(b_host, b_r2, fast);
        net.add_link(a_r1, b_r1, fast);  // preferred corridor
        net.add_link(a_r2, b_r2, slow);  // detour corridor
        net.finalize();
    }
};

/// Every node pair of the detour net, both directions.
std::vector<std::pair<NodeId, NodeId>> detour_pairs(const DetourNet& d) {
    const NodeId nodes[] = {d.a_host, d.a_r1, d.a_r2, d.b_host, d.b_r1, d.b_r2};
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const NodeId from : nodes)
        for (const NodeId to : nodes)
            if (from != to) pairs.emplace_back(from, to);
    return pairs;
}

TEST(RoutingAB, DownedRouterForcesIdenticalBackboneDetour) {
    DetourNet d;
    d.net.set_node_down(d.a_r1, true);
    d.net.finalize();  // reconverge: a_r1 no longer relays
    const std::set<NodeId> down = {d.a_r1};
    for (const auto& [from, to] : detour_pairs(d)) {
        if (from == d.a_r1 || to == d.a_r1) continue;  // a dead node neither sends nor receives
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)),
                  oracle_path(d.net, from, to, down))
            << from << " -> " << to;
    }
    EXPECT_EQ(oracle_path(d.net, d.a_host, d.b_host, down),
              (std::vector<NodeId>{d.a_host, d.a_r2, d.b_r2, d.b_host}));
}

TEST(Routing, DownedRouterDetourUsesBackupCorridor) {
    DetourNet d;
    const GroupId group{1};
    d.net.join(group, d.b_host);
    auto send = [&](std::uint32_t seq) {
        d.net.multicast(d.a_host,
                        Packet{Header{group, d.a_host, d.a_host},
                               DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                        McastScope::kGlobal);
        d.sim.run_for(secs(1.0));
    };
    send(1);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // fast corridor
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 0u);

    d.net.set_node_down(d.a_r1, true);
    d.net.finalize();
    send(2);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // unchanged
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);  // detour taken
    EXPECT_EQ(d.net.link(d.b_r2, d.b_host)->stats().packets, 1u);

    // Revive and reconverge: traffic returns to the fast corridor.
    d.net.set_node_down(d.a_r1, false);
    d.net.finalize();
    send(3);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 2u);
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);
}

// --- set_node_down without re-finalize: blackhole semantics ------------------

TEST(RoutingAB, DownWithoutRefinalizeTraceIdentical) {
    // Routes must be a pure function of the last finalize(): a mid-run
    // set_node_down changes nothing (packets blackhole into the downed
    // border) until finalize() reconverges.  Regression for a bug where
    // next-hop composition read live down flags, so routes shifted
    // immediately.
    DetourNet d;
    // Every route runs through the r1 corridor.
    for (const auto& [from, to] : detour_pairs(d))
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)),
                  oracle_path(d.net, from, to));

    // Down a_r1 without re-finalizing: hops still follow the finalize-time
    // routes, so a path through a_r1 ends there.
    d.net.set_node_down(d.a_r1, true);
    for (const auto& [from, to] : detour_pairs(d)) {
        if (from == d.a_r1) continue;  // a dead node sends nothing
        std::vector<NodeId> want = oracle_path(d.net, from, to);
        const auto dead = std::find(want.begin(), want.end(), d.a_r1);
        if (dead != want.end()) want.erase(dead + 1, want.end());
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)), want)
            << from << " -> " << to;
    }

    d.net.finalize();  // reconverged: the detour via r2
    EXPECT_EQ(traced_unicast(d.net, d.sim, d.a_host, d.b_host, query_from(d.a_host)),
              oracle_path(d.net, d.a_host, d.b_host, {d.a_r1}));
}

TEST(Routing, DownedRouterBlackholesUntilRefinalize) {
    DetourNet d;
    const GroupId group{1};
    d.net.join(group, d.b_host);
    auto send = [&](std::uint32_t seq) {
        d.net.multicast(d.a_host,
                        Packet{Header{group, d.a_host, d.a_host},
                               DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                        McastScope::kGlobal);
        d.sim.run_for(secs(1.0));
    };
    send(1);
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 1u);

    d.net.set_node_down(d.a_r1, true);
    send(2);  // tree rebuilt (down drops caches) but on the *old* tables
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 2u);  // into the hole
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // died at a_r1
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 0u);  // no early detour

    d.net.finalize();
    send(3);
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 2u);  // unchanged
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);  // detour taken
}

// --- cables added after finalize ---------------------------------------------

/// Three sites hung off one backbone router:
///
///   h1a, h1b -- r1 --- bb --- r2 -- h2a, h2b
///                 \    |
///                  \-- r3 -- h3a [, h3b]
///
/// The r1 -- r3 shortcut and the h3b leaf are the late cables: the shortcut
/// takes every r1 <-> r3 route off the backbone.
struct LateCableNet {
    enum : std::uint32_t { kH1a = 1, kH1b, kR1, kH2a, kH2b, kR2, kH3a, kR3, kBb, kH3b };
    static constexpr std::uint32_t kSite[] = {0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 3};  // by id
    static constexpr std::pair<std::uint32_t, std::uint32_t> kCables[] = {
        {kH1a, kR1}, {kH1b, kR1}, {kH2a, kR2}, {kH2b, kR2}, {kH3a, kR3},
        {kR1, kBb},  {kR2, kBb},  {kR3, kBb},
        {kR1, kR3},  {kH3b, kR3},  // late: the shortcut, then a new leaf
    };
    static constexpr std::size_t kEarlyCables = 8;

    Simulator sim;
    Network net{sim, 5};

    /// Add the nodes up to id `last`, then cables [begin, end).
    void grow(std::uint32_t last, std::size_t begin, std::size_t end) {
        for (auto id = static_cast<std::uint32_t>(net.node_count()) + 1; id <= last; ++id)
            net.add_node(SiteId{kSite[id]}, id == kR1 || id == kR2 || id == kR3 || id == kBb);
        for (std::size_t i = begin; i < end; ++i)
            net.add_link(NodeId{kCables[i].first}, NodeId{kCables[i].second}, LinkSpec{});
    }
};

TEST(RoutingAB, RefinalizeAfterNewCablesMatchesOneShotBuild) {
    constexpr std::size_t kAll = std::size(LateCableNet::kCables);
    constexpr std::size_t kShortcut = LateCableNet::kEarlyCables;
    const NodeId h1a{LateCableNet::kH1a}, h3a{LateCableNet::kH3a};
    const NodeId r1{LateCableNet::kR1}, r3{LateCableNet::kR3}, bb{LateCableNet::kBb};
    auto expect_oracle_routes = [](LateCableNet& n) {
        for (std::uint32_t a = 1; a <= n.net.node_count(); ++a) {
            for (std::uint32_t b = 1; b <= n.net.node_count(); ++b) {
                if (a == b) continue;
                EXPECT_EQ(traced_unicast(n.net, n.sim, NodeId{a}, NodeId{b},
                                         query_from(NodeId{a})),
                          oracle_path(n.net, NodeId{a}, NodeId{b}))
                    << a << " -> " << b;
            }
        }
    };

    LateCableNet one_shot;
    one_shot.grow(LateCableNet::kH3b, 0, kAll);
    one_shot.net.finalize();

    // Finalize the early topology and carry traffic over it, then add the
    // shortcut between existing routers, then a new leaf, finalizing after
    // each step.
    LateCableNet grown;
    grown.grow(LateCableNet::kBb, 0, kShortcut);
    grown.net.finalize();
    const GroupId group{1};
    for (std::uint32_t id = 1; id <= LateCableNet::kBb; ++id) grown.net.join(group, NodeId{id});
    grown.net.multicast(
        h1a, Packet{Header{group, h1a, h1a}, DataBody{SeqNum{1}, EpochId{0}, {7}}},
        McastScope::kGlobal);
    grown.sim.run_for(secs(1.0));
    EXPECT_EQ(traced_unicast(grown.net, grown.sim, h1a, h3a, query_from(h1a)),
              (std::vector<NodeId>{h1a, r1, bb, r3, h3a}));

    grown.grow(LateCableNet::kBb, kShortcut, kShortcut + 1);
    grown.net.finalize();
    EXPECT_EQ(traced_unicast(grown.net, grown.sim, h1a, h3a, query_from(h1a)),
              (std::vector<NodeId>{h1a, r1, r3, h3a}));
    expect_oracle_routes(grown);

    grown.grow(LateCableNet::kH3b, kShortcut + 1, kAll);
    grown.net.finalize();
    EXPECT_EQ(grown.net.routing_table_hash(), one_shot.net.routing_table_hash());
    expect_oracle_routes(grown);
}

TEST(Routing, HierarchicalIsDefaultAndReportsTables) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 3;
    spec.receivers_per_site = 2;
    make_dis_topology(net, spec);
    net.finalize();
    EXPECT_GT(net.routing_table_bytes(), 0u);
    EXPECT_GT(net.site_rows_built(), 0u);
}

}  // namespace
