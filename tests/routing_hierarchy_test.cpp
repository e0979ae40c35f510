// Routing tests (DESIGN.md "Tree routing"): the tree router must route
// every packet along the only path the tree has, and answer "unreachable"
// exactly where a node down at finalize() lies strictly inside it.  The
// RoutingAB tests compare the hops packets actually take (through the tap)
// with a test-only Dijkstra oracle over the public topology
// (tests/route_oracle.hpp) -- on DIS topologies, on seeded random trees and
// forests, after routers go down with and without a re-finalize, and after
// cables are added to a finalized network.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/loss_model.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "tests/route_oracle.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::oracle_adjacency;
using lbrm::test::oracle_path;
using lbrm::test::oracle_paths;
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
/// oracle paths (`paths`, from the sender, with `finalize_down` not
/// relaying) to every member in scope -- same site (and never leaving it)
/// for site scope, at most 4 hops for region scope.  A member down now
/// (`down_now`) is skipped, and a path stops forwarding at the first node
/// down now, where the copy dies.
LinkSet oracle_multicast(const Network& net, const std::vector<std::vector<NodeId>>& paths,
                         NodeId from, const std::vector<NodeId>& members, McastScope scope,
                         const std::set<NodeId>& down_now = {}) {
    LinkSet links;
    for (const NodeId m : members) {
        if (m == from || down_now.contains(m)) continue;
        const std::vector<NodeId>& path = paths[m.value()];
        bool in_scope = !path.empty();
        if (scope == McastScope::kSite)
            for (const NodeId n : path) in_scope = in_scope && net.site_of(n) == net.site_of(from);
        if (scope == McastScope::kRegion) in_scope = in_scope && path.size() - 1 <= 4;
        if (!in_scope) continue;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            if (i > 0 && down_now.contains(path[i])) break;
            links.emplace(path[i], path[i + 1]);
        }
    }
    return links;
}

LinkSet oracle_multicast(const Network& net, NodeId from, const std::vector<NodeId>& members,
                         McastScope scope, const std::set<NodeId>& finalize_down = {}) {
    return oracle_multicast(net, oracle_paths(oracle_adjacency(net), from, finalize_down), from,
                            members, scope, finalize_down);
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

// --- single-cable nodes ------------------------------------------------------

/// Drops nothing and counts its draws.
class CountingLoss final : public LossModel {
public:
    explicit CountingLoss(std::uint64_t& draws) : draws_(draws) {}
    bool drop(Rng&, TimePoint) override {
        ++draws_;
        return false;
    }

private:
    std::uint64_t& draws_;
};

/// The 4-site DIS topology with replicas and a regional tier, plus a
/// one-node site hanging off the backbone (a single-cable border) and a
/// separate two-node component (each end's far end has one cable too).
/// Every non-router is single-cable, and every shortest path is unique.
struct SingleCableNet {
    Simulator sim;
    Network net{sim, 99};
    DisTopology topo;
    NodeId stub, pair_a, pair_b;
    std::vector<NodeId> members;
    /// Loss draws on each node's cable toward its far end, by node id.
    std::vector<std::uint64_t> draws;

    SingleCableNet() {
        DisTopologySpec spec;
        spec.sites = 4;
        spec.receivers_per_site = 3;
        spec.replicas = 2;
        spec.sites_per_region = 2;
        topo = make_dis_topology(net, spec);
        stub = net.add_node(SiteId{900});
        net.add_link(stub, topo.backbone,
                     LinkSpec{spec.backbone_delay, spec.backbone_bandwidth_bps,
                              Duration::zero()});
        pair_a = net.add_node(SiteId{901});
        pair_b = net.add_node(SiteId{901});
        net.add_link(pair_a, pair_b,
                     LinkSpec{spec.lan_delay, spec.lan_bandwidth_bps, Duration::zero()});
        members = topo.all_receivers();
        for (const auto& site : topo.sites) members.push_back(site.secondary);
        for (const auto& region : topo.regions) members.push_back(region.logger);
        members.insert(members.end(), topo.replicas.begin(), topo.replicas.end());
        members.insert(members.end(), {topo.primary, stub, pair_a, pair_b});
        std::sort(members.begin(), members.end());
        for (const NodeId m : members) net.join(GroupId{1}, m);
        draws.assign(net.node_count() + 1, 0);
    }

    /// Every node with exactly one cable, with the node at its far end.
    [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> single_cable_nodes() const {
        std::vector<std::pair<NodeId, NodeId>> out;
        const auto n = static_cast<std::uint32_t>(net.node_count());
        for (std::uint32_t a = 1; a <= n; ++a) {
            std::vector<NodeId> peers;
            for (std::uint32_t b = 1; b <= n; ++b)
                if (net.link(NodeId{a}, NodeId{b}) != nullptr) peers.push_back(NodeId{b});
            if (peers.size() == 1) out.emplace_back(NodeId{a}, peers[0]);
        }
        return out;
    }

    /// Unicasts from every single-cable node to every other node.  Routes
    /// are the oracle's over the topology as finalize() saw it, with
    /// `finalize_down` not relaying; a packet dies in the first node it
    /// reaches that is down now (`finalize_down` or `live_down`).  An
    /// unreachable destination, or a down sender, puts nothing on the
    /// cable: no transmit and no loss draw.
    void expect_unicasts_match_oracle(const std::set<NodeId>& finalize_down,
                                      const std::set<NodeId>& live_down = {}) {
        std::set<NodeId> down_now = finalize_down;
        down_now.insert(live_down.begin(), live_down.end());
        const auto singles = single_cable_nodes();
        ASSERT_EQ(singles.size(), 25u);  // every host, the stub and the pair
        for (const auto& [from, far] : singles) {
            std::uint64_t& cable_draws = draws[from.value()];
            net.set_loss(from, far, std::make_unique<CountingLoss>(cable_draws));
            for (std::uint32_t id = 1; id <= net.node_count(); ++id) {
                const NodeId to{id};
                if (to == from) continue;
                std::vector<NodeId> want = oracle_path(net, from, to, finalize_down);
                if (down_now.contains(from)) want.clear();
                for (std::size_t i = 1; i < want.size(); ++i) {
                    if (down_now.contains(want[i])) {
                        want.resize(i + 1);
                        break;
                    }
                }
                if (want.empty()) want.push_back(from);
                const std::uint64_t before = cable_draws;
                EXPECT_EQ(traced_unicast(net, sim, from, to, query_from(from)), want)
                    << from << " -> " << to;
                EXPECT_EQ(cable_draws - before, want.size() > 1 ? 1u : 0u)
                    << from << " -> " << to;
            }
        }
    }

    /// A global multicast from every single-cable node crosses exactly the
    /// oracle's links to every reachable member.
    void expect_multicasts_match_oracle(const std::set<NodeId>& finalize_down) {
        for (const auto& [from, far] : single_cable_nodes()) {
            if (finalize_down.contains(from)) continue;
            EXPECT_EQ(traced_multicast(net, sim, from, McastScope::kGlobal),
                      oracle_multicast(net, from, members, McastScope::kGlobal,
                                       finalize_down))
                << "multicast from " << from;
        }
    }
};

// A single-cable node routes through its cable and reaches what its far end
// reaches, on every destination.
TEST(RoutingAB, SingleCableNodesMatchOracle) {
    SingleCableNet s;
    s.net.finalize();
    s.expect_unicasts_match_oracle({});
    s.expect_multicasts_match_oracle({});
}

TEST(RoutingAB, SingleCableNodesBehindRoutersDownAtFinalize) {
    // A host behind a router that was down at finalize() reaches only the
    // router; nothing else reaches the host.
    SingleCableNet s;
    const std::set<NodeId> down = {s.topo.sites[1].router, s.topo.regions[1].router};
    for (const NodeId d : down) s.net.set_node_down(d, true);
    s.net.finalize();
    s.expect_unicasts_match_oracle(down);
    s.expect_multicasts_match_oracle(down);
}

TEST(RoutingAB, SingleCableNodesKeepFinalizeTimeRoutesAfterSetNodeDown) {
    // Downed after finalize(): routes stand, so a host behind the router
    // still sends into it and the packet dies there.
    SingleCableNet s;
    s.net.finalize();
    const std::set<NodeId> down = {s.topo.sites[2].router, s.topo.regions[0].router,
                                   s.topo.replicas[1]};
    for (const NodeId d : down) s.net.set_node_down(d, true);
    s.expect_unicasts_match_oracle({}, down);
}

// --- seeded random trees ------------------------------------------------------

/// A random tree (or forest) and the down sets of one check: routers down
/// at finalize() never relay; nodes downed after it blackhole the
/// finalize-time routes through them.
struct RandomTree {
    Simulator sim;
    Network net;
    Rng rng;
    std::vector<NodeId> routers;

    explicit RandomTree(std::uint64_t seed) : net(sim, seed), rng(seed) {}

    LinkSpec spec() {
        return LinkSpec{micros(static_cast<std::int64_t>(rng.uniform_int(10, 5000))), 0.0,
                        Duration::zero()};
    }
    NodeId router(SiteId site) {
        return routers.emplace_back(net.add_node(site));
    }
    /// A new node on `at` (a cable in a random orientation).
    NodeId hang(NodeId at, SiteId site, bool is_router = false) {
        const NodeId n = is_router ? router(site) : net.add_node(site);
        if (rng.uniform_int(0, 1) == 0) net.add_link(n, at, spec());
        else net.add_link(at, n, spec());
        return n;
    }
    /// A site: a router on `at`, 1-4 hosts on the router, and now and then
    /// a host behind a host (so some hosts relay).
    void site(NodeId at, std::uint32_t id) {
        const NodeId r = hang(at, SiteId{id}, true);
        const auto hosts = rng.uniform_int(1, 4);
        for (std::uint64_t h = 0; h < hosts; ++h) {
            const NodeId host = hang(r, SiteId{id});
            if (rng.uniform_int(0, 5) == 0) (void)hang(host, SiteId{id});
        }
    }

    /// Every node id, in order.
    [[nodiscard]] std::vector<NodeId> nodes() const {
        std::vector<NodeId> out;
        for (std::uint32_t id = 1; id <= net.node_count(); ++id) out.push_back(NodeId{id});
        return out;
    }
    /// About one router in `one_in`, drawn without repeats.
    std::set<NodeId> pick_routers(std::uint64_t one_in, const std::set<NodeId>& taken) {
        std::set<NodeId> out;
        for (const NodeId r : routers)
            if (!taken.contains(r) && rng.uniform_int(0, one_in - 1) == 0) out.insert(r);
        return out;
    }

    /// Down `finalize_down` at finalize(), then `live_down` after it, and
    /// check every ordered pair's unicast and, from every `mcast_every`-th
    /// node, a global, a site and a region multicast to every other node.
    void check(const std::set<NodeId>& finalize_down, const std::set<NodeId>& live_down,
               std::uint32_t mcast_every) {
        for (const NodeId d : finalize_down) net.set_node_down(d, true);
        net.finalize();
        for (const NodeId d : live_down) net.set_node_down(d, true);
        std::set<NodeId> down_now = finalize_down;
        down_now.insert(live_down.begin(), live_down.end());
        const std::vector<NodeId> all = nodes();
        for (const NodeId m : all) net.join(GroupId{1}, m);
        const test::OracleAdjacency adj = oracle_adjacency(net);

        std::size_t reached = 0;
        std::size_t cut = 0;
        for (const NodeId from : all) {
            const auto paths = oracle_paths(adj, from, finalize_down);
            // Unicasts to every other node at once; each carries its
            // destination in its sequence number.
            std::vector<std::vector<NodeId>> traced(all.size() + 1);
            for (const NodeId to : all) traced[to.value()].assign(1, from);
            net.set_tap([&traced](TimePoint, const Link& l, const Packet& p, bool) {
                std::vector<NodeId>& path = traced[std::get<DataBody>(p.body).seq.value()];
                if (l.from() != path.back()) path.push_back(kNoNode);
                path.push_back(l.to());
            });
            for (const NodeId to : all) {
                if (to == from) continue;
                net.unicast(from, to,
                            Packet{Header{GroupId{1}, from, from},
                                   DataBody{SeqNum{to.value()}, EpochId{0}, {}}});
            }
            sim.run_for(secs(1.0));
            net.set_tap(nullptr);
            for (const NodeId to : all) {
                if (to == from) continue;
                // The oracle's path, dying in the first node down now; a
                // down sender or an unreachable destination sends nothing.
                std::vector<NodeId> want = paths[to.value()];
                if (down_now.contains(from)) want.clear();
                for (std::size_t i = 1; i < want.size(); ++i) {
                    if (down_now.contains(want[i])) {
                        want.resize(i + 1);
                        break;
                    }
                }
                if (want.empty()) want.push_back(from);
                (want.back() == to ? reached : cut) += 1;
                ASSERT_EQ(traced[to.value()], want) << from << " -> " << to;
            }

            if (from.value() % mcast_every != 0 || down_now.contains(from)) continue;
            for (const McastScope scope :
                 {McastScope::kGlobal, McastScope::kSite, McastScope::kRegion}) {
                ASSERT_EQ(traced_multicast(net, sim, from, scope),
                          oracle_multicast(net, paths, from, all, scope, down_now))
                    << "multicast from " << from << ", scope " << static_cast<int>(scope);
            }
        }
        // The down sets must leave both outcomes common.
        EXPECT_GT(reached, all.size());
        if (!finalize_down.empty() || !live_down.empty()) {
            EXPECT_GT(cut, all.size());
        }
    }
};

/// A hub of degree > 1,000: a few full sites and a thousand one-node sites
/// on it.
TEST(RoutingAB, RandomTreeWithThousandSpokeHubMatchesOracle) {
    RandomTree t{11};
    const NodeId hub = t.router(SiteId{0});
    for (std::uint32_t s = 1; s <= 12; ++s) t.site(hub, s);
    for (std::uint32_t s = 13; s <= 1'012; ++s) (void)t.hang(hub, SiteId{s});
    const std::set<NodeId> at_finalize = t.pick_routers(6, {});
    t.check(at_finalize, t.pick_routers(6, at_finalize), /*mcast_every=*/37);
}

/// Regional depth: chains of region routers, each with sites and a logger.
TEST(RoutingAB, RandomTreeWithRegionalDepthMatchesOracle) {
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        SCOPED_TRACE(seed);
        RandomTree t{seed};
        const NodeId hub = t.router(SiteId{0});
        std::uint32_t site = 1;
        for (std::uint32_t r = 0; r < 4; ++r) {
            NodeId at = hub;
            const auto depth = t.rng.uniform_int(1, 3);
            for (std::uint64_t level = 0; level < depth; ++level) {
                at = t.hang(at, SiteId{0x8000u + r}, true);
                (void)t.hang(at, SiteId{0x8000u + r});  // a regional logger
                const auto sites = t.rng.uniform_int(1, 3);
                for (std::uint64_t s = 0; s < sites; ++s) t.site(at, site++);
            }
        }
        const std::set<NodeId> at_finalize = t.pick_routers(4, {});
        t.check(at_finalize, t.pick_routers(4, at_finalize), /*mcast_every=*/1);
    }
}

/// Two trees and a lone node: nothing crosses between them.
TEST(RoutingAB, RandomForestMatchesOracle) {
    for (const std::uint64_t seed : {31u, 32u}) {
        SCOPED_TRACE(seed);
        RandomTree t{seed};
        std::uint32_t site = 1;
        for (std::uint32_t tree = 0; tree < 2; ++tree) {
            const NodeId hub = t.router(SiteId{0xF000u + tree});
            const auto sites = t.rng.uniform_int(4, 8);
            for (std::uint64_t s = 0; s < sites; ++s) t.site(hub, site++);
        }
        (void)t.net.add_node(SiteId{site});
        const std::set<NodeId> at_finalize = t.pick_routers(5, {});
        t.check(at_finalize, t.pick_routers(5, at_finalize), /*mcast_every=*/1);
    }
}

TEST(RoutingAB, FinalizeOnACycleThrowsNamingTheClosingCable) {
    // 1 - 2 - 3, then 3 - 1: the DFS from node 1 meets the cycle on the
    // cable 3-1, the last one added.
    Simulator sim;
    Network net{sim, 1};
    const NodeId a = net.add_node(SiteId{1});
    const NodeId b = net.add_node(SiteId{1});
    const NodeId c = net.add_node(SiteId{2});
    net.add_link(a, b, LinkSpec{});
    net.add_link(b, c, LinkSpec{});
    net.finalize();
    net.add_link(c, a, LinkSpec{});
    try {
        net.finalize();
        FAIL() << "finalize() accepted a cycle";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("cable 3-1 closes a cycle"), std::string::npos)
            << e.what();
    }
    // Nothing routes until a finalize() succeeds.
    EXPECT_THROW(net.unicast(a, c, query_from(a)), std::logic_error);
    EXPECT_EQ(net.routing_table_bytes(), 3u * 16u);
}

// --- a router down with and without a re-finalize -----------------------------

/// Two sites joined by their routers, two hosts each:
///
///   a_host, a_peer -- a_r ---- b_r -- b_host, b_peer
struct CorridorNet {
    Simulator sim;
    Network net;
    NodeId a_host, a_peer, a_r, b_host, b_peer, b_r;

    CorridorNet() : net(sim, 7) {
        a_host = net.add_node(SiteId{1});
        a_peer = net.add_node(SiteId{1});
        a_r = net.add_node(SiteId{1});
        b_host = net.add_node(SiteId{2});
        b_peer = net.add_node(SiteId{2});
        b_r = net.add_node(SiteId{2});
        const LinkSpec fast{millis(1), 0.0, Duration::zero()};
        net.add_link(a_host, a_r, fast);
        net.add_link(a_peer, a_r, fast);
        net.add_link(b_host, b_r, fast);
        net.add_link(b_peer, b_r, fast);
        net.add_link(a_r, b_r, fast);
        net.finalize();
    }
};

/// Every node pair of the corridor net, both directions.
std::vector<std::pair<NodeId, NodeId>> corridor_pairs(const CorridorNet& d) {
    const NodeId nodes[] = {d.a_host, d.a_peer, d.a_r, d.b_host, d.b_peer, d.b_r};
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const NodeId from : nodes)
        for (const NodeId to : nodes)
            if (from != to) pairs.emplace_back(from, to);
    return pairs;
}

TEST(RoutingAB, DownWithoutRefinalizeTraceIdentical) {
    // Routes must be a pure function of the last finalize(): a mid-run
    // set_node_down changes nothing (packets blackhole into the downed
    // router) until finalize() reconverges.  Regression for a bug where
    // next-hop composition read live down flags, so routes shifted
    // immediately.
    CorridorNet d;
    for (const auto& [from, to] : corridor_pairs(d))
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)),
                  oracle_path(d.net, from, to));

    // Down a_r without re-finalizing: hops still follow the finalize-time
    // routes, so a path through a_r ends there.
    d.net.set_node_down(d.a_r, true);
    for (const auto& [from, to] : corridor_pairs(d)) {
        if (from == d.a_r) continue;  // a dead node sends nothing
        std::vector<NodeId> want = oracle_path(d.net, from, to);
        const auto dead = std::find(want.begin(), want.end(), d.a_r);
        if (dead != want.end()) want.erase(dead + 1, want.end());
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)), want)
            << from << " -> " << to;
    }

    d.net.finalize();  // reconverged: a_r cuts its hosts off, so nothing is sent
    for (const auto& [from, to] : corridor_pairs(d)) {
        if (from == d.a_r) continue;
        std::vector<NodeId> want = oracle_path(d.net, from, to, {d.a_r});
        if (want.empty()) want.push_back(from);
        const auto dead = std::find(want.begin(), want.end(), d.a_r);
        if (dead != want.end()) want.erase(dead + 1, want.end());
        EXPECT_EQ(traced_unicast(d.net, d.sim, from, to, query_from(from)), want)
            << from << " -> " << to;
    }
    EXPECT_EQ(traced_unicast(d.net, d.sim, d.a_host, d.b_host, query_from(d.a_host)),
              std::vector<NodeId>{d.a_host});
}

TEST(Routing, DownedRouterBlackholesUntilRefinalize) {
    CorridorNet d;
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
    EXPECT_EQ(d.net.link(d.a_host, d.a_r)->stats().packets, 1u);

    d.net.set_node_down(d.a_r, true);
    send(2);  // tree rebuilt (down drops caches) but on the *old* routes
    EXPECT_EQ(d.net.link(d.a_host, d.a_r)->stats().packets, 2u);  // into the hole
    EXPECT_EQ(d.net.link(d.a_r, d.b_r)->stats().packets, 1u);  // died at a_r

    d.net.finalize();
    send(3);  // a_r no longer relays: b_host is unreachable, nothing is sent
    EXPECT_EQ(d.net.link(d.a_host, d.a_r)->stats().packets, 2u);

    // Revive and reconverge: traffic flows through a_r again.
    d.net.set_node_down(d.a_r, false);
    d.net.finalize();
    send(4);
    EXPECT_EQ(d.net.link(d.a_host, d.a_r)->stats().packets, 3u);
    EXPECT_EQ(d.net.link(d.a_r, d.b_r)->stats().packets, 2u);
    EXPECT_EQ(d.net.link(d.b_r, d.b_host)->stats().packets, 2u);
}

// --- cables added after finalize ---------------------------------------------

/// Three sites hung off one backbone router, then a fourth:
///
///   h1a, h1b -- r1 --- bb --- r2 -- h2a, h2b
///                      |
///                      +--- r3 -- h3a [, h3b]
///                      |
///                      +--- [r4 -- h4]
///
/// The h3b leaf and site 4 (r4 and h4) are the late cables.
struct LateCableNet {
    enum : std::uint32_t { kH1a = 1, kH1b, kR1, kH2a, kH2b, kR2, kH3a, kR3, kBb, kH3b, kR4, kH4 };
    static constexpr std::uint32_t kSite[] = {0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 3, 5, 5};  // by id
    static constexpr std::pair<std::uint32_t, std::uint32_t> kCables[] = {
        {kH1a, kR1}, {kH1b, kR1}, {kH2a, kR2}, {kH2b, kR2}, {kH3a, kR3},
        {kR1, kBb},  {kR2, kBb},  {kR3, kBb},
        {kH3b, kR3},  // late: a new leaf, then a new site
        {kR4, kBb},  {kH4, kR4},
    };
    static constexpr std::size_t kEarlyCables = 8;

    Simulator sim;
    Network net{sim, 5};

    /// Add the nodes up to id `last`, then cables [begin, end).
    void grow(std::uint32_t last, std::size_t begin, std::size_t end) {
        for (auto id = static_cast<std::uint32_t>(net.node_count()) + 1; id <= last; ++id)
            net.add_node(SiteId{kSite[id]});
        for (std::size_t i = begin; i < end; ++i)
            net.add_link(NodeId{kCables[i].first}, NodeId{kCables[i].second}, LinkSpec{});
    }
};

TEST(RoutingAB, RefinalizeAfterNewCablesMatchesOneShotBuild) {
    constexpr std::size_t kAll = std::size(LateCableNet::kCables);
    constexpr std::size_t kLeaf = LateCableNet::kEarlyCables;
    const NodeId h1a{LateCableNet::kH1a}, h3a{LateCableNet::kH3a}, h3b{LateCableNet::kH3b};
    const NodeId r1{LateCableNet::kR1}, r3{LateCableNet::kR3}, bb{LateCableNet::kBb};
    const NodeId r4{LateCableNet::kR4}, h4{LateCableNet::kH4};
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
    one_shot.grow(LateCableNet::kH4, 0, kAll);
    one_shot.net.finalize();

    // Finalize the early topology and carry traffic over it, then add a
    // leaf to an existing site, then a new site, finalizing after each step.
    LateCableNet grown;
    grown.grow(LateCableNet::kBb, 0, kLeaf);
    grown.net.finalize();
    const GroupId group{1};
    for (std::uint32_t id = 1; id <= LateCableNet::kBb; ++id) grown.net.join(group, NodeId{id});
    grown.net.multicast(
        h1a, Packet{Header{group, h1a, h1a}, DataBody{SeqNum{1}, EpochId{0}, {7}}},
        McastScope::kGlobal);
    grown.sim.run_for(secs(1.0));
    EXPECT_EQ(traced_unicast(grown.net, grown.sim, h1a, h3a, query_from(h1a)),
              (std::vector<NodeId>{h1a, r1, bb, r3, h3a}));

    grown.grow(LateCableNet::kH3b, kLeaf, kLeaf + 1);
    grown.net.finalize();
    EXPECT_EQ(traced_unicast(grown.net, grown.sim, h1a, h3b, query_from(h1a)),
              (std::vector<NodeId>{h1a, r1, bb, r3, h3b}));
    expect_oracle_routes(grown);

    grown.grow(LateCableNet::kH4, kLeaf + 1, kAll);
    grown.net.finalize();
    EXPECT_EQ(traced_unicast(grown.net, grown.sim, h1a, h4, query_from(h1a)),
              (std::vector<NodeId>{h1a, r1, bb, r4, h4}));
    EXPECT_EQ(grown.net.routing_table_hash(), one_shot.net.routing_table_hash());
    expect_oracle_routes(grown);
}

TEST(Routing, HierarchicalIsDefaultAndReportsTables) {
    // The routing snapshot is four 32-bit words per node.
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 3;
    spec.receivers_per_site = 2;
    make_dis_topology(net, spec);
    EXPECT_EQ(net.routing_table_bytes(), 0u);
    net.finalize();
    EXPECT_EQ(net.routing_table_bytes(), 16u * net.node_count());
}

}  // namespace
