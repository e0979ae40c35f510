// Test-only route oracle: a plain Dijkstra over a Network's public topology
// (node_count(), link(a, b), spec().propagation), weighing each cable by
// its propagation plus a 1 microsecond hop penalty.  A node in `down` may
// end a path but never relays.  Tests compare the hops packets actually
// take (through the tap) with oracle paths; on the trees the network
// routes, every path is the only one, so the weights never decide it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace lbrm::test {

/// The network's cables as (neighbour id, weight) lists by node id, each
/// in ascending neighbour order, read once through link(a, b).
using OracleAdjacency = std::vector<std::vector<std::pair<std::uint32_t, std::int64_t>>>;

inline OracleAdjacency oracle_adjacency(const sim::Network& net) {
    const std::uint32_t n = static_cast<std::uint32_t>(net.node_count());
    OracleAdjacency adj(n + 1);
    for (std::uint32_t u = 1; u <= n; ++u)
        for (std::uint32_t v = 1; v <= n; ++v)
            if (const sim::Link* l = net.link(NodeId{u}, NodeId{v}))
                adj[u].emplace_back(v, l->spec().propagation.count() + 1000);
    return adj;
}

/// Shortest paths from `from` to every node, indexed by node id, as node
/// ids with both ends included; empty where unreachable (and at index 0).
inline std::vector<std::vector<NodeId>> oracle_paths(const OracleAdjacency& adj, NodeId from,
                                                     const std::set<NodeId>& down = {}) {
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    const std::size_t n = adj.size() - 1;
    std::vector<std::int64_t> dist(n + 1, kInf);
    std::vector<NodeId> prev(n + 1, kNoNode);
    using QE = std::pair<std::int64_t, std::uint32_t>;  // (distance, node id)
    std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
    dist[from.value()] = 0;
    pq.emplace(0, from.value());
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d != dist[u]) continue;
        if (NodeId{u} != from && down.contains(NodeId{u})) continue;  // no transit
        for (const auto& [v, w] : adj[u]) {
            if (d + w < dist[v]) {
                dist[v] = d + w;
                prev[v] = NodeId{u};
                pq.emplace(dist[v], v);
            }
        }
    }
    std::vector<std::vector<NodeId>> paths(n + 1);
    for (std::uint32_t to = 1; to <= n; ++to) {
        if (dist[to] == kInf) continue;
        std::vector<NodeId>& path = paths[to];
        path.push_back(NodeId{to});
        while (path.back() != from) path.push_back(prev[path.back().value()]);
        std::reverse(path.begin(), path.end());
    }
    return paths;
}

/// Shortest path from `from` to `to` as node ids, both ends included;
/// empty when `to` is unreachable.
inline std::vector<NodeId> oracle_path(const sim::Network& net, NodeId from, NodeId to,
                                       const std::set<NodeId>& down = {}) {
    return oracle_paths(oracle_adjacency(net), from, down)[to.value()];
}

/// The node sequence one unicast actually travels, chained from the tapped
/// hops: sends, then drains `sim` for a second.  It starts at `from` and
/// ends at `to`, or at the node the packet died in.  A hop that does not
/// continue the chain appends kNoNode, so it can never match an oracle path.
inline std::vector<NodeId> traced_unicast(sim::Network& net, sim::Simulator& sim,
                                          NodeId from, NodeId to, const Packet& packet) {
    std::vector<NodeId> path{from};
    net.set_tap([&path](TimePoint, const sim::Link& l, const Packet&, bool) {
        if (l.from() != path.back()) path.push_back(kNoNode);
        path.push_back(l.to());
    });
    net.unicast(from, to, packet);
    sim.run_for(secs(1.0));
    net.set_tap(nullptr);
    return path;
}

}  // namespace lbrm::test
