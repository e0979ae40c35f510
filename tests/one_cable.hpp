// A network of one cable, node 1 - node 2, for tests that drive its two
// directed links directly.
#pragma once

#include <cstdint>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace lbrm::test {

struct OneCable {
    sim::Simulator sim;
    sim::Network net;

    OneCable(const sim::LinkSpec& spec, std::uint64_t seed) : net(sim, seed) {
        const NodeId a = net.add_node(SiteId{1});
        const NodeId b = net.add_node(SiteId{1});
        net.add_link(a, b, spec);
    }
    [[nodiscard]] sim::Link& forward() { return *net.link(NodeId{1}, NodeId{2}); }
    [[nodiscard]] sim::Link& reverse() { return *net.link(NodeId{2}, NodeId{1}); }
};

}  // namespace lbrm::test
