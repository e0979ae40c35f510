// Builders for the paper's network topologies.
//
// Figure 1 of the paper: site LANs joined to a wide-area backbone by
// bottleneck "tail circuits" (T1).  The defaults reproduce the paper's
// Section 2.2.2 latency figures -- a secondary logger "a few miles away" at
// 3-4 ms RTT and a primary logger "1,500 miles away" at ~80 ms RTT -- and
// its canonical DIS scenario: 1,000 receivers as 50 sites x 20 receivers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "sim/network.hpp"

namespace lbrm::sim {

// Figure 1's links.  One way, LAN hop 0.5 ms, tail 1 ms and backbone 38 ms
// give the intra-site RTT of ~3-4 ms and the cross-WAN RTT of ~80 ms the
// authors measured with ping (Section 2.2.2).
/// Site LAN: 10 Mb/s Ethernet (Section 3).
inline constexpr LinkSpec kLanLink{micros(500), 10e6, Duration::zero()};
/// T3 backbone; also the cable from a region router to the hub.
inline constexpr LinkSpec kBackboneLink{millis(38), 45e6, Duration::zero()};
/// T1 tail circuit (Figure 1): the bottleneck between a site and the WAN.
inline constexpr double kTailBandwidthBps = 1.544e6;
/// Metro-distance link from a region router to its regional logger.
inline constexpr LinkSpec kRegionLink{millis(5), 10e6, Duration::zero()};

struct DisTopologySpec {
    std::uint32_t sites = 50;            ///< receiver sites (Section 2.2.2)
    std::uint32_t receivers_per_site = 20;
    bool secondary_logger_per_site = true;
    std::uint32_t replicas = 1;          ///< primary-log replicas (Section 2.2.3)

    Duration tail_delay = millis(1);  ///< one way, over each tail circuit
    /// Drop-tail bound on queueing delay at the tail circuits.
    Duration tail_queue_limit = millis(200);

    /// Section 7 extension ("a multi-level hierarchy of logging servers"):
    /// when nonzero, sites are grouped into regions of this many sites;
    /// each region gets a router between its sites' tail circuits and the
    /// backbone, plus a regional logging server.  0 = flat topology.
    std::uint32_t sites_per_region = 0;
};

/// The constructed topology, with every interesting node named.
struct DisTopology {
    NodeId backbone;       ///< WAN hub
    NodeId source;         ///< data source host (site 0)
    NodeId source_router;  ///< site-0 router
    NodeId primary;        ///< primary logging server host (site 0)
    std::vector<NodeId> replicas;  ///< replica logger hosts (site 0)

    struct Site {
        SiteId id;
        NodeId router;
        NodeId secondary;  ///< kNoNode when the spec disables secondaries
        std::vector<NodeId> receivers;
    };
    std::vector<Site> sites;

    /// Regional tier (empty in the flat topology).
    struct Region {
        NodeId router;
        NodeId logger;
        std::vector<std::size_t> site_indices;  ///< indices into `sites`
    };
    std::vector<Region> regions;

    /// Region containing site `site_index`; nullptr in the flat topology.
    [[nodiscard]] const Region* region_of_site(std::size_t site_index) const;

    /// All receiver node ids across all sites.
    [[nodiscard]] std::vector<NodeId> all_receivers() const;
};

/// Exact sizes of the topology a spec will build, computed without building
/// it -- make_dis_topology pre-sizes the network's node and link storage
/// from this, so million-node construction never pays vector regrowth.
struct DisTopologySize {
    std::size_t nodes = 0;
    std::size_t directed_links = 0;  ///< two per cable
};
[[nodiscard]] DisTopologySize dis_topology_size(const DisTopologySpec& spec);

/// Build the Figure-1 topology into `network`.  Call network.finalize()
/// afterwards (the builder leaves that to the caller so extra links can be
/// added first).
DisTopology make_dis_topology(Network& network, const DisTopologySpec& spec);

}  // namespace lbrm::sim
