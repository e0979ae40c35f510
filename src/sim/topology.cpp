#include "sim/topology.hpp"

#include "obs/trace.hpp"

namespace lbrm::sim {

std::vector<NodeId> DisTopology::all_receivers() const {
    std::vector<NodeId> out;
    for (const Site& site : sites)
        out.insert(out.end(), site.receivers.begin(), site.receivers.end());
    return out;
}

const DisTopology::Region* DisTopology::region_of_site(std::size_t site_index) const {
    for (const Region& region : regions)
        for (std::size_t s : region.site_indices)
            if (s == site_index) return &region;
    return nullptr;
}

DisTopologySize dis_topology_size(const DisTopologySpec& spec) {
    const std::size_t region_count =
        spec.sites_per_region > 0
            ? (spec.sites + spec.sites_per_region - 1) / spec.sites_per_region
            : 0;
    const std::size_t secondaries = spec.secondary_logger_per_site ? 1 : 0;
    DisTopologySize size;
    // backbone + source router + source + primary, replicas, region
    // router + logger pairs, then per site: router + secondary? + receivers.
    size.nodes = 4 + spec.replicas + 2 * region_count +
                 static_cast<std::size_t>(spec.sites) *
                     (1 + secondaries + spec.receivers_per_site);
    // Every node except the backbone hub adds exactly one cable.
    size.directed_links = 2 * (size.nodes - 1);
    return size;
}

DisTopology make_dis_topology(Network& network, const DisTopologySpec& spec) {
    LBRM_TRACE_SPAN("topology");
    DisTopology topo;

    // Pre-size node and link storage so 100k-node benches do not pay
    // vector regrowth during construction.
    const DisTopologySize size = dis_topology_size(spec);
    network.reserve(size.nodes, size.directed_links);

    const LinkSpec tail{spec.tail_delay, kTailBandwidthBps, spec.tail_queue_limit};

    // Site id 0 is the source site; receiver sites are 1..N.
    const SiteId source_site{0};
    topo.backbone = network.add_node(SiteId{0xFFFF});

    topo.source_router = network.add_node(source_site);
    network.add_link(topo.source_router, topo.backbone, kBackboneLink);

    topo.source = network.add_node(source_site);
    network.add_link(topo.source, topo.source_router, kLanLink);

    topo.primary = network.add_node(source_site);
    network.add_link(topo.primary, topo.source_router, kLanLink);

    for (std::uint32_t r = 0; r < spec.replicas; ++r) {
        const NodeId replica = network.add_node(source_site);
        network.add_link(replica, topo.source_router, kLanLink);
        topo.replicas.push_back(replica);
    }

    // Optional regional tier (Section 7 multi-level logging hierarchy):
    // region routers sit between the sites' tail circuits and the backbone,
    // each with a regional logging server attached.
    if (spec.sites_per_region > 0) {
        const std::uint32_t region_count =
            (spec.sites + spec.sites_per_region - 1) / spec.sites_per_region;
        for (std::uint32_t r = 0; r < region_count; ++r) {
            DisTopology::Region region;
            const SiteId region_site{0x8000u + r};
            region.router = network.add_node(region_site);
            network.add_link(region.router, topo.backbone, kBackboneLink);
            region.logger = network.add_node(region_site);
            network.add_link(region.logger, region.router, kRegionLink);
            topo.regions.push_back(std::move(region));
        }
    }

    for (std::uint32_t s = 0; s < spec.sites; ++s) {
        DisTopology::Site site;
        site.id = SiteId{s + 1};
        site.router = network.add_node(site.id);
        // The tail circuit is the bottleneck between the site and the WAN
        // (or its region's router when the regional tier exists).
        if (spec.sites_per_region > 0) {
            const std::size_t region_index = s / spec.sites_per_region;
            network.add_link(site.router, topo.regions[region_index].router, tail);
            topo.regions[region_index].site_indices.push_back(s);
        } else {
            network.add_link(site.router, topo.backbone, tail);
        }

        site.secondary = kNoNode;
        if (spec.secondary_logger_per_site) {
            site.secondary = network.add_node(site.id);
            network.add_link(site.secondary, site.router, kLanLink);
        }

        site.receivers.reserve(spec.receivers_per_site);
        for (std::uint32_t h = 0; h < spec.receivers_per_site; ++h) {
            const NodeId receiver = network.add_node(site.id);
            network.add_link(receiver, site.router, kLanLink);
            site.receivers.push_back(receiver);
        }
        topo.sites.push_back(std::move(site));
    }

    return topo;
}

}  // namespace lbrm::sim
