// Section 2.2.2 (a): distributed logging cuts NACK traffic across the tail
// circuit and the WAN from one-per-receiver to one-per-site.
//
// Experiment: the paper's canonical configuration (50 sites x 20 receivers);
// one data packet is lost on a single site's inbound tail circuit.  We count
// NACK packets crossing that tail circuit and NACKs arriving at the primary
// logging server, with and without secondary loggers.  Then the whole-group
// variant: the packet is lost on the source's uplink, so every site misses
// it (paper: primary NACK load drops from 1000 to 50).
#include "bench/bench_util.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

struct Result {
    std::uint64_t nacks_on_tail = 0;
    std::uint64_t nacks_at_primary = 0;
    std::size_t recovered = 0;
};

Result run(bool distributed, bool whole_group_loss) {
    ScenarioConfig config;
    config.topology.sites = 50;
    config.topology.receivers_per_site = 20;
    config.stat_ack.enabled = false;  // isolate the NACK path
    config.site_logging = distributed ? SiteLogging::kDedicated : SiteLogging::kCentralized;
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    scenario.start();

    scenario.send_update(std::size_t{128});
    scenario.run_for(secs(2.0));
    network.reset_link_stats();
    const std::uint64_t primary_nacks_before = scenario.primary_logger().nacks_received();

    // Lose the next packet.
    const NodeId from = whole_group_loss ? topo.source_router : topo.backbone;
    const NodeId to = whole_group_loss ? topo.backbone : topo.sites[0].router;
    network.set_loss(from, to, std::make_unique<BernoulliLoss>(1.0));
    scenario.send_update(std::size_t{128});
    scenario.run_for(millis(50));
    network.set_loss(from, to, std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(8.0));

    Result result;
    // NACKs that crossed site 0's tail circuit toward the WAN.
    result.nacks_on_tail = network.link(topo.sites[0].router, topo.backbone)
                               ->stats().packets_of(PacketType::kNack);
    result.nacks_at_primary =
        scenario.primary_logger().nacks_received() - primary_nacks_before;
    result.recovered = scenario.delivery_times(scenario.sender().last_seq()).size();
    return result;
}

}  // namespace

int main() {
    title("Section 2.2.2: NACK reduction from distributed logging");
    note("Topology: 50 sites x 20 receivers (the paper's 1000-subscriber group)");
    note("");

    note("--- single-site loss (tail circuit of site 0 drops one packet) ---");
    {
        Table table({"logging", "NACKs on tail", "NACKs at prim", "recovered"});
        const Result central = run(/*distributed=*/false, /*whole_group=*/false);
        const Result dist = run(/*distributed=*/true, /*whole_group=*/false);
        table.row({"centralized", fmt_int(central.nacks_on_tail),
                   fmt_int(central.nacks_at_primary), fmt_int(central.recovered)});
        table.row({"distributed", fmt_int(dist.nacks_on_tail),
                   fmt_int(dist.nacks_at_primary), fmt_int(dist.recovered)});
        note("");
        note("Paper: 20 NACKs across the tail circuit -> 1 (one per site).");
        note("");
    }

    note("--- whole-group loss (source uplink drops one packet) ---");
    {
        Table table({"logging", "NACKs at prim", "recovered"});
        const Result central = run(false, true);
        const Result dist = run(true, true);
        table.row({"centralized", fmt_int(central.nacks_at_primary),
                   fmt_int(central.recovered)});
        table.row({"distributed", fmt_int(dist.nacks_at_primary),
                   fmt_int(dist.recovered)});
        note("");
        note("Paper: primary logging server load falls from one NACK per");
        note("receiver (1000) to one per site (50).");
    }
    return 0;
}
