// Distributed Interactive Simulation terrain updates -- the paper's
// motivating application (Section 1).
//
// A battlefield holds many static terrain entities (bridges, buildings).
// Each is an LBRM source with a 0.25 s freshness requirement but changes
// rarely.  Tanks at 5 sites subscribe.  During the exercise a bridge is
// destroyed while one site's tail circuit suffers a congestion burst; we
// verify every tank "sees" the destroyed bridge promptly once connectivity
// allows, and that heartbeat overhead stays tiny compared to a fixed-rate
// scheme.
//
//   $ ./dis_terrain
#include <cstdio>
#include <map>
#include <string>

#include "analysis/heartbeat_math.hpp"
#include "dis/bandwidth_model.hpp"
#include "dis/dead_reckoning.hpp"
#include "dis/terrain_db.hpp"
#include "sim/scenario.hpp"

int main() {
    using namespace lbrm;
    using namespace lbrm::sim;

    std::printf("DIS terrain scenario: 5 sites x 8 tanks, one bridge entity.\n\n");

    ScenarioConfig config;
    config.topology.sites = 5;
    config.topology.receivers_per_site = 8;
    config.stat_ack.enabled = true;
    config.stat_ack.k = 5;
    config.stat_ack.initial_probe_p = 0.4;
    config.stat_ack.probe_target_replies = 3;
    config.receiver_defaults.max_idle = secs(0.25);  // the paper's terrain freshness bound

    DisScenario scenario(config);
    scenario.start();
    scenario.run_for(secs(3.0));  // group-size probing settles

    // Initial terrain state: the bridge stands.
    dis::TerrainAuthority terrain;
    const dis::EntityId bridge{1};
    scenario.send_update(terrain.set_status(bridge, "bridge:INTACT"));
    scenario.run_for(secs(2.0));
    std::printf("t=%5.2f s  bridge placed; %zu tanks see it intact\n",
                to_seconds(scenario.simulator().now()),
                scenario.delivery_times(SeqNum{1}).size());

    // The exercise runs quietly: the entity stays silent except heartbeats.
    scenario.run_for(secs(60.0));
    const auto heartbeats = scenario.sender().heartbeats_sent();
    std::printf("t=%5.2f s  60 s of quiet: only %llu heartbeats on the wire\n",
                to_seconds(scenario.simulator().now()),
                static_cast<unsigned long long>(heartbeats));

    // Congestion burst begins on site 2's tail circuit, and the bridge is
    // destroyed right in the middle of it.
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    const TimePoint burst_start = scenario.simulator().now();
    network.set_loss(topo.backbone, topo.sites[2].router,
                     std::make_unique<BurstSchedule>(std::vector<BurstSchedule::Window>{
                         {burst_start, burst_start + secs(1.0)}}));

    scenario.send_update(terrain.set_status(bridge, "bridge:DESTROYED"));
    const SeqNum boom = scenario.sender().last_seq();
    const TimePoint boom_at = *scenario.sent_at(boom);
    std::printf("t=%5.2f s  BRIDGE DESTROYED (site 2 is inside a 1 s loss burst)\n",
                to_seconds(boom_at));

    scenario.run_for(secs(10.0));

    // Every tank maintains a terrain replica fed by its LBRM receiver;
    // verify every replica converged to the authority's database.
    std::map<NodeId, dis::TerrainReplica> replicas;
    for (const auto& d : scenario.deliveries()) replicas[d.node].apply(d.payload, d.at);
    std::size_t agreeing = 0;
    for (NodeId tank : topo.all_receivers())
        if (replicas[tank].agrees_with(terrain, bridge)) ++agreeing;
    std::printf("t=%5.2f s  terrain replicas agreeing with authority: %zu/40\n",
                to_seconds(scenario.simulator().now()), agreeing);

    // Who saw the destruction, and when?
    const auto times = scenario.delivery_times(boom);
    double site2_worst = 0, others_worst = 0;
    for (const auto& [node, when] : times) {
        const double latency = to_seconds(when - boom_at);
        const bool site2 = network.site_of(node) == topo.sites[2].id;
        (site2 ? site2_worst : others_worst) =
            std::max(site2 ? site2_worst : others_worst, latency);
    }
    std::printf("t=%5.2f s  all %zu/40 tanks see the destroyed bridge\n",
                to_seconds(scenario.simulator().now()), times.size());
    std::printf("           unaffected sites: worst view skew %.0f ms\n",
                others_worst * 1000.0);
    std::printf("           congested site 2: worst skew %.2f s "
                "(bounded by ~2 x burst length, Section 2.1.1)\n",
                site2_worst);

    // Packet economics for the full 100k+100k battlefield (Section 2.1.2),
    // including the dead-reckoned dynamic entities.
    dis::BattlefieldSpec battlefield;  // paper parameters
    const auto fixed = dis::fixed_heartbeat_budget(battlefield);
    const auto variable = dis::variable_heartbeat_budget(battlefield);
    std::printf("\nscaling to the paper's battlefield (100k dynamic + 100k terrain):\n");
    std::printf("  fixed heartbeats   : %.0f pkt/s total (%.0f%% keep-alive)\n",
                fixed.total(), fixed.heartbeat_fraction() * 100);
    std::printf("  variable heartbeats: %.0f pkt/s total (%.1fx less terrain "
                "keep-alive)\n",
                variable.total(),
                fixed.terrain_heartbeat_pps / variable.terrain_heartbeat_pps);

    const bool ok = times.size() == 40 && others_worst < 0.5 && agreeing == 40;
    std::printf("\n%s\n", ok ? "scenario PASSED" : "scenario FAILED");
    return ok ? 0 : 1;
}
