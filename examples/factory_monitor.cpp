// Factory automation with intermittently-connected mobile monitors
// (Section 4.4).
//
// Sensors on the factory floor multicast equipment status over LBRM; the
// logging server doubles as the factory's mandated transaction log.  A
// worker's mobile terminal walks in and out of radio coverage: "when a
// mobile host reconnects, it can recover any lost data from a logging
// server without interfering with the other receivers or affecting the
// on-going data flow from the source."
//
//   $ ./factory_monitor
#include <cstdio>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

int main() {
    using namespace lbrm;
    using namespace lbrm::sim;

    std::printf("factory monitor: 1 sensor group, 1 site, 3 fixed consoles +\n");
    std::printf("1 mobile terminal with intermittent connectivity\n\n");

    ScenarioConfig config;
    config.topology.sites = 1;
    config.topology.receivers_per_site = 4;  // receiver[3] plays the mobile
    config.stat_ack.enabled = false;
    config.receiver_defaults.max_idle = secs(0.25);
    DisScenario scenario(config);
    auto& network = scenario.network();
    const auto& topo = scenario.topology();
    const NodeId mobile = topo.sites[0].receivers[3];

    scenario.start();
    scenario.run_for(millis(100));

    auto report = [&](const std::string& status) {
        std::printf("t=%6.3f s  sensor: %s\n", to_seconds(scenario.simulator().now()),
                    status.c_str());
        scenario.send_update(std::vector<std::uint8_t>(status.begin(), status.end()));
    };

    report("press-01 temperature NOMINAL");
    scenario.run_for(secs(1.0));

    // The worker walks into the warehouse: the mobile link dies.
    std::printf("t=%6.3f s  mobile terminal loses radio coverage\n",
                to_seconds(scenario.simulator().now()));
    network.set_loss(topo.sites[0].router, mobile, std::make_unique<BernoulliLoss>(1.0));

    report("press-01 temperature HIGH");
    scenario.run_for(secs(1.0));
    report("press-01 EMERGENCY STOP");
    scenario.run_for(secs(2.0));

    // While disconnected, the mobile's freshness watchdog fired (its lease
    // on the data expired, Section 4.2's failure-detection semantics).
    std::size_t stale_notices = 0;
    for (const auto& n : scenario.notices())
        if (n.node == mobile && n.kind == NoticeKind::kFreshnessLost) ++stale_notices;
    std::printf("t=%6.3f s  mobile knows it is stale (freshness lost: %zu)\n",
                to_seconds(scenario.simulator().now()), stale_notices);

    // Coverage returns; the next heartbeat resyncs it and the logging
    // server replays everything it missed.
    std::printf("t=%6.3f s  mobile terminal reconnects\n",
                to_seconds(scenario.simulator().now()));
    network.set_loss(topo.sites[0].router, mobile, std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(8.0));

    std::printf("\nmobile terminal's received history:\n");
    std::size_t mobile_live = 0, mobile_recovered = 0;
    for (const auto& d : scenario.deliveries()) {
        if (d.node != mobile) continue;
        std::printf("  seq %u at t=%6.3f s %s\n", d.seq.value(), to_seconds(d.at),
                    d.recovered ? "[recovered from factory log]" : "[live]");
        (d.recovered ? mobile_recovered : mobile_live)++;
    }

    // The factory log retained every transaction (record-keeping duty).
    std::printf("\nfactory transaction log holds %zu records (%zu bytes)\n",
                scenario.primary_logger().store().size(),
                scenario.primary_logger().store().payload_bytes());

    const bool ok = mobile_live + mobile_recovered == 3 && mobile_recovered >= 2 &&
                    stale_notices >= 1;
    std::printf("\n%s\n", ok ? "mobile monitor fully caught up after reconnect"
                             : "mobile monitor missed data (unexpected)");
    return ok ? 0 : 1;
}
