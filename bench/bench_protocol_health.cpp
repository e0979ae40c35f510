// Protocol-health telemetry bench (observability, not a paper artifact).
//
// Drives the ISSUE-1 reference topology (20 sites x 50 receivers) with
// random loss on the site feeds, samples the metrics registry every 100 ms
// of sim time through DisScenario::start_sampling, and exports the
// resulting curves -- delivered pps, heartbeat bandwidth, NACK/repair rate,
// drop breakdown -- as BENCH_protocol_health.json (the sampler's own JSON
// schema; the protocol-health counterpart to the paper's Figures 4/5/8).
// Headline totals also land in BENCH_simcore.json for the perf trajectory.
//
// --hash-only mode prints one line -- an FNV-1a hash over the complete
// link-level packet trace (time, link endpoints, outcome, encoded bytes)
// -- and nothing else.  CI runs it against both a normal build and a
// -DLBRM_NO_TELEMETRY=ON build and asserts the hashes match: telemetry,
// including live sampling, must never feed back into protocol behavior.
//
// Usage:
//   bench_protocol_health [--json PATH] [--health-json PATH]
//                         [--timestamp ISO8601] [--updates N] [--loss P]
//                         [--interval-ms N] [--hash-only]
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

ScenarioConfig health_config() {
    ScenarioConfig config;
    config.topology.sites = 20;
    config.topology.receivers_per_site = 50;
    config.sim.tree_cache_capacity = 64;
    return config;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_simcore.json";
    std::string health_path = "BENCH_protocol_health.json";
    std::string timestamp = "unspecified";
    std::uint64_t updates = 200;
    double loss = 0.02;
    std::uint64_t interval_ms = 100;
    bool hash_only = false;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--json") == 0) json_path = next("--json");
        else if (std::strcmp(argv[i], "--health-json") == 0)
            health_path = next("--health-json");
        else if (std::strcmp(argv[i], "--timestamp") == 0) timestamp = next("--timestamp");
        else if (std::strcmp(argv[i], "--updates") == 0)
            updates = static_cast<std::uint64_t>(std::atoll(next("--updates")));
        else if (std::strcmp(argv[i], "--loss") == 0) loss = std::atof(next("--loss"));
        else if (std::strcmp(argv[i], "--interval-ms") == 0)
            interval_ms = static_cast<std::uint64_t>(std::atoll(next("--interval-ms")));
        else if (std::strcmp(argv[i], "--hash-only") == 0)
            hash_only = true;
    }

    DisScenario scenario{health_config()};
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();

    // Loss on every backbone -> site-router feed: each site independently
    // misses slices of the stream, exercising NACKs, secondary-logger
    // repairs and (at this rate) the occasional upstream fetch.
    for (const auto& site : topo.sites)
        net.set_loss(topo.backbone, site.router, std::make_unique<BernoulliLoss>(loss));

    Fnv1a trace_hash;
    net.set_tap([&](TimePoint at, const Link& link, const Packet& packet,
                    bool delivered) {
        trace_hash.feed_value(at.time_since_epoch().count());
        trace_hash.feed_value(link.from().value());
        trace_hash.feed_value(link.to().value());
        trace_hash.feed_value(static_cast<std::uint8_t>(delivered));
        trace_hash.h = fnv1a(trace_hash.h, packet);
    });

    const auto wall0 = std::chrono::steady_clock::now();
    scenario.start();
    scenario.start_sampling(millis(static_cast<std::int64_t>(interval_ms)));
    for (std::uint64_t i = 0; i < updates; ++i) {
        scenario.send_update(200);
        scenario.run_for(millis(20));
    }
    scenario.run_for(secs(2.0));  // recovery tail: NACKs, repairs, heartbeats
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

    if (hash_only) {
        // The one line CI diffs across telemetry-on / compiled-out builds.
        std::printf("%016llx\n", static_cast<unsigned long long>(trace_hash.h));
        return 0;
    }

    obs::Metrics& m = scenario.metrics();
    const auto count = [&](const char* name) { return m.value(name); };
    const Network::DropBreakdown drops = net.drop_breakdown();

    title("Protocol health: 20 sites x 50 receivers, " + fmt_int(updates) +
          " updates at " + fmt(loss * 100.0, 1) + "% site-feed loss");
    Table table({"metric", "value"});
    table.row({"delivered", fmt_int(count("proto.receiver.delivered"))});
    table.row({"recovered", fmt_int(count("proto.receiver.recovered"))});
    table.row({"nacks_sent", fmt_int(count("proto.receiver.nacks_sent"))});
    table.row({"heartbeats", fmt_int(count("proto.sender.heartbeats_sent"))});
    table.row({"served_mcast", fmt_int(count("proto.logger.served_multicast"))});
    table.row({"served_ucast", fmt_int(count("proto.logger.served_unicast"))});
    table.row({"upstream_fetch", fmt_int(count("proto.logger.upstream_fetches"))});
    table.row({"drops_loss", fmt_int(drops.loss)});
    table.row({"drops_queue", fmt_int(drops.queue)});
    note("");
    note("trace hash: " + [&] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(trace_hash.h));
        return std::string(buf);
    }());
    note("sampler rows: " + fmt_int(scenario.sampler().rows()) + " at " +
         fmt_int(interval_ms) + " ms sim cadence; wall " + fmt(wall_seconds, 2) + " s");

    if (obs::kTelemetryEnabled && count("proto.receiver.delivered") == 0) {
        note("ERROR: telemetry enabled but no deliveries counted");
        return 1;
    }
    if (scenario.sampler().rows() == 0) {
        note("ERROR: sampler recorded no rows");
        return 1;
    }

    if (!scenario.sampler().write_json(health_path)) {
        note("ERROR: could not write " + health_path);
        return 1;
    }
    note("health series written to " + health_path);

    std::vector<JsonMetric> metrics;
    metrics.push_back({"protocol_health", "delivered",
                       static_cast<double>(count("proto.receiver.delivered")),
                       timestamp});
    metrics.push_back({"protocol_health", "nacks_sent",
                       static_cast<double>(count("proto.receiver.nacks_sent")),
                       timestamp});
    metrics.push_back({"protocol_health", "recovered",
                       static_cast<double>(count("proto.receiver.recovered")),
                       timestamp});
    metrics.push_back({"protocol_health", "drops_total",
                       static_cast<double>(drops.total()), timestamp});
    metrics.push_back({"protocol_health", "wall_seconds", wall_seconds, timestamp});
    write_bench_json(json_path, metrics);
    note("JSON written to " + json_path);
    for (const auto& mt : metrics) note(json_metric_line(mt));
    return 0;
}
