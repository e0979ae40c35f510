// Routing-scale bench (perf trajectory, not a paper artifact).
//
// Measures the million-node scenario engine (DESIGN.md "Scale
// engineering"): the tree router, whose finalize() is one DFS that keeps
// four 32-bit words per node (DESIGN.md "Tree routing"), and a full
// protocol run -- sender, loggers, a receiver core per host, real
// multicast traffic -- at a million nodes under the constant-memory
// CountingObserver.
//
// Scenarios:
//
//   routing_100k   -- 1,000 sites x 97 receivers (~100k nodes).  Builds the
//                     topology and the routing snapshot and reports the
//                     make_dis_topology() and finalize() wall times,
//                     routing bytes after finalize(), bytes per node and
//                     peak RSS.  Flat O(n^2) matrices at this size would
//                     need n^2 x 12 bytes (~120 GB), so the bench reports
//                     the ratio to that analytic footprint.  Exits 1 when
//                     routing holds more than 16 bytes per node, so no
//                     per-node table can grow back unnoticed.
//   full_protocol  -- 2,000 sites x 499 receivers (>= 1M nodes) wired as a
//                     complete DisScenario (CountingObserver), driven with
//                     real sends + protocol timers; reports build/traffic
//                     seconds, deliveries, peak RSS and RSS bytes per node.
//
// The headline build runs under a TraceRecorder and exports Chrome
// trace_event JSON (--trace PATH, open in chrome://tracing or Perfetto):
// the "finalize" span and the tree builds of the sanity multicasts.
//
// Usage:
//   bench_routing_scale [--json PATH] [--timestamp ISO8601] [--trace PATH]
//                       [--repeat N] [--sites N] [--receivers N]
//                       [--full-sites N] [--full-receivers N] [--skip-full]
//                       [--full-only] [--full-name NAME]
//                       [--full-dormant 0|1] [--active-per-site N]
//
// --repeat N reruns the topology build and finalize N times and reports
// the minimum of each (the least noisy estimator for wall time on a shared
// machine).
// --full-only skips the routing phase and runs just the full-protocol
// scenario -- with --full-sites/--full-receivers/--active-per-site this is
// how the 10M-node memory-diet run is recorded (see BENCH_simcore.json).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

DisTopologySpec scale_spec(std::uint32_t sites, std::uint32_t receivers_per_site) {
    DisTopologySpec spec;
    spec.sites = sites;
    spec.receivers_per_site = receivers_per_site;
    return spec;
}

double now_seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct BuildStats {
    double topology_seconds = 0.0;  ///< make_dis_topology() wall time
    double finalize_seconds = 0.0;
    std::size_t nodes = 0;
    std::size_t table_bytes = 0;
    std::uint64_t delivered = 0;
};

/// Build the topology, finalize, and fire one global + one site-scoped
/// multicast so the path and tree machinery is exercised, not just built.
BuildStats run_build(std::uint32_t sites, std::uint32_t receivers) {
    Simulator simulator;
    Network net{simulator, 42};
    BuildStats out;
    const auto build_start = std::chrono::steady_clock::now();
    const DisTopology topo = make_dis_topology(net, scale_spec(sites, receivers));
    out.topology_seconds = now_seconds_since(build_start);

    const auto start = std::chrono::steady_clock::now();
    net.finalize();
    out.finalize_seconds = now_seconds_since(start);
    out.nodes = net.node_count();
    out.table_bytes = net.routing_table_bytes();

    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);
    std::uint32_t seq = 0;
    for (McastScope scope : {McastScope::kGlobal, McastScope::kSite})
        net.multicast(topo.source,
                      Packet{Header{group, topo.source, topo.source},
                             DataBody{SeqNum{++seq}, EpochId{0},
                                      std::vector<std::uint8_t>(64, 0xEE)}},
                      scope);
    simulator.run_for(secs(5.0));
    for (const auto& site : topo.sites)
        for (NodeId r : site.receivers)
            out.delivered += net.link(site.router, r)->stats().packets_of(PacketType::kData);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_simcore.json";
    std::string timestamp = "unspecified";
    std::string trace_path = "TRACE_finalize.json";
    std::uint32_t sites = 1000;
    std::uint32_t receivers = 97;  // 1000 x (router + secondary + 97) + 5 = ~99k
    std::uint32_t full_sites = 2000;
    std::uint32_t full_receivers = 499;  // 2000 x (router + secondary + 499) + 5 > 1M
    bool skip_full = false;
    bool full_only = false;
    bool full_dormant = true;
    std::string full_name = "full_protocol";
    std::uint32_t active_per_site = 0;
    unsigned repeat = 1;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--json") == 0) json_path = next("--json");
        else if (std::strcmp(argv[i], "--timestamp") == 0) timestamp = next("--timestamp");
        else if (std::strcmp(argv[i], "--trace") == 0) trace_path = next("--trace");
        else if (std::strcmp(argv[i], "--sites") == 0)
            sites = static_cast<std::uint32_t>(std::atoi(next("--sites")));
        else if (std::strcmp(argv[i], "--receivers") == 0)
            receivers = static_cast<std::uint32_t>(std::atoi(next("--receivers")));
        else if (std::strcmp(argv[i], "--full-sites") == 0)
            full_sites = static_cast<std::uint32_t>(std::atoi(next("--full-sites")));
        else if (std::strcmp(argv[i], "--full-receivers") == 0)
            full_receivers =
                static_cast<std::uint32_t>(std::atoi(next("--full-receivers")));
        else if (std::strcmp(argv[i], "--skip-full") == 0)
            skip_full = true;
        else if (std::strcmp(argv[i], "--full-only") == 0)
            full_only = true;
        else if (std::strcmp(argv[i], "--full-name") == 0)
            full_name = next("--full-name");
        else if (std::strcmp(argv[i], "--full-dormant") == 0)
            full_dormant = std::atoi(next("--full-dormant")) != 0;
        else if (std::strcmp(argv[i], "--active-per-site") == 0)
            active_per_site =
                static_cast<std::uint32_t>(std::atoi(next("--active-per-site")));
        else if (std::strcmp(argv[i], "--repeat") == 0) {
            const int n = std::atoi(next("--repeat"));
            repeat = n > 1 ? static_cast<unsigned>(n) : 1;
        }
    }

    std::vector<JsonMetric> metrics;

    if (!full_only) {
        title("Tree routing at scale: " + fmt_int(sites) + " sites x " +
              fmt_int(receivers) + " receivers");
        obs::TraceRecorder trace_rec;
        trace_rec.install();
        BuildStats big = run_build(sites, receivers);
        trace_rec.uninstall();
        // Only the first run is traced; extra --repeat runs refine the
        // min-of-N topology and finalize times (other fields are identical
        // across runs -- the builds are deterministic).
        for (unsigned r = 1; r < repeat; ++r) {
            const BuildStats again = run_build(sites, receivers);
            big.topology_seconds = std::min(big.topology_seconds, again.topology_seconds);
            big.finalize_seconds = std::min(big.finalize_seconds, again.finalize_seconds);
        }
        // The flat matrices would hold n^2 next-hop entries (4B) + n^2 link
        // pointers (8B); computed analytically because at 100k nodes that is
        // ~120 GB and cannot be allocated.
        const double flat_bytes =
            static_cast<double>(big.nodes) * static_cast<double>(big.nodes) * 12.0;
        const double ratio = flat_bytes / static_cast<double>(big.table_bytes);
        const double rss_mib = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
        const double bytes_per_node =
            static_cast<double>(big.table_bytes) / static_cast<double>(big.nodes);

        Table table({"nodes", "topology s", "finalize s", "table MiB", "B/node", "flat MiB",
                     "ratio"});
        table.row({fmt_int(big.nodes), fmt(big.topology_seconds, 3),
                   fmt(big.finalize_seconds, 3),
                   fmt(static_cast<double>(big.table_bytes) / (1024.0 * 1024.0), 1),
                   fmt(bytes_per_node, 1), fmt(flat_bytes / (1024.0 * 1024.0), 0),
                   fmt(ratio, 0) + "x"});
        note("");
        note("delivered sanity: " + fmt_int(big.delivered) + " packets; peak RSS " +
             fmt(rss_mib, 1) + " MiB");

        metrics.push_back({"routing_scale", "nodes",
                           static_cast<double>(big.nodes), timestamp});
        metrics.push_back(
            {"routing_scale", "topology_seconds", big.topology_seconds, timestamp});
        metrics.push_back(
            {"routing_scale", "finalize_seconds_hier", big.finalize_seconds, timestamp});
        metrics.push_back({"routing_scale", "routing_table_bytes_hier",
                           static_cast<double>(big.table_bytes), timestamp});
        metrics.push_back(
            {"routing_scale", "routing_table_bytes_per_node", bytes_per_node, timestamp});
        metrics.push_back({"routing_scale", "flat_to_hier_memory_ratio", ratio, timestamp});
        metrics.push_back({"routing_scale", "peak_rss_bytes",
                           static_cast<double>(peak_rss_bytes()), timestamp});

        if (obs::kTelemetryEnabled) {
            const bool wrote = trace_rec.write_chrome_json(trace_path);
            note("build trace: " + fmt_int(trace_rec.spans().size()) + " spans (" +
                 fmt_int(trace_rec.dropped()) + " dropped)" +
                 (wrote ? ", written to " + trace_path : " (trace write FAILED)"));
        } else {
            note("build trace: telemetry compiled out (LBRM_NO_TELEMETRY); skipped");
        }
        // Four 32-bit words per node: parent cable end, DFS enter and exit,
        // liveness segment top.
        if (bytes_per_node > 16.0) {
            note("ERROR: routing holds " + fmt(bytes_per_node, 1) +
                 " B/node, above the tree router's 16");
            return 1;
        }
    }  // --full-only skips the routing phase

    if (!skip_full || full_only) {
        title("Full protocol at scale: " + fmt_int(full_sites) + " sites x " +
              fmt_int(full_receivers) + " receivers (counting observer" +
              (full_dormant ? ", dormant receivers" : "") +
              (active_per_site != 0
                   ? ", " + fmt_int(active_per_site) + " active/site"
                   : "") +
              ")");
        ScenarioConfig cfg;
        cfg.topology = scale_spec(full_sites, full_receivers);
        cfg.dormant_receivers = full_dormant;
        cfg.active_receivers_per_site = active_per_site;
        auto counter = std::make_shared<CountingObserver>();
        cfg.observer = counter;

        const auto t_build = std::chrono::steady_clock::now();
        DisScenario scenario{std::move(cfg)};
        const double build_seconds = now_seconds_since(t_build);

        const auto t_traffic = std::chrono::steady_clock::now();
        scenario.start();
        // 400 ms between updates lets each T1 tail drain its ~260 ms wave
        // (499 x 200 B at 1.544 Mb/s) before the next one: peak memory then
        // reflects one in-flight wave, not three stacked ones.
        for (int i = 0; i < 3; ++i) {
            scenario.send_update(200);
            scenario.run_for(millis(400));
        }
        scenario.run_for(secs(0.5));  // heartbeats, stat-acks, idle checks
        const double traffic_seconds = now_seconds_since(t_traffic);

        const std::size_t nodes = scenario.network().node_count();
        const double rss = static_cast<double>(peak_rss_bytes());
        Table full({"nodes", "build s", "traffic s", "deliveries", "RSS MiB", "RSS B/node"});
        full.row({fmt_int(nodes), fmt(build_seconds, 1), fmt(traffic_seconds, 1),
                  fmt_int(counter->deliveries()), fmt(rss / (1024.0 * 1024.0), 0),
                  fmt(rss / static_cast<double>(nodes), 0)});
        const double delivered_pps =
            traffic_seconds > 0.0
                ? static_cast<double>(counter->deliveries()) / traffic_seconds
                : 0.0;
        note("");
        note("receivers with all 3 updates: " +
             fmt_int(counter->nodes_with_at_least(3)) + " of " +
             fmt_int(static_cast<std::size_t>(full_sites) * full_receivers));
        if (full_dormant)
            note("dormant receivers remaining: " +
                 fmt_int(scenario.dormant_receiver_count()));
        note("delivered pps (wall): " + fmt(delivered_pps, 0));
        if (counter->deliveries() == 0) {
            note("ERROR: full-protocol run delivered nothing");
            return 1;
        }

        metrics.push_back(
            {full_name, "nodes", static_cast<double>(nodes), timestamp});
        metrics.push_back(
            {full_name, "build_seconds", build_seconds, timestamp});
        metrics.push_back(
            {full_name, "traffic_seconds", traffic_seconds, timestamp});
        metrics.push_back({full_name, "deliveries",
                           static_cast<double>(counter->deliveries()), timestamp});
        metrics.push_back(
            {full_name, "delivered_packets_per_sec", delivered_pps, timestamp});
        metrics.push_back({full_name, "peak_rss_bytes", rss, timestamp});
        metrics.push_back({full_name, "rss_bytes_per_node",
                           rss / static_cast<double>(nodes), timestamp});
    }

    write_bench_json(json_path, metrics);
    note("");
    note("JSON written to " + json_path);
    for (const auto& m : metrics) note(json_metric_line(m));
    return 0;
}
