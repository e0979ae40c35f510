// Sharded-engine and scale bench (DESIGN.md "Sharded execution"): the
// trace-hash gate CI bench-smoke runs on every push, and the repo's one
// scale driver.
//
// Modes:
//
//   gate (default) -- 20-site A/B: the unsharded baseline vs the inline
//                     and multi-process drivers at 1, 2 and 4 shards.  Exits 1 unless every run's
//                     order-independent packet-trace digest matches the
//                     baseline bit for bit (the tentpole determinism claim)
//                     and no run counts a remote drop.
//
//   --full         -- the scale run: pre-scheduled updates, 400 ms apart,
//                     then 500 ms of drain, on the memory-diet topology
//                     (dormant receivers, --active-per-site of them joined
//                     per site, CountingObserver; by default 4,000 sites x
//                     2,499 receivers with 50 active/site, ~10^7 nodes),
//                     run once with the process driver at --shards
//                     (default 8) and once unsharded (run_unsharded).
//                     Rows land under --full-name with a
//                     "shards=N,driver=D" config tag so sharded and
//                     single-process runs never collide: node count,
//                     build/traffic seconds, application deliveries
//                     (proto.receiver.delivered) and packets handed to
//                     hosts (host_deliveries), the busiest shard's CPU
//                     seconds, window count, window stall fraction
//                     (time blocked on the coordinator pipe), and peak RSS
//                     and RSS bytes per node -- summed over the children
//                     for the process driver (each reports getrusage),
//                     process-wide for the unsharded run.  Delivery rows
//                     need the registry, so an LBRM_NO_TELEMETRY build
//                     writes none; a run that puts no packet on a link
//                     exits 1 in any build.
//                     The unsharded run also reports its build: the node
//                     count read from the built network, topology and
//                     finalize seconds from the trace spans of the build
//                     alone (written to TRACE_finalize.json), and routing
//                     bytes per node -- exit 1 above the tree router's 16,
//                     so no per-node routing table can grow back unnoticed.
//                     CI's rss-gate is this run at 1,000 x 97 with 10
//                     active/site (--skip-processes).
//
// The full-mode driver order is deliberate: processes first (the children
// fork before any simulation state exists, so their per-shard RSS is
// clean), then the unsharded run -- ru_maxrss is monotone per process, so
// its peak is its own.
//
// Usage:
//   bench_shard_scale [--json PATH] [--timestamp ISO8601]
//                     [--full] [--full-name NAME] [--shards N]
//                     [--full-sites N] [--full-receivers N]
//                     [--active-per-site N]
//                     [--updates N] [--update-bytes N]
//                     [--skip-baseline] [--skip-processes]
#include <algorithm>
#include <cstdio>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "sim/loss_model.hpp"
#include "sim/shard.hpp"
#include "sim/topology.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

TimePoint at(double seconds) { return time_zero() + secs(seconds); }

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

using Runner = ShardResult (*)(const ShardRunConfig&);
struct Driver {
    const char* name;
    Runner run;
};

// --- gate mode --------------------------------------------------------------

/// The 20-site A/B scenario (mirrors tests/shard_test.cpp): tail_delay is
/// the conservative lookahead, 12 pre-scheduled updates keep every shard's
/// protocol machinery busy across hundreds of windows.
ShardRunConfig gate_config(std::uint32_t shards) {
    ShardRunConfig cfg;
    cfg.scenario.topology.sites = 20;
    cfg.scenario.topology.receivers_per_site = 2;
    cfg.scenario.topology.tail_delay = millis(5);
    cfg.shards = shards;
    cfg.run_for = secs(1.2);
    cfg.setup = [](DisScenario& s, std::uint32_t) {
        for (int i = 0; i < 12; ++i)
            s.schedule_update(at(0.1 + 0.05 * i), 64 + static_cast<std::size_t>(i));
    };
    return cfg;
}

int run_gate(const std::string& json_path, const std::string& timestamp) {
    title("Sharded A/B gate: 20 sites, drivers x {1, 2, 4} shards");

    const ShardResult base = run_unsharded(gate_config(1));
    note("baseline (unsharded): " + fmt_int(base.digest.packets) +
         " packets, digest sum " + fmt_int(base.digest.sum) + ", " +
         fmt_int(base.deliveries) + " deliveries");
    note("");

    const Driver drivers[] = {{"inline", run_sharded_inline},
                              {"processes", run_sharded_processes}};

    std::vector<JsonMetric> metrics;
    Table table({"driver", "shards", "packets", "deliveries", "remote",
                 "windows", "stall", "match"});
    bool ok = base.digest.packets > 0;
    for (const Driver& drv : drivers) {
        for (const std::uint32_t shards : {1u, 2u, 4u}) {
            const ShardResult r = drv.run(gate_config(shards));
            const bool match =
                r.digest.same(base.digest) && r.remote_drops == 0;
            ok = ok && match;
            table.row({drv.name, fmt_int(shards), fmt_int(r.digest.packets),
                       fmt_int(r.deliveries), fmt_int(r.remote_emits),
                       fmt_int(r.windows), fmt(r.stall_fraction, 3),
                       match ? "yes" : "NO"});
            metrics.push_back({"shard_gate_20site", "trace_hash_equal",
                               match ? 1.0 : 0.0, timestamp,
                               "shards=" + fmt_int(shards) + ",driver=" +
                                   drv.name});
        }
    }
    note("");
    note(ok ? "gate OK: every sharded digest equals the baseline"
            : "GATE FAILED: a sharded run diverged from the baseline trace");

    // --- cross-shard telemetry gate (DESIGN.md "Cross-shard telemetry") --
    // A *lossy* 2-shard processes run vs the monolith: the merged registry
    // snapshot must agree scalar-for-scalar and histogram-bucket-for-bucket
    // (the structure the old flat counter merge lost), and the episode
    // accounting must balance from the merged scalars alone.  The merged
    // artifact lands in SHARD_observability.json for CI shape validation.
    auto lossy = [](std::uint32_t shards) {
        ShardRunConfig cfg = gate_config(shards);
        cfg.scenario.site_logging = SiteLogging::kCentralized;
        cfg.run_for = secs(3.0);
        auto base_setup = cfg.setup;
        cfg.setup = [base_setup](DisScenario& s, std::uint32_t shard) {
            s.network().set_loss(s.topology().backbone,
                                 s.topology().sites[12].router,
                                 std::make_unique<BernoulliLoss>(0.4));
            base_setup(s, shard);
            s.start_sampling(millis(100));
        };
        return cfg;
    };
    const ShardResult mono = run_unsharded(lossy(1));
    ShardRunConfig obs_cfg = lossy(2);
    obs_cfg.collect_trace = true;
    const ShardResult sharded = run_sharded_processes(obs_cfg);
    bool obs_ok = sharded.digest.same(mono.digest);
    const auto comparable = [](const std::string& name) {
        return name.rfind("proto.", 0) == 0 || name.rfind("host.", 0) == 0 ||
               name.rfind("recovery.", 0) == 0 || name == "sim.deliveries";
    };
    for (const auto& [name, value] : mono.merged_snapshot.scalars) {
        if (!comparable(name)) continue;
        const auto it = sharded.merged_snapshot.scalars.find(name);
        if (it == sharded.merged_snapshot.scalars.end() || it->second != value) {
            note("telemetry gate: scalar mismatch on " + name);
            obs_ok = false;
        }
    }
    for (const auto& [name, h] : mono.merged_snapshot.histograms) {
        if (!comparable(name)) continue;
        const auto it = sharded.merged_snapshot.histograms.find(name);
        if (it == sharded.merged_snapshot.histograms.end() ||
            it->second.bounds != h.bounds || it->second.counts != h.counts) {
            note("telemetry gate: histogram bucket mismatch on " + name);
            obs_ok = false;
        }
    }
    if (obs::kTelemetryEnabled) {
        const auto& s = sharded.merged_snapshot.scalars;
        const auto val = [&s](const char* k) {
            const auto it = s.find(k);
            return it == s.end() ? 0.0 : it->second;
        };
        const double opened = val("recovery.episodes_opened");
        if (opened <= 0.0 ||
            opened != val("recovery.episodes_repaired") +
                          val("recovery.episodes_abandoned") +
                          val("recovery.episodes_open")) {
            note("telemetry gate: episode accounting unbalanced across shards");
            obs_ok = false;
        }
        const auto lat =
            mono.merged_snapshot.histograms.find("recovery.latency_s.local");
        if (lat == mono.merged_snapshot.histograms.end() || lat->second.count == 0) {
            note("telemetry gate: lossy run produced no recovery latencies");
            obs_ok = false;
        }
    }
    if (std::FILE* f = std::fopen("SHARD_observability.json", "w")) {
        const std::string artifact = shard_observability_json(sharded);
        std::fwrite(artifact.data(), 1, artifact.size(), f);
        std::fclose(f);
        note("merged observability artifact written to SHARD_observability.json");
    } else {
        note("warning: could not write SHARD_observability.json");
    }
    note(obs_ok ? "telemetry gate OK: merged 2-shard snapshot equals the monolith"
                : "TELEMETRY GATE FAILED: merged snapshot diverged from the monolith");
    metrics.push_back({"shard_gate_20site", "merged_snapshot_equal",
                       obs_ok ? 1.0 : 0.0, timestamp, "shards=2,driver=processes"});
    ok = ok && obs_ok;

    if (!json_path.empty()) write_bench_json(json_path, metrics);
    return ok ? 0 : 1;
}

// --- full mode --------------------------------------------------------------

struct FullArgs {
    std::string name = "full_protocol_10m_sharded";
    std::uint32_t shards = 8;
    std::uint32_t sites = 4000;
    std::uint32_t receivers = 2499;
    std::uint32_t active_per_site = 50;
    std::uint32_t updates = 3;
    std::size_t update_bytes = 200;
    bool skip_baseline = false;
    bool skip_processes = false;
};

/// The scale workload, pre-scheduled: sharded runs need the sends inside
/// the event stream (they must execute on the source's shard, inside its
/// window), so the unsharded run uses the same schedule_update calls --
/// identical workloads, comparable rows.  400 ms between updates
/// lets each tail circuit drain its wave before the next one, so peak
/// memory reflects one in-flight wave, not stacked ones; 500 ms of drain
/// (heartbeats, stat-acks, idle checks) closes the run.
ShardRunConfig full_config(const FullArgs& a) {
    ShardRunConfig cfg;
    cfg.scenario.topology.sites = a.sites;
    cfg.scenario.topology.receivers_per_site = a.receivers;
    cfg.scenario.dormant_receivers = true;
    cfg.scenario.active_receivers_per_site = a.active_per_site;
    cfg.shards = a.shards;
    cfg.run_for = millis(400) * a.updates + millis(500);
    cfg.make_observer = [](std::uint32_t) {
        return std::make_shared<CountingObserver>();
    };
    cfg.setup = [updates = a.updates, bytes = a.update_bytes](DisScenario& s,
                                                             std::uint32_t) {
        for (std::uint32_t i = 0; i < updates; ++i)
            s.schedule_update(at(0.4 * i), bytes);
    };
    return cfg;
}

/// Total seconds of the retained spans called `name`.
double span_seconds(const obs::TraceRecorder& rec, const char* name) {
    double s = 0.0;
    for (const obs::TraceRecorder::Span& sp : rec.spans())
        if (std::strcmp(sp.name, name) == 0) s += static_cast<double>(sp.dur_ns) * 1e-9;
    return s;
}

int run_full(const FullArgs& a, const std::string& json_path,
             const std::string& timestamp) {
    title("Full protocol at scale: " + fmt_int(a.sites) + " sites x " +
          fmt_int(a.receivers) + " dormant receivers, " +
          fmt_int(a.active_per_site) + " active/site" +
          (a.skip_processes ? "" : ", " + fmt_int(a.shards) + " process shards"));

    std::vector<JsonMetric> metrics;
    Table table({"driver", "shards", "build s", "traffic s", "cpu s",
                 "deliveries", "windows", "stall", "RSS MiB", "RSS B/node"});

    // Cells read from the registry or the trace spans, which an
    // LBRM_NO_TELEMETRY build does not keep.
    const auto telemetry_cell = [](std::string cell) {
        return obs::kTelemetryEnabled ? cell : std::string("-");
    };
    bool moved_nothing = false;
    // Read off the unsharded run's built network by its setup hook.
    std::size_t built_nodes = 0;
    std::size_t routing_bytes = 0;
    // The unsharded run's build spans (make_dis_topology's "topology",
    // finalize()'s "finalize").  Its setup hook uninstalls the recorder, so
    // no traffic span can wrap the ring past finalize: a small ring holds
    // the build and keeps the RSS reading clean.
    obs::TraceRecorder build_trace(64);

    // Order matters for RSS attribution -- see the header comment.
    struct Run {
        const char* driver;
        std::uint32_t shards;
        Runner run;
        bool skip;
    };
    const Run runs[] = {
        {"processes", a.shards, run_sharded_processes, a.skip_processes},
        {"single", 1, run_unsharded, a.skip_baseline},
    };

    for (const Run& run : runs) {
        if (run.skip) continue;
        FullArgs shaped = a;
        shaped.shards = run.shards;
        ShardRunConfig cfg = full_config(shaped);
        const bool single = run.run == run_unsharded;
        if (single) {
            cfg.setup = [&, workload = cfg.setup](DisScenario& s, std::uint32_t shard) {
                build_trace.uninstall();
                built_nodes = s.network().node_count();
                routing_bytes = s.network().routing_table_bytes();
                workload(s, shard);
            };
            build_trace.install();
        }
        const auto t0 = std::chrono::steady_clock::now();
        const ShardResult r = run.run(cfg);
        const double total = seconds_since(t0);
        const double build = total > r.wall_seconds ? total - r.wall_seconds : 0.0;
        // Application data deliveries, the unit of the full_protocol*
        // trajectory rows; the registry reads zero under LBRM_NO_TELEMETRY.
        const auto app = r.counters.find("proto.receiver.delivered");
        const double deliveries = app == r.counters.end() ? 0.0 : app->second;
        // The process driver's children build the same topology the
        // unsharded run reads its count from.
        const double nodes = static_cast<double>(
            single ? built_nodes : dis_topology_size(cfg.scenario.topology).nodes);

        // Peak RSS: per-shard getrusage from the child reports (processes),
        // the monotone process-wide peak otherwise.
        double rss = 0.0;
        double rss_max_shard = 0.0;
        if (!r.peak_rss_kb.empty()) {
            for (const std::uint64_t kb : r.peak_rss_kb) {
                rss += static_cast<double>(kb) * 1024.0;
                rss_max_shard =
                    std::max(rss_max_shard, static_cast<double>(kb) * 1024.0);
            }
        } else {
            rss = static_cast<double>(peak_rss_bytes());
            rss_max_shard = rss;
        }

        table.row({run.driver, fmt_int(run.shards), fmt(build, 1),
                   fmt(r.wall_seconds, 1), fmt(r.cpu_seconds_max_shard, 1),
                   telemetry_cell(fmt_int(static_cast<std::uint64_t>(deliveries))),
                   fmt_int(r.windows), fmt(r.stall_fraction, 3),
                   fmt(rss / (1024.0 * 1024.0), 0), fmt(rss / nodes, 0)});
        if (!r.peak_rss_kb.empty()) {
            std::string per_shard = "  per-shard RSS MiB:";
            for (const std::uint64_t kb : r.peak_rss_kb) {
                per_shard += ' ';
                per_shard += fmt(static_cast<double>(kb) / 1024.0, 0);
            }
            note(per_shard);
        }
        // Liveness from the packet trace, which every build keeps.
        if (r.digest.packets == 0) moved_nothing = true;

        const std::string config = "shards=" + fmt_int(run.shards) +
                                   ",driver=" + run.driver;
        metrics.push_back({a.name, "nodes", nodes, timestamp, config});
        metrics.push_back({a.name, "build_seconds", build, timestamp, config});
        metrics.push_back(
            {a.name, "traffic_seconds", r.wall_seconds, timestamp, config});
        if (obs::kTelemetryEnabled) {
            metrics.push_back({a.name, "deliveries", deliveries, timestamp, config});
            metrics.push_back({a.name, "host_deliveries",
                               static_cast<double>(r.deliveries), timestamp, config});
        }
        metrics.push_back({a.name, "cpu_seconds_max_shard",
                           r.cpu_seconds_max_shard, timestamp, config});
        metrics.push_back({a.name, "windows", static_cast<double>(r.windows),
                           timestamp, config});
        metrics.push_back({a.name, "window_stall_fraction", r.stall_fraction,
                           timestamp, config});
        metrics.push_back({a.name, "peak_rss_bytes", rss, timestamp, config});
        metrics.push_back({a.name, "peak_rss_bytes_max_shard", rss_max_shard,
                           timestamp, config});
        metrics.push_back({a.name, "rss_bytes_per_node", rss / nodes, timestamp, config});
    }

    note("");
    bool routing_ok = true;
    if (!a.skip_baseline) {
        // The build of the unsharded run.  Four 32-bit words of routing per
        // node: parent cable end, DFS enter and exit, liveness segment top.
        const double routing_per_node =
            static_cast<double>(routing_bytes) / static_cast<double>(built_nodes);
        const double topology_s = span_seconds(build_trace, "topology");
        const double finalize_s = span_seconds(build_trace, "finalize");
        Table build({"nodes", "topology s", "finalize s", "routing MiB", "B/node"});
        build.row({fmt_int(built_nodes), telemetry_cell(fmt(topology_s, 3)),
                   telemetry_cell(fmt(finalize_s, 3)),
                   fmt(static_cast<double>(routing_bytes) / (1024.0 * 1024.0), 1),
                   fmt(routing_per_node, 1)});
        const std::string config = "shards=1,driver=single";
        if (obs::kTelemetryEnabled) {
            metrics.push_back({a.name, "topology_seconds", topology_s, timestamp, config});
            metrics.push_back({a.name, "finalize_seconds", finalize_s, timestamp, config});
            const bool wrote = build_trace.write_chrome_json("TRACE_finalize.json");
            note("build trace: " + fmt_int(build_trace.spans().size()) + " spans (" +
                 fmt_int(build_trace.dropped()) + " dropped)" +
                 (wrote ? ", written to TRACE_finalize.json" : " (trace write FAILED)"));
        } else {
            note("build trace: telemetry compiled out (LBRM_NO_TELEMETRY); skipped");
        }
        metrics.push_back({a.name, "routing_table_bytes",
                           static_cast<double>(routing_bytes), timestamp, config});
        metrics.push_back(
            {a.name, "routing_table_bytes_per_node", routing_per_node, timestamp, config});
        if (routing_per_node > 16.0) {
            note("ERROR: routing holds " + fmt(routing_per_node, 1) +
                 " B/node, above the tree router's 16");
            routing_ok = false;
        }
    }
    if (moved_nothing) {
        note("ERROR: a full-protocol run put no packet on a link");
        return 1;
    }
    if (!json_path.empty()) {
        write_bench_json(json_path, metrics);
        note("JSON written to " + json_path);
    }
    for (const auto& m : metrics) note(json_metric_line(m));
    return routing_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    std::string timestamp;
    bool full = false;
    FullArgs fa;

    auto next = [&](const char* flag, int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json_path = next("--json", i);
        else if (std::strcmp(argv[i], "--timestamp") == 0)
            timestamp = next("--timestamp", i);
        else if (std::strcmp(argv[i], "--full") == 0)
            full = true;
        else if (std::strcmp(argv[i], "--full-name") == 0)
            fa.name = next("--full-name", i);
        else if (std::strcmp(argv[i], "--shards") == 0)
            fa.shards = static_cast<std::uint32_t>(std::atoi(next("--shards", i)));
        else if (std::strcmp(argv[i], "--full-sites") == 0)
            fa.sites =
                static_cast<std::uint32_t>(std::atoi(next("--full-sites", i)));
        else if (std::strcmp(argv[i], "--full-receivers") == 0)
            fa.receivers =
                static_cast<std::uint32_t>(std::atoi(next("--full-receivers", i)));
        else if (std::strcmp(argv[i], "--active-per-site") == 0)
            fa.active_per_site =
                static_cast<std::uint32_t>(std::atoi(next("--active-per-site", i)));
        else if (std::strcmp(argv[i], "--updates") == 0)
            fa.updates =
                static_cast<std::uint32_t>(std::atoi(next("--updates", i)));
        else if (std::strcmp(argv[i], "--update-bytes") == 0)
            fa.update_bytes =
                static_cast<std::size_t>(std::atoi(next("--update-bytes", i)));
        else if (std::strcmp(argv[i], "--skip-baseline") == 0)
            fa.skip_baseline = true;
        else if (std::strcmp(argv[i], "--skip-processes") == 0)
            fa.skip_processes = true;
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    return full ? run_full(fa, json_path, timestamp)
                : run_gate(json_path, timestamp);
}
