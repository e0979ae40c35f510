// Sharded-engine bench (DESIGN.md "Sharded execution"): the trace-hash gate
// CI bench-smoke runs on every push, plus the 10M-node multi-shard record.
//
// Modes:
//
//   gate (default) -- 20-site A/B: the unsharded baseline vs the inline
//                     and multi-process drivers at 1, 2 and 4 shards.  Exits 1 unless every run's
//                     order-independent packet-trace digest matches the
//                     baseline bit for bit (the tentpole determinism claim)
//                     and no run counts a remote drop.
//
//   --full         -- the scale record: a pre-scheduled update workload on
//                     the 10M-node memory-diet topology (4,000 sites x
//                     2,499 dormant receivers, 50 active/site -- the
//                     full_protocol_10m shape), run once unsharded (a fresh
//                     single-process baseline with the identical workload)
//                     and once with the process driver at --shards
//                     (default 8).
//                     Rows land in BENCH_simcore.json under --full-name
//                     with a "shards=N,driver=D" config tag so sharded and
//                     single-process runs never collide: build/traffic
//                     seconds, deliveries, wall-clock delivered-pps, the
//                     busiest shard's CPU seconds plus the CPU-based pps
//                     (deliveries / cpu_seconds_max_shard -- the throughput
//                     bound once each shard owns a core; wall pps with
//                     fewer cores than shards just measures timesharing),
//                     window count, window stall fraction (time blocked on
//                     the coordinator pipe), and peak RSS -- per-shard for
//                     the process driver (each child reports getrusage),
//                     process-wide for the baseline.
//
// The full-mode driver order is deliberate: processes first (the children
// fork before any simulation state exists, so their per-shard RSS is
// clean), then the unsharded baseline -- ru_maxrss is monotone per
// process, so the baseline's peak is its own.
//
// Usage:
//   bench_shard_scale [--json PATH] [--timestamp ISO8601]
//                     [--full] [--full-name NAME] [--shards N]
//                     [--full-sites N] [--full-receivers N]
//                     [--full-dormant 0|1] [--active-per-site N]
//                     [--updates N] [--update-bytes N]
//                     [--skip-baseline] [--skip-processes]
#include <cstdio>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/loss_model.hpp"
#include "sim/shard.hpp"

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
        cfg.scenario.use_secondary_loggers = false;
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
            mono.merged_snapshot.histograms.find("proto.receiver.recovery_latency_s");
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
    bool dormant = true;
    std::uint32_t active_per_site = 50;
    std::uint32_t updates = 3;
    std::size_t update_bytes = 200;
    bool skip_baseline = false;
    bool skip_processes = false;
};

/// The full_protocol_10m workload, pre-scheduled: sharded runs need the
/// sends inside the event stream (they must execute on the source's shard,
/// inside its window), so the baseline uses the same schedule_update calls
/// -- identical workloads, comparable delivered-pps.  400 ms between
/// updates lets each tail circuit drain its wave (bench_routing_scale);
/// 500 ms of drain closes the run.
ShardRunConfig full_config(const FullArgs& a) {
    ShardRunConfig cfg;
    cfg.scenario.topology.sites = a.sites;
    cfg.scenario.topology.receivers_per_site = a.receivers;
    cfg.scenario.dormant_receivers = a.dormant;
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

int run_full(const FullArgs& a, const std::string& json_path,
             const std::string& timestamp) {
    // Topology arithmetic (make_dis_topology, no regional tier): per site a
    // router + secondary + receivers, plus source, primary, 2 replicas and
    // the backbone hub.
    const double nodes =
        static_cast<double>(a.sites) * (a.receivers + 2.0) + 5.0;

    title("Full protocol, sharded: " + fmt_int(a.sites) + " sites x " +
          fmt_int(a.receivers) + " receivers (" + fmt(nodes / 1e6, 1) +
          "M nodes), " + fmt_int(a.shards) + " shards, " +
          fmt_int(a.active_per_site) + " active/site");

    std::vector<JsonMetric> metrics;
    Table table({"driver", "shards", "build s", "traffic s", "cpu s",
                 "deliveries", "pps", "pps/cpu", "windows", "stall",
                 "RSS MiB"});

    double baseline_pps = 0.0;
    bool delivered_nothing = false;

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
        const auto t0 = std::chrono::steady_clock::now();
        const ShardResult r = run.run(full_config(shaped));
        const double total = seconds_since(t0);
        const double build = total > r.wall_seconds ? total - r.wall_seconds : 0.0;
        const double pps = r.wall_seconds > 0.0
                               ? static_cast<double>(r.deliveries) / r.wall_seconds
                               : 0.0;
        // Core-count-independent throughput: deliveries over the busiest
        // shard's CPU seconds -- the rate the fleet sustains once every
        // shard owns a core, which wall-clock pps on a timesharing box
        // cannot show (8 shards on 1 core serialise).
        const double pps_cpu =
            r.cpu_seconds_max_shard > 0.0
                ? static_cast<double>(r.deliveries) / r.cpu_seconds_max_shard
                : 0.0;

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
                   fmt_int(r.deliveries), fmt(pps, 0), fmt(pps_cpu, 0),
                   fmt_int(r.windows), fmt(r.stall_fraction, 3),
                   fmt(rss / (1024.0 * 1024.0), 0)});
        if (!r.peak_rss_kb.empty()) {
            std::string per_shard = "  per-shard RSS MiB:";
            for (const std::uint64_t kb : r.peak_rss_kb)
                per_shard +=
                    " " + fmt(static_cast<double>(kb) / 1024.0, 0);
            note(per_shard);
        }
        if (r.deliveries == 0) delivered_nothing = true;
        if (std::strcmp(run.driver, "single") == 0) baseline_pps = pps;

        const std::string config = "shards=" + fmt_int(run.shards) +
                                   ",driver=" + run.driver;
        metrics.push_back({a.name, "nodes", nodes, timestamp, config});
        metrics.push_back({a.name, "build_seconds", build, timestamp, config});
        metrics.push_back(
            {a.name, "traffic_seconds", r.wall_seconds, timestamp, config});
        metrics.push_back({a.name, "deliveries",
                           static_cast<double>(r.deliveries), timestamp, config});
        metrics.push_back(
            {a.name, "delivered_packets_per_sec", pps, timestamp, config});
        metrics.push_back({a.name, "cpu_seconds_max_shard",
                           r.cpu_seconds_max_shard, timestamp, config});
        metrics.push_back(
            {a.name, "delivered_pps_shard_cpu", pps_cpu, timestamp, config});
        metrics.push_back({a.name, "windows", static_cast<double>(r.windows),
                           timestamp, config});
        metrics.push_back({a.name, "window_stall_fraction", r.stall_fraction,
                           timestamp, config});
        metrics.push_back({a.name, "peak_rss_bytes", rss, timestamp, config});
        metrics.push_back({a.name, "peak_rss_bytes_max_shard", rss_max_shard,
                           timestamp, config});
    }

    note("");
    if (baseline_pps > 0.0)
        note("single-process baseline delivered pps: " + fmt(baseline_pps, 0));
    if (delivered_nothing) {
        note("ERROR: a full-protocol run delivered nothing");
        return 1;
    }
    if (!json_path.empty()) {
        write_bench_json(json_path, metrics);
        note("JSON written to " + json_path);
    }
    for (const auto& m : metrics) note(json_metric_line(m));
    return 0;
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
        else if (std::strcmp(argv[i], "--full-dormant") == 0)
            fa.dormant = std::atoi(next("--full-dormant", i)) != 0;
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
