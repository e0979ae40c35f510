// Chaos & failover bench: receiver-reliability under scripted churn.
//
// Runs the five fault classes of sim/chaos.hpp -- correlated site
// blackouts, a primary-logger failover storm (Section 2.2.3),
// partition-and-rejoin (group re-estimation included), crash-on-receive +
// send-and-crash churn, and a blackout under logger rotation (Section
// 2.2.1) -- each against the 20-site full-protocol scenario with baseline
// feed loss, and reports per class: recovery-latency percentiles over the
// fault windows, the lost-forever count (the paper's claim: always 0),
// and NACK/heartbeat overhead per update.  Headline rows land in
// BENCH_simcore.json ("chaos_<class>").
//
// Two hard gates (exit 1):
//   * lost_forever must be 0 in every fault class -- receiver reliability
//     is the protocol's whole contract (Section 2.1).
//   * a fault-free run with an armed-but-empty ChaosEngine must produce a
//     bit-identical packet trace (FNV-1a over the link-level tap) to a run
//     with no engine at all: the chaos layer compiled in but idle is free.
//
// Usage:
//   bench_chaos [--json PATH] [--timestamp ISO8601] [--sites N]
//               [--receivers N] [--updates N] [--loss P]
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/trace_hash.hpp"
#include "common/rng.hpp"
#include "obs/episode.hpp"
#include "obs/metrics.hpp"
#include "sim/chaos.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

struct Options {
    std::string json_path = "BENCH_simcore.json";
    std::string timestamp = "unspecified";
    std::size_t sites = 20;
    std::uint32_t receivers = 10;
    std::uint64_t updates = 120;
    double loss = 0.02;
};

ScenarioConfig base_config(const Options& opt) {
    ScenarioConfig config;
    config.topology.sites = static_cast<std::uint32_t>(opt.sites);
    config.topology.receivers_per_site = opt.receivers;
    config.topology.replicas = 2;  // the storm needs a promotion chain
    config.sim.tree_cache_capacity = 64;
    config.seed = 77;
    return config;
}

void add_feed_loss(DisScenario& scenario, double loss) {
    // Baseline loss on every backbone -> site feed: NACKs and secondary
    // repairs are already flowing when the faults strike, so the bench
    // measures recovery under churn, not on a pristine network.
    const DisTopology& topo = scenario.topology();
    for (const auto& site : topo.sites)
        scenario.network().set_loss(topo.backbone, site.router,
                                    std::make_unique<BernoulliLoss>(loss));
}

/// The shared traffic pattern: warmup, `updates` sends at a 25 ms cadence
/// (so every scheduled fault window overlaps live traffic), long drain for
/// NACK chains, failover promotion and post-heal catch-up.
void drive_traffic(DisScenario& scenario, std::uint64_t updates) {
    scenario.run_for(millis(500));
    for (std::uint64_t i = 0; i < updates; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(25));
    }
    scenario.run_for(secs(8.0));
}

struct ClassResult {
    std::string name;
    RecoveryStats recovery;
    ReliabilityAudit audit;
    double nacks_per_update = 0.0;
    double heartbeats_per_update = 0.0;
    std::uint64_t faults_applied = 0;
    std::uint64_t revivals = 0;
    std::uint64_t sampler_rows = 0;
    // Recovery-episode accounting (obs/episode.hpp): every gap the churn
    // opened, and what became of it.
    std::uint64_t episodes_opened = 0;
    std::uint64_t episodes_repaired = 0;
    std::uint64_t episodes_abandoned = 0;
    std::uint64_t episodes_open = 0;  ///< leaked if nonzero after the drain
    bool episodes_balanced = true;
};

struct ClassSpec {
    std::string name;
    std::function<void(ScenarioConfig&)> configure;  ///< may be null
    std::function<ChaosSchedule(const DisScenario&)> schedule;
};

ClassResult run_class(const Options& opt, const ClassSpec& spec) {
    ScenarioConfig config = base_config(opt);
    if (spec.configure) spec.configure(config);

    DisScenario scenario{config};
    add_feed_loss(scenario, opt.loss);

    const ChaosSchedule schedule = spec.schedule(scenario);
    ChaosEngine engine{scenario, schedule};
    scenario.start();
    scenario.start_sampling(millis(100));
    engine.arm();
    drive_traffic(scenario, opt.updates);

    ClassResult result;
    result.name = spec.name;
    result.audit = audit_reliability(scenario);
    result.faults_applied = engine.faults_applied();
    result.revivals = engine.revivals();
    result.sampler_rows = scenario.sampler().rows();

    // Recovery latency over the union of fault-active windows: sequences
    // sent while at least the first fault had struck and the last had not
    // yet healed -- the updates whose settle time actually includes
    // blackout / crash recovery.
    TimePoint win_start{};
    TimePoint win_end{};
    for (const auto& w : engine.windows()) {
        if (win_end == TimePoint{} || w.start < win_start) win_start = w.start;
        if (w.heal > win_end) win_end = w.heal;
    }
    result.recovery = settle_latency(scenario, win_start, win_end);

    obs::Metrics& m = scenario.metrics();
    const double updates = static_cast<double>(opt.updates);
    result.nacks_per_update = static_cast<double>(m.value("proto.receiver.nacks_sent")) / updates;
    result.heartbeats_per_update =
        static_cast<double>(m.value("proto.sender.heartbeats_sent")) / updates;
    const obs::EpisodeTracker& episodes = m.episodes();
    result.episodes_opened = episodes.opened();
    result.episodes_repaired = episodes.repaired();
    result.episodes_abandoned = episodes.abandoned();
    result.episodes_open = episodes.open_count();
    result.episodes_balanced = episodes.balanced();
    return result;
}

// --- the five fault classes -------------------------------------------------

std::vector<ClassSpec> fault_classes(const Options& opt) {
    std::vector<ClassSpec> classes;

    classes.push_back(
        {"blackouts", nullptr, [&opt](const DisScenario&) {
             // Randomized correlated outages, drawn from a dedicated RNG
             // stream (never the scenario's): 4 sites go dark for 250-700 ms
             // somewhere inside the send window.
             Rng rng{20250809};
             return ChaosSchedule::correlated_blackouts(rng, opt.sites, 4, secs(2.8),
                                                        millis(250), millis(700));
         }});

    classes.push_back(
        {"failover_storm", nullptr, [](const DisScenario&) {
             // Primary and replica 0 crash together mid-stream: the
             // LogStore handoff times out, candidate 0 stays silent, and
             // the sender must walk the chain to replica 1 (Section 2.2.3)
             // while both casualties later revive as stale cores.
             ChaosSchedule schedule;
             schedule.events.push_back(PrimaryCrash{secs(0.8), secs(2.5)});
             schedule.events.push_back(ReplicaCrash{0, secs(0.8), secs(3.0)});
             return schedule;
         }});

    classes.push_back(
        {"partition", nullptr, [](const DisScenario&) {
             // A whole site drops off the tree and rejoins 1.5 s later: its
             // receivers must close every gap the isolation opened, and the
             // sender's statistical-ACK estimate must reconverge.
             ChaosSchedule schedule;
             schedule.events.push_back(SitePartition{1, secs(0.8), secs(1.5)});
             return schedule;
         }});

    classes.push_back(
        {"crash_churn", nullptr, [](const DisScenario& scenario) {
             // Packet-triggered crashes: a receiver dies the instant it
             // delivers seq 6; the source dies right after multicasting
             // seq 12 (retries, heartbeats and ACK machinery go dark until
             // revival, and updates sent while dark must still arrive).
             ChaosSchedule schedule;
             schedule.events.push_back(CrashOnReceive{
                 scenario.topology().sites[2].receivers[0], SeqNum{6}, millis(400)});
             schedule.events.push_back(SendAndCrash{SeqNum{12}, millis(100)});
             return schedule;
         }});

    classes.push_back(
        {"rotation",
         [](ScenarioConfig& config) {
             // Section 2.2.1 alternative: every receiver host doubles as a
             // secondary and NACK targets rotate each second.
             config.site_logging = SiteLogging::kRotating;
             config.receiver_defaults.rotation_slot = secs(1.0);
         },
         [](const DisScenario&) {
             ChaosSchedule schedule;
             schedule.events.push_back(SiteBlackout{1, secs(0.8), millis(600)});
             return schedule;
         }});

    return classes;
}

// --- idle-identity gate -----------------------------------------------------

std::uint64_t fault_free_hash(const Options& opt, bool with_idle_engine) {
    ScenarioConfig config = base_config(opt);
    DisScenario scenario{config};
    add_feed_loss(scenario, opt.loss);

    Fnv1a hash;
    hash_trace(scenario.network(), hash);

    std::unique_ptr<ChaosEngine> engine;
    if (with_idle_engine) engine = std::make_unique<ChaosEngine>(scenario, ChaosSchedule{});
    scenario.start();
    if (engine) engine->arm();
    drive_traffic(scenario, opt.updates / 4);  // identity needs no long run
    return hash.h;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--json") == 0) opt.json_path = next("--json");
        else if (std::strcmp(argv[i], "--timestamp") == 0) opt.timestamp = next("--timestamp");
        else if (std::strcmp(argv[i], "--sites") == 0)
            opt.sites = static_cast<std::size_t>(std::atoll(next("--sites")));
        else if (std::strcmp(argv[i], "--receivers") == 0)
            opt.receivers = static_cast<std::uint32_t>(std::atoll(next("--receivers")));
        else if (std::strcmp(argv[i], "--updates") == 0)
            opt.updates = static_cast<std::uint64_t>(std::atoll(next("--updates")));
        else if (std::strcmp(argv[i], "--loss") == 0) opt.loss = std::atof(next("--loss"));
    }
    if (opt.sites < 4 || opt.updates < 16) {
        std::printf("bench_chaos needs --sites >= 4 and --updates >= 16 "
                    "(fault schedules reference site 2 and seq 12)\n");
        return 2;
    }

    const auto wall0 = std::chrono::steady_clock::now();

    title("Chaos & failover: " + fmt_int(opt.sites) + " sites x " +
          fmt_int(opt.receivers) + " receivers, " + fmt_int(opt.updates) +
          " updates at " + fmt(opt.loss * 100.0, 1) + "% feed loss");

    // Gate 1: the chaos layer compiled in but idle must be invisible.
    const std::uint64_t hash_plain = fault_free_hash(opt, false);
    const std::uint64_t hash_idle = fault_free_hash(opt, true);
    {
        char buf[80];
        std::snprintf(buf, sizeof buf, "idle-engine identity: %016llx vs %016llx",
                      static_cast<unsigned long long>(hash_plain),
                      static_cast<unsigned long long>(hash_idle));
        note(buf);
    }
    if (hash_plain != hash_idle) {
        note("ERROR: armed-but-empty ChaosEngine perturbed the packet trace");
        return 1;
    }
    note("");

    std::vector<ClassResult> results;
    for (const ClassSpec& spec : fault_classes(opt)) results.push_back(run_class(opt, spec));

    Table table({"class", "faults", "revivals", "lost", "rec_p50_ms", "rec_p99_ms",
                 "nacks/upd", "hb/upd", "episodes", "ep_abandon", "ep_open"});
    bool reliable = true;
    bool sampled = true;
    bool accounted = true;
    for (const ClassResult& r : results) {
        table.row({r.name, fmt_int(r.faults_applied), fmt_int(r.revivals),
                   fmt_int(r.audit.lost_forever), fmt(r.recovery.p50_s * 1e3, 1),
                   fmt(r.recovery.p99_s * 1e3, 1), fmt(r.nacks_per_update, 2),
                   fmt(r.heartbeats_per_update, 2), fmt_int(r.episodes_opened),
                   fmt_int(r.episodes_abandoned), fmt_int(r.episodes_open)});
        if (r.audit.lost_forever != 0) reliable = false;
        if (r.sampler_rows == 0) sampled = false;
        // Episode-accounting gates: every opened episode resolved (balanced
        // and none still open after the drain), and nobody gave up for good
        // when nothing was actually lost.
        if (!r.episodes_balanced || r.episodes_open != 0) accounted = false;
        if (r.audit.lost_forever == 0 && r.episodes_abandoned != 0) accounted = false;
        if (obs::kTelemetryEnabled && r.episodes_opened == 0) accounted = false;
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    note("");
    note("recovery percentiles window: updates sent while any fault was active");
    note("sampler rows per class: " + fmt_int(results.front().sampler_rows) +
         " at 100 ms sim cadence; wall " + fmt(wall_seconds, 2) + " s total");

    if (!reliable) {
        note("ERROR: lost_forever != 0 -- receiver reliability violated under churn");
        return 1;
    }
    if (obs::kTelemetryEnabled && !sampled) {
        note("ERROR: sampler recorded no rows during a fault-class run");
        return 1;
    }
    if (obs::kTelemetryEnabled && !accounted) {
        note("ERROR: episode accounting violated -- leaked or spuriously "
             "abandoned recovery episodes under churn");
        return 1;
    }

    std::vector<JsonMetric> metrics;
    for (const ClassResult& r : results) {
        const std::string name = "chaos_" + r.name;
        metrics.push_back({name, "recovery_p50_ms", r.recovery.p50_s * 1e3, opt.timestamp});
        metrics.push_back({name, "recovery_p99_ms", r.recovery.p99_s * 1e3, opt.timestamp});
        metrics.push_back({name, "lost_forever",
                           static_cast<double>(r.audit.lost_forever), opt.timestamp});
        metrics.push_back({name, "nacks_per_update", r.nacks_per_update, opt.timestamp});
        metrics.push_back({name, "heartbeats_per_update", r.heartbeats_per_update,
                           opt.timestamp});
        metrics.push_back({name, "faults_applied",
                           static_cast<double>(r.faults_applied), opt.timestamp});
        metrics.push_back({name, "revivals", static_cast<double>(r.revivals),
                           opt.timestamp});
        metrics.push_back({name, "episodes_opened",
                           static_cast<double>(r.episodes_opened), opt.timestamp});
        metrics.push_back({name, "episodes_repaired",
                           static_cast<double>(r.episodes_repaired), opt.timestamp});
        metrics.push_back({name, "episodes_abandoned",
                           static_cast<double>(r.episodes_abandoned), opt.timestamp});
        metrics.push_back({name, "episodes_open",
                           static_cast<double>(r.episodes_open), opt.timestamp});
    }
    write_bench_json(opt.json_path, metrics);
    note("JSON written to " + opt.json_path);
    for (const auto& m : metrics) note(json_metric_line(m));
    return 0;
}
