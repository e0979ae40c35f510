// Section 2.2.2 (b): recovery latency through the logging hierarchy.
//
// "A secondary logging server ... might typically be at a distance of 3-4
// milliseconds RTT ... while a primary logging server located 1,500 miles
// away ... at a distance of 80 milliseconds RTT.  By getting a
// retransmission from the local logging server, we can reduce the
// retransmission latency by an order of magnitude."
//
// Experiment: one receiver loses a packet on its own LAN drop (the site's
// secondary logger has it).  We decompose recovery into
//   detection  (wait for the heartbeat that reveals the gap -- dominated by
//               h_min, as Section 3 notes), and
//   retrieval  (NACK out -> retransmission in), the quantity the paper's
//               RTT argument is about,
// across three hierarchy paths: distributed logging (local secondary),
// centralized logging (primary across the WAN), and an *escalated* repair
// (the local secondary is dead, so the receiver walks the Section 2.2.1
// chain to the fallback tier).
//
// Measurement rides the recovery-episode tracker (obs/episode.hpp): each
// trial's engineered loss produces exactly one episode record whose
// (opened_s, closed_s, tier) give detection and retrieval directly.  The
// bench exits 1 if a trial yields no episode, a repair lands on the wrong
// tier or the episode accounting leaks -- and, since episodes are
// telemetry, refuses to run at all in a LBRM_NO_TELEMETRY build.
//
// Headline rows land in BENCH_simcore.json as "sec222_recovery_latency"
// with config "logging=<variant>,tier=<tier>" -- the tier-resolved repair
// percentiles the episode tracker makes possible.
//
// Usage: bench_sec222_recovery_latency [--json PATH] [--timestamp ISO8601]
//                                      [--trials N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "obs/episode.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;
using obs::EpisodeTracker;

struct Variant {
    std::string name;          ///< JSON config "logging=<name>"
    bool distributed = true;   ///< site secondaries enabled
    bool kill_secondary = false;  ///< force escalation past the dead local tier
    std::uint8_t expect_tier = EpisodeTracker::kTierLocal;
};

const char* tier_name(std::uint8_t tier) {
    switch (tier) {
        case EpisodeTracker::kTierLocal: return "local";
        case EpisodeTracker::kTierFallback: return "fallback";
        default: return "primary";
    }
}

struct Result {
    SampleSet detect, retrieve, total;
    int tier_mismatches = 0;
    int samples = 0;
    bool balanced = true;
};

Result run(const Variant& variant, int trials) {
    Result out;

    for (int trial = 0; trial < trials; ++trial) {
        ScenarioConfig config;
        config.topology.sites = 3;
        config.topology.receivers_per_site = 4;
        config.stat_ack.enabled = false;
        config.site_logging =
            variant.distributed ? SiteLogging::kDedicated : SiteLogging::kCentralized;
        config.seed = 1000 + static_cast<std::uint64_t>(trial);
        // Keep the deliberate reorder-wait before NACKing small: this bench
        // isolates the logging-hierarchy RTT, not the batching delay.
        config.receiver_defaults.nack_delay_min = millis(1);
        config.receiver_defaults.nack_delay_max = millis(2);
        DisScenario scenario(config);
        auto& network = scenario.network();
        const auto& topo = scenario.topology();
        scenario.start();
        scenario.send_update(std::size_t{128});
        scenario.run_for(secs(2.0));

        // Lose the next packet on ONE receiver's LAN drop only: the rest of
        // the site (including the secondary logger) receives it.  The
        // escalated variant additionally silences the secondary, so the
        // local NACKs go unanswered and the retry budget walks the chain.
        const NodeId victim = topo.sites[0].receivers[0];
        if (variant.kill_secondary)
            network.set_node_down(topo.sites[0].secondary, true);
        network.set_loss(topo.sites[0].router, victim,
                         std::make_unique<BernoulliLoss>(1.0));
        scenario.send_update(std::size_t{128});
        const SeqNum seq = scenario.sender().last_seq();
        const TimePoint sent = *scenario.sent_at(seq);
        scenario.run_for(millis(50));
        network.set_loss(topo.sites[0].router, victim,
                         std::make_unique<BernoulliLoss>(0.0));
        scenario.run_for(secs(5.0));

        EpisodeTracker& episodes = scenario.metrics().episodes();
        out.balanced = out.balanced && episodes.balanced();
        for (const EpisodeTracker::Record& rec : episodes.records()) {
            if (rec.kind != EpisodeTracker::Kind::kRecovery ||
                rec.node != victim.value() || rec.seq != seq.value())
                continue;
            const double sent_s = to_seconds(sent);
            out.detect.add(rec.opened_s - sent_s);
            out.retrieve.add(rec.closed_s - rec.opened_s);
            out.total.add(rec.closed_s - sent_s);
            if (rec.tier != variant.expect_tier) ++out.tier_mismatches;
            ++out.samples;
        }
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_simcore.json";
    std::string timestamp = "unspecified";
    int trials = 10;
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
        else if (std::strcmp(argv[i], "--trials") == 0)
            trials = static_cast<int>(std::atoll(next("--trials")));
    }

    if (!obs::kTelemetryEnabled) {
        std::fprintf(stderr, "refusing to measure a telemetry-free build: recovery "
                             "latency comes from episode records\n");
        return 2;
    }

    title("Section 2.2.2: recovery latency through the logging hierarchy");
    note("One receiver loses a packet on its LAN drop; the rest of its site");
    note("has it.  Retrieval = NACK -> retransmission (the paper's RTT claim),");
    note("measured by the recovery-episode tracker.");
    note("");

    const std::vector<Variant> variants = {
        {"distributed", true, false, EpisodeTracker::kTierLocal},
        {"centralized", false, false, EpisodeTracker::kTierLocal},
        {"escalated", true, true, EpisodeTracker::kTierFallback},
    };

    std::vector<Result> results;
    for (const Variant& v : variants) results.push_back(run(v, trials));

    Table table({"logging", "tier", "detect (ms)", "retr p50", "retr p99",
                 "total (ms)", "samples"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        Result& r = results[i];
        table.row({variants[i].name, tier_name(variants[i].expect_tier),
                   fmt(r.detect.mean() * 1e3, 1), fmt(r.retrieve.median() * 1e3, 1),
                   fmt(r.retrieve.p99() * 1e3, 1), fmt(r.total.mean() * 1e3, 1),
                   fmt_int(static_cast<std::uint64_t>(r.retrieve.count()))});
    }

    note("");
    note("speedup (retrieval, distributed vs centralized): " +
         fmt(results[1].retrieve.median() / results[0].retrieve.median(), 1) + "x");
    note("");
    note("Expected shape (paper): local retrieval ~3-4 ms RTT vs ~80 ms RTT");
    note("via the remote primary -- an order of magnitude.  Detection time");
    note("(~h_min = 250 ms) dominates the total either way, exactly as the");
    note("paper's Section 3 measurement discussion concludes.  The escalated");
    note("row adds the dead-secondary walk: local retries, then the fallback");
    note("tier serves the repair (Section 2.2.1).");

    // Gate: one episode per trial, each repaired by the expected tier, and
    // the accounting balanced.
    bool ok = true;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Result& r = results[i];
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s: %d episodes over %d trials, tier mismatches %d",
                      variants[i].name.c_str(), r.samples, trials, r.tier_mismatches);
        note(buf);
        if (r.samples != trials || r.tier_mismatches > 0 || !r.balanced) ok = false;
    }
    if (!ok) {
        note("ERROR: episode measurement incomplete, mis-tiered or unbalanced");
        return 1;
    }

    std::vector<JsonMetric> metrics;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SampleSet& retrieve = results[i].retrieve;
        const std::string config = "logging=" + variants[i].name +
                                   ",tier=" + tier_name(variants[i].expect_tier);
        metrics.push_back({"sec222_recovery_latency", "repair_p50_ms",
                           retrieve.median() * 1e3, timestamp, config});
        metrics.push_back({"sec222_recovery_latency", "repair_p99_ms",
                           retrieve.p99() * 1e3, timestamp, config});
        metrics.push_back({"sec222_recovery_latency", "episodes",
                           static_cast<double>(retrieve.count()), timestamp,
                           config});
    }
    write_bench_json(json_path, metrics);
    note("");
    note("JSON written to " + json_path);
    for (const auto& m : metrics) note(json_metric_line(m));
    return 0;
}
