// Closed-loop workload bench (ROADMAP "Heavy-traffic workloads with
// closed-loop flow control"; DESIGN.md "Closed-loop workloads").
//
// Drives the two scale workloads -- the stock ticker (Zipf hot keys,
// bursty fan-in) and Appendix-A WWW page invalidation (Zipf page
// popularity, scripted flash crowd) -- through workload::WorkloadEngine at
// up to 10^5+ receivers, with Bernoulli loss on every site feed, and A/Bs
// the AIMD send-spacing governor:
//
//   governor=off  open loop: the engine pre-schedules the drawn plan and
//                 only observes (staleness, fairness).
//   governor=on   closed loop: FlowControlConfig enabled, each stream's
//                 pacer obeys jittered_spacing() before every send.
//
// Per (workload, governor) row into BENCH_simcore.json: goodput, p50/p99
// per-key staleness, Jain fairness over streams, NACK overhead per send,
// deferrals, and lost_forever (exits 1 unless 0 -- receiver reliability is
// not negotiable under congestion).  The governed ticker run's sampler
// series (spacing, slowdown notices, workload rates) lands in
// BENCH_workloads_health.json.
//
// --gate mode is the CI determinism check (same pattern as the chaos
// gate): for both workloads, a run with *no engine at all* -- the plan
// replayed through DisScenario::schedule_update by hand -- must produce a
// packet trace bit-identical to the engine's governor-off run.  An idle
// governor must be invisible.
//
// Usage:
//   bench_workloads [--sites N] [--receivers N] [--streams N]
//                   [--horizon-s S] [--mean-gap-ms N] [--loss P] [--seed N]
//                   [--settle-s S] [--interval-ms N] [--json PATH]
//                   [--health-json PATH] [--timestamp TS] [--gate]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/trace_hash.hpp"
#include "obs/metrics.hpp"
#include "sim/loss_model.hpp"
#include "sim/observer.hpp"
#include "sim/scenario.hpp"
#include "workload/engine.hpp"
#include "workload/stock_ticker.hpp"
#include "workload/web_invalidation.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

struct BenchOpts {
    std::size_t sites = 1000;
    std::size_t receivers = 100;  ///< per site; 1000 x 100 = 10^5 receivers
    std::uint32_t streams = 4;
    double horizon_s = 2.0;
    std::uint64_t mean_gap_ms = 40;
    double loss = 0.01;
    std::uint64_t seed = 7;
    double settle_s = 3.0;
    std::uint64_t interval_ms = 100;
    bool trace_hash = false;  ///< install the (expensive) tap
};

std::unique_ptr<workload::Workload> make_stream(const std::string& kind,
                                                const BenchOpts& o) {
    if (kind == "ticker") {
        workload::StockTickerConfig cfg;
        cfg.symbols = 500;
        cfg.mean_gap = millis(static_cast<std::int64_t>(o.mean_gap_ms));
        cfg.burst_probability = 0.05;
        cfg.burst_length = 8;
        cfg.burst_gap = cfg.mean_gap / 8;
        return std::make_unique<workload::StockTickerWorkload>(cfg);
    }
    workload::WwwInvalidationConfig cfg;
    cfg.pages = 2000;
    cfg.mean_gap = millis(static_cast<std::int64_t>(o.mean_gap_ms));
    // One scripted flash crowd in the middle of the horizon: 8x the edit
    // rate focused on the six hottest pages.
    workload::FlashCrowd crowd;
    crowd.at = secs(o.horizon_s * 0.4);
    crowd.duration = secs(o.horizon_s * 0.25);
    crowd.rate_multiplier = 8.0;
    crowd.focus_pages = 6;
    cfg.flash_crowds.push_back(crowd);
    return std::make_unique<workload::WwwInvalidationWorkload>(cfg);
}

enum class Mode { kBaseline, kEngineOff, kEngineOn };

struct RunResult {
    std::uint64_t trace_hash = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t sends = 0;
    std::uint64_t planned = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t nacks = 0;
    std::uint64_t slowdowns = 0;
    std::uint64_t lost_forever = 0;
    std::uint64_t superseded = 0;
    double fairness = 1.0;
    double p50_s = 0.0;
    double p99_s = 0.0;
    double elapsed_sim_s = 0.0;
    double goodput_pps = 0.0;
};

RunResult run_one(const BenchOpts& o, const std::string& kind, Mode mode,
                  const std::string& health_path = "") {
    ScenarioConfig config;
    config.topology.sites = o.sites;
    config.topology.receivers_per_site = o.receivers;
    config.sim.tree_cache_capacity = 64;
    config.observer = std::make_shared<CountingObserver>();
    config.dormant_receivers = true;
    if (mode == Mode::kEngineOn) {
        config.flow_control.enabled = true;
        config.flow_control.initial_backoff = millis(100);
        config.flow_control.backoff_jitter = 0.25;
    }
    DisScenario scenario{config};
    auto& counting = static_cast<CountingObserver&>(scenario.observer());
    Network& net = scenario.network();
    const DisTopology& topo = scenario.topology();

    Fnv1a trace;
    if (o.trace_hash) hash_trace(net, trace);

    // Anchor phase: one loss-free warm-up update so every receiver sees
    // seq 1 and pins its contiguity anchor before congestion starts.
    // Receivers are late-join tolerant by design -- a receiver whose first
    // observed packet is seq N treats earlier history as pre-join -- so
    // without the anchor a site losing the very first packet would
    // (correctly, but unhelpfully for this A/B) never count it missing.
    //
    // The warm-up also waits for the first statistical-ACK epoch: until
    // group-size probing finishes and an acker epoch goes active, data
    // packets get no ACK accounting and hence no loss/clean signals -- the
    // AIMD governor would be flying blind.  Polling a counter does not
    // perturb the sim, and the warm-up is identical in all three modes, so
    // the baseline/off trace identity is unaffected.
    scenario.start();
    scenario.send_update(std::size_t{64});
    scenario.run_for(millis(300));
    for (int i = 0; i < 100 && scenario.metrics().value("proto.stat_ack.epochs_opened") == 0;
         ++i)
        scenario.run_for(millis(100));
    scenario.run_for(millis(500));  // let the epoch's acker window close
    for (const auto& site : topo.sites)
        net.set_loss(topo.backbone, site.router, std::make_unique<BernoulliLoss>(o.loss));

    RunResult r;
    const Duration start_delay = millis(100);
    workload::EngineConfig ecfg;
    ecfg.governed = mode == Mode::kEngineOn;
    ecfg.start_delay = start_delay;
    ecfg.horizon = secs(o.horizon_s);
    ecfg.seed = o.seed;
    workload::WorkloadEngine engine(scenario, ecfg);

    if (mode == Mode::kBaseline) {
        // No engine wired: replay the identical plan by hand -- the same
        // rng derivation, the same schedule_update calls in the same order.
        for (std::uint32_t i = 0; i < o.streams; ++i) {
            Rng rng = workload::WorkloadEngine::stream_rng(o.seed, i);
            auto w = make_stream(kind, o);
            const auto items =
                workload::WorkloadEngine::plan_stream(*w, rng, secs(o.horizon_s));
            TimePoint at = scenario.simulator().now() + start_delay;
            for (const auto& item : items) {
                at += item.gap;
                scenario.schedule_update(at, w->render(item));
            }
            r.planned += items.size();
        }
    } else {
        for (std::uint32_t i = 0; i < o.streams; ++i)
            engine.add_stream(make_stream(kind, o));
        engine.start();
        for (const auto& s : engine.streams()) r.planned += s.planned;
    }

    scenario.start_sampling(millis(static_cast<std::int64_t>(o.interval_ms)));
    if (mode != Mode::kBaseline) engine.add_sampler_series();

    // Active phase: open-loop plans finish inside the horizon; the governed
    // run defers, so poll until every planned send fired (capped).
    if (mode == Mode::kEngineOn) {
        const Duration cap = secs(o.horizon_s * 50.0 + 60.0);
        while (engine.sends() < r.planned &&
               scenario.simulator().now().time_since_epoch() < cap)
            scenario.run_for(millis(100));
    } else {
        scenario.run_for(start_delay + secs(o.horizon_s) + millis(200));
    }

    // Settle: receiver reliability means every subscribed receiver
    // eventually holds every update.  Extend in 1 s steps if recovery is
    // still draining.
    scenario.run_for(secs(o.settle_s));
    const std::uint64_t receivers_total =
        static_cast<std::uint64_t>(o.sites) * o.receivers;
    r.sends = counting.sends() - 1;  // exclude the warm-up anchor send
    const std::uint64_t expected = (r.sends + 1) * receivers_total;
    for (int i = 0; i < 30 && counting.deliveries() < expected; ++i)
        scenario.run_for(secs(1.0));

    r.deliveries = counting.deliveries();
    r.lost_forever = expected - r.deliveries;
    r.elapsed_sim_s = to_seconds(scenario.simulator().now());
    r.goodput_pps = r.elapsed_sim_s > 0 ? static_cast<double>(r.deliveries) / r.elapsed_sim_s
                                        : 0.0;
    r.nacks = scenario.metrics().value("host.send.NACK");
    r.slowdowns = scenario.metrics().value("proto.sender.flow.slowdowns");
    r.trace_hash = trace.h;
    if (mode != Mode::kBaseline) {
        r.deferrals = engine.deferrals();
        r.fairness = engine.fairness_jain();
        r.p50_s = engine.staleness_quantile(0.5);
        r.p99_s = engine.staleness_quantile(0.99);
        r.superseded = engine.superseded_deliveries();
        if (r.sends != engine.sends()) {
            std::printf("ERROR: engine recorded %llu sends, observer saw %llu\n",
                        static_cast<unsigned long long>(engine.sends()),
                        static_cast<unsigned long long>(r.sends));
            std::exit(1);
        }
    }
    if (!health_path.empty() && !scenario.sampler().write_json(health_path)) {
        std::printf("ERROR: could not write %s\n", health_path.c_str());
        std::exit(1);
    }
    return r;
}

int run_gate(BenchOpts o) {
    o.trace_hash = true;
    int rc = 0;
    for (const std::string kind : {"ticker", "www"}) {
        const RunResult base = run_one(o, kind, Mode::kBaseline);
        const RunResult off = run_one(o, kind, Mode::kEngineOff);
        const RunResult on = run_one(o, kind, Mode::kEngineOn);
        const bool identical =
            base.trace_hash == off.trace_hash && base.deliveries == off.deliveries;
        std::printf("%-6s no-engine %016llx  governor-off %016llx  %s\n",
                    kind.c_str(),
                    static_cast<unsigned long long>(base.trace_hash),
                    static_cast<unsigned long long>(off.trace_hash),
                    identical ? "IDENTICAL" : "MISMATCH");
        if (!identical) rc = 1;
        for (const auto* r : {&base, &off, &on})
            if (r->lost_forever != 0) {
                std::printf("%-6s lost_forever=%llu (receiver reliability violated)\n",
                            kind.c_str(),
                            static_cast<unsigned long long>(r->lost_forever));
                rc = 1;
            }
        std::printf("%-6s governor-on: %llu sends, %llu deferrals, %llu slowdowns, "
                    "lost_forever=%llu\n",
                    kind.c_str(), static_cast<unsigned long long>(on.sends),
                    static_cast<unsigned long long>(on.deferrals),
                    static_cast<unsigned long long>(on.slowdowns),
                    static_cast<unsigned long long>(on.lost_forever));
    }
    std::printf(rc == 0 ? "workload gate: OK\n" : "workload gate: FAILED\n");
    return rc;
}

}  // namespace

int main(int argc, char** argv) {
    BenchOpts o;
    std::string json_path = "BENCH_simcore.json";
    std::string health_path = "BENCH_workloads_health.json";
    std::string timestamp = "unspecified";
    bool gate = false;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--sites") == 0)
            o.sites = static_cast<std::size_t>(std::atoll(next("--sites")));
        else if (std::strcmp(argv[i], "--receivers") == 0)
            o.receivers = static_cast<std::size_t>(std::atoll(next("--receivers")));
        else if (std::strcmp(argv[i], "--streams") == 0)
            o.streams = static_cast<std::uint32_t>(std::atoi(next("--streams")));
        else if (std::strcmp(argv[i], "--horizon-s") == 0)
            o.horizon_s = std::atof(next("--horizon-s"));
        else if (std::strcmp(argv[i], "--mean-gap-ms") == 0)
            o.mean_gap_ms = static_cast<std::uint64_t>(std::atoll(next("--mean-gap-ms")));
        else if (std::strcmp(argv[i], "--loss") == 0)
            o.loss = std::atof(next("--loss"));
        else if (std::strcmp(argv[i], "--seed") == 0)
            o.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
        else if (std::strcmp(argv[i], "--settle-s") == 0)
            o.settle_s = std::atof(next("--settle-s"));
        else if (std::strcmp(argv[i], "--interval-ms") == 0)
            o.interval_ms = static_cast<std::uint64_t>(std::atoll(next("--interval-ms")));
        else if (std::strcmp(argv[i], "--json") == 0) json_path = next("--json");
        else if (std::strcmp(argv[i], "--health-json") == 0)
            health_path = next("--health-json");
        else if (std::strcmp(argv[i], "--timestamp") == 0) timestamp = next("--timestamp");
        else if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    }

    if (gate) return run_gate(o);

    const std::uint64_t receivers_total =
        static_cast<std::uint64_t>(o.sites) * o.receivers;
    title("Closed-loop workloads: " + fmt_int(o.sites) + " sites x " +
          fmt_int(o.receivers) + " receivers (" + fmt_int(receivers_total) +
          " total), " + fmt_int(o.streams) + " streams, " +
          fmt(o.loss * 100.0, 1) + "% site-feed loss");

    std::vector<JsonMetric> rows;
    const std::string run_cfg = "receivers=" + std::to_string(receivers_total);
    int rc = 0;
    for (const std::string kind : {"ticker", "www"}) {
        Table table({"governor", "sends", "deferrals", "goodput_pps", "p50_stale_ms",
                     "p99_stale_ms", "fairness", "nack/send", "lost"});
        for (const Mode mode : {Mode::kEngineOff, Mode::kEngineOn}) {
            const bool on = mode == Mode::kEngineOn;
            const std::string health =
                on && kind == "ticker" ? health_path : std::string();
            const RunResult r = run_one(o, kind, mode, health);
            const double nack_per_send =
                r.sends > 0 ? static_cast<double>(r.nacks) / static_cast<double>(r.sends)
                            : 0.0;
            table.row({on ? "on" : "off", fmt_int(r.sends), fmt_int(r.deferrals),
                       fmt(r.goodput_pps, 0), fmt(r.p50_s * 1e3, 2),
                       fmt(r.p99_s * 1e3, 2), fmt(r.fairness, 4),
                       fmt(nack_per_send, 2), fmt_int(r.lost_forever)});
            if (r.lost_forever != 0) rc = 1;
            const std::string cfg =
                std::string("governor=") + (on ? "on" : "off") + "," + run_cfg;
            const std::string name = "workload_" + kind;
            rows.push_back({name, "goodput_delivered_pps", r.goodput_pps, timestamp, cfg});
            rows.push_back({name, "staleness_p50_s", r.p50_s, timestamp, cfg});
            rows.push_back({name, "staleness_p99_s", r.p99_s, timestamp, cfg});
            rows.push_back({name, "fairness_jain", r.fairness, timestamp, cfg});
            rows.push_back({name, "nack_per_send", nack_per_send, timestamp, cfg});
            rows.push_back({name, "sends", static_cast<double>(r.sends), timestamp, cfg});
            rows.push_back({name, "deferrals", static_cast<double>(r.deferrals),
                            timestamp, cfg});
            rows.push_back({name, "superseded_deliveries",
                            static_cast<double>(r.superseded), timestamp, cfg});
            rows.push_back({name, "lost_forever", static_cast<double>(r.lost_forever),
                            timestamp, cfg});
        }
        note("");
    }
    if (rc != 0) {
        note("ERROR: lost_forever != 0 -- receiver reliability violated");
        return rc;
    }
    write_bench_json(json_path, rows);
    note("JSON written to " + json_path + "; health series to " + health_path);
    for (const auto& m : rows) note(json_metric_line(m));
    return 0;
}
