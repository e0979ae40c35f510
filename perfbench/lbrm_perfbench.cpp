// The repo benchmark: four LBRM workloads driven end to end through the
// public API, with per-layer numbers measured from outside the program.
//
//   lossy_20x50       20 sites x 50 eager receivers, 2% Bernoulli feed loss,
//                     200-byte updates every 20 ms.
//   churn_20x50       the same plus 2 replicas and a seeded fault schedule
//                     (failover, site blackouts, crash-on-receive) that
//                     repeats through the run.
//   ticker_1e5        1,000 sites x 100 dormant receivers, the ungoverned
//                     stock-ticker WorkloadEngine (4 Zipf streams), 0.1%
//                     feed loss.
//   ticker_1e5_2proc  the ticker_1e5 traffic through run_sharded_processes
//                     with 2 shards.
//
// Every workload sends one loss-free anchor update before its loss turns on,
// so a receiver never mistakes a lost seq 1 for pre-join history.  A run
// repeats the fixed-size workload (same seed, same inputs) until --seconds of
// wall time have passed and reports medians over the repetitions; sim-time
// metrics must be bit-identical across repetitions.  setup_s, deliveries_per_s
// and events_per_s are taken on the repetition's CPU clock (single-threaded,
// so equal to wall time on an idle core) and scaled to a nominal host speed
// measured with bench-owned reference work between repetitions (HostSpeed);
// the unscaled and wall-clock figures are printed beside them.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
// one traced repetition and prints the per-layer metrics: registry counters,
// trace spans (obs::TraceRecorder), wall time around public calls, and
// replays of one sampled site's recorded per-node inputs through the
// sans-IO cores, ProtocolHost, LossDetector, the packet codec and a
// hostless Network.  --check additionally compares the sharded digest with
// run_unsharded.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every correctness check passed.
//
// Usage:
//   lbrm_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--check]
//   lbrm_perfbench --describe
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/loss_detector.hpp"
#include "obs/episode.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "packet/packet.hpp"
#include "runtime/protocol_host.hpp"
#include "sim/chaos.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/topology.hpp"
#include "workload/engine.hpp"
#include "workload/stock_ticker.hpp"

#ifndef LBRM_BENCH_BUILD_TYPE
#define LBRM_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// CPU time of the calling process (user + system), in seconds.
double cpu_now() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
std::uint64_t ns_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Nearest-rank quantile of an unsorted sample (sorted in place).
template <typename T>
double quantile(std::vector<T>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}
double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double peak_rss_mb(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- workloads ---------------------------------------------------------------

/// The anchor phase: the loss-free anchor update is sent at t=0 (+1 ms for
/// pre-scheduled runs) and loss turns on here, long after it has reached
/// every receiver.
constexpr Duration kLossOn = millis(300);

struct Spec {
    std::string name;
    std::uint32_t sites = 20;
    std::uint32_t receivers = 50;
    std::uint32_t replicas = 1;
    double loss = 0.02;
    bool dormant = false;
    bool churn = false;
    bool ticker = false;
    std::uint32_t shards = 0;  ///< 0 = single process
    // Fixed-cadence traffic (lossy/churn).
    std::uint32_t updates = 300;
    Duration gap = millis(20);
    std::size_t bytes = 200;
    // Ticker traffic.
    Duration ticker_horizon = millis(400);
    Duration ticker_mean_gap = millis(80);
    /// Sim time after the last planned send for recovery to finish.
    Duration drain = secs(3.0);
    /// Sampled site for the per-node replays (kept out of every fault).
    std::size_t sampled_site = 1;
    /// Sub-seeds one end-to-end run cycles through; the sim-time metrics
    /// pool them.  Feed losses strike a whole site at once, so one lossy
    /// 300-update repetition holds only ~120 independent loss events and
    /// its p99 flips between the one-retry and no-retry modes from draw to
    /// draw; pooled, the tail is a property of the workload.
    std::uint32_t subseeds = 1;
    /// How strongly the workload's speed follows HostSpeed::factor(): the
    /// slope of log(rate) against log(factor) across runs on a shared 4-vCPU
    /// KVM guest.  The small-fan-out workloads live in cache and lose more to
    /// a busy neighbour than the reference work does (slope 1.5-1.8); the
    /// ticker workloads follow it one to one (1.0-1.25).
    double host_elasticity = 1.0;
};

std::optional<Spec> spec_for(const std::string& name) {
    Spec s;
    s.name = name;
    if (name == "lossy_20x50") {
        s.subseeds = 32;
        s.host_elasticity = 1.5;
        return s;
    }
    if (name == "churn_20x50") {
        s.subseeds = 16;
        s.host_elasticity = 1.5;
        s.replicas = 2;
        s.churn = true;
        s.drain = secs(8.0);
        return s;
    }
    if (name == "ticker_1e5" || name == "ticker_1e5_2proc") {
        s.sites = 1000;
        s.receivers = 100;
        s.loss = 0.001;
        s.dormant = true;
        s.ticker = true;
        s.subseeds = 2;
        s.shards = name == "ticker_1e5_2proc" ? 2 : 0;
        return s;
    }
    return std::nullopt;
}

ScenarioConfig scenario_config(const Spec& s, std::uint64_t seed) {
    ScenarioConfig config;
    config.topology.sites = s.sites;
    config.topology.receivers_per_site = s.receivers;
    config.topology.replicas = s.replicas;
    config.sim.tree_cache_capacity = 64;
    config.dormant_receivers = s.dormant;
    config.seed = seed;
    // Loggers re-multicast a repair once this many requests for one packet
    // arrive.  The default 3 suits 20 sites; at 1,000 sites three coincident
    // site losses would re-multicast to all 10^5 receivers, a rare event
    // that moves ctrl_pkts_per_delivery by a quarter from seed to seed.
    // Scale it with the site count, as a deployment of that size would.
    config.remulticast_request_threshold = std::max(3u, s.sites / 10);
    // Ticker runs always use the shard-invariant ordering, so the 1- and
    // 2-process variants put bit-identical packets on the wire.
    if (s.ticker) config.sim.shard_ordering = true;
    return config;
}

/// Bernoulli loss that only starts at `on` (after the anchor update).
class GatedBernoulli final : public LossModel {
public:
    GatedBernoulli(double p, TimePoint on) : p_(p), on_(on) {}
    bool drop(Rng& rng, TimePoint now) override { return now >= on_ && rng.bernoulli(p_); }

private:
    double p_;
    TimePoint on_;
};

/// Replays a recorded per-link outcome sequence (1 = delivered).
class ScriptedLoss final : public LossModel {
public:
    explicit ScriptedLoss(std::vector<std::uint8_t> outcomes) : out_(std::move(outcomes)) {}
    bool drop(Rng&, TimePoint) override { return i_ < out_.size() && out_[i_++] == 0; }

private:
    std::vector<std::uint8_t> out_;
    std::size_t i_ = 0;
};

void install_feed_loss(DisScenario& sc, double p) {
    const DisTopology& topo = sc.topology();
    for (const auto& site : topo.sites)
        sc.network().set_loss(topo.backbone, site.router,
                              std::make_unique<GatedBernoulli>(p, time_zero() + kLossOn));
}

/// Churn: one failover (primary + replica 0 crash together) and, in each 2 s
/// cycle of the traffic, a crash-on-receive plus -- in every cycle after the
/// failover's -- a 250 ms site blackout.  Kept apart, each fault class shows
/// its own recovery path; a blackout on top of the failover turns the
/// control-traffic count into a storm whose size depends on the loss draws.
/// The schedule draws from its own fixed seed, so --seed varies only the
/// loss draws; faults hit sites >= 2 only, so the sampled site 1 stays
/// fault-free.
constexpr std::uint64_t kChurnScheduleSeed = 0xc4a05c4a05ull;

ChaosSchedule churn_schedule(const DisScenario& sc, const Spec& s) {
    Rng rng{kChurnScheduleSeed};
    ChaosSchedule sched;
    sched.events.push_back(PrimaryCrash{millis(500), millis(1500)});
    sched.events.push_back(ReplicaCrash{0, millis(500), millis(2000)});
    const std::uint32_t per_cycle = static_cast<std::uint32_t>(secs(2.0) / s.gap);
    const std::uint32_t cycles = std::max<std::uint32_t>(1, s.updates / per_cycle);
    for (std::uint32_t c = 0; c < cycles; ++c) {
        const Duration base = secs(2.0 * c);
        const auto site = static_cast<std::size_t>(rng.uniform_int(2, s.sites - 1));
        if (c > 0) sched.events.push_back(SiteBlackout{site, base + millis(1000), millis(250)});
        const auto& victims =
            sc.topology().sites[static_cast<std::size_t>(rng.uniform_int(2, s.sites - 1))];
        const NodeId node = victims.receivers[rng.uniform_int(0, s.receivers - 1)];
        const auto seq =
            static_cast<std::uint32_t>(2 + c * per_cycle + rng.uniform_int(0, per_cycle / 2));
        sched.events.push_back(CrashOnReceive{node, SeqNum{seq}, millis(400)});
    }
    return sched;
}

std::unique_ptr<workload::Workload> ticker_stream(const Spec& s) {
    workload::StockTickerConfig cfg;
    cfg.symbols = 500;
    cfg.mean_gap = s.ticker_mean_gap;
    cfg.burst_probability = 0.05;
    cfg.burst_length = 8;
    cfg.burst_gap = cfg.mean_gap / 8;
    return std::make_unique<workload::StockTickerWorkload>(cfg);
}

/// The ticker plan's seed.  The plan's length and burstiness set how many
/// heartbeats fall between updates, so a plan drawn from --seed would move
/// ctrl_pkts_per_delivery, throughput and memory by the draw rather than by
/// the code; --seed varies the loss draws instead.
constexpr std::uint64_t kTickerPlanSeed = 7;

/// Ticker set-up shared by the single-process and sharded paths: feed loss,
/// the pre-scheduled anchor, and the ungoverned 4-stream engine (owned by
/// the scenario).  Returns the engine's plan wall time.
double prepare_ticker(DisScenario& sc, const Spec& s) {
    install_feed_loss(sc, s.loss);
    sc.schedule_update(time_zero() + millis(1), std::size_t{64});
    workload::EngineConfig ecfg;
    ecfg.start_delay = kLossOn;
    ecfg.horizon = s.ticker_horizon;
    ecfg.seed = kTickerPlanSeed;
    auto engine = std::make_shared<workload::WorkloadEngine>(sc, ecfg);
    for (int i = 0; i < 4; ++i) engine->add_stream(ticker_stream(s));
    const auto t0 = Clock::now();
    engine->start();
    const double plan_s = since(t0);
    sc.retain(engine);
    return plan_s;
}

TimePoint ticker_end(const Spec& s) { return time_zero() + kLossOn + s.ticker_horizon + s.drain; }

// --- observation --------------------------------------------------------------

/// Constant-memory observer writing per-node delivery counts into a caller
/// buffer (shared memory in the sharded workload).  Optionally timed.
class PerfObserver final : public ScenarioObserver {
public:
    PerfObserver(std::uint32_t* counts, std::size_t nodes, bool timed)
        : counts_(counts), nodes_(nodes), timed_(timed) {}

    void on_delivery(TimePoint, NodeId node, const DeliverData&) override {
        if (!timed_) {
            count(node);
            return;
        }
        const auto t0 = Clock::now();
        count(node);
        ns_ += ns_since(t0);
    }
    void on_notice(TimePoint, NodeId, const Notice&) override {}
    void on_send(TimePoint, SeqNum) override { ++sends_; }
    void clear() override {}

    [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
    [[nodiscard]] std::uint64_t sends() const { return sends_; }
    [[nodiscard]] std::uint64_t timed_ns() const { return ns_; }

private:
    void count(NodeId node) {
        const std::size_t i = node.value() - 1;
        if (i < nodes_) ++counts_[i];
        ++deliveries_;
    }

    std::uint32_t* counts_;
    std::size_t nodes_;
    bool timed_;
    std::uint64_t deliveries_ = 0, sends_ = 0, ns_ = 0;
};

/// Anonymous shared mapping: inherited by forked shard children, so they
/// can hand per-node counts back to the coordinator.
template <typename T>
class SharedArray {
public:
    explicit SharedArray(std::size_t n) : n_(n) {
        void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
        p_ = static_cast<T*>(p);
    }
    ~SharedArray() { ::munmap(p_, bytes()); }
    SharedArray(const SharedArray&) = delete;
    SharedArray& operator=(const SharedArray&) = delete;
    [[nodiscard]] T* data() { return p_; }
    T& operator[](std::size_t i) { return p_[i]; }

private:
    [[nodiscard]] std::size_t bytes() const { return std::max<std::size_t>(1, n_) * sizeof(T); }
    std::size_t n_;
    T* p_;
};

/// Per-node counter slots: the topology's nodes with headroom (the
/// scenario may add nodes beyond dis_topology_size's estimate).
std::size_t node_slots(const Spec& s, std::uint64_t seed) {
    return 2 * dis_topology_size(scenario_config(s, seed).topology).nodes + 64;
}

// --- trace capture (per-layer runs only) ---------------------------------------

struct Input {
    TimePoint at;
    Packet packet;
};
struct CorpusRec {
    TimePoint at;
    NodeId from, to;
    bool delivered;
    Packet packet;
};

struct TraceCapture {
    std::unordered_set<std::uint32_t> sampled;  ///< sampled site receivers + secondary
    std::unordered_map<std::uint32_t, std::vector<Input>> inputs;
    std::unordered_map<const Link*, TimePoint> busy;  ///< mirrored link horizons
    std::vector<CorpusRec> corpus;
    std::uint64_t tapped = 0;
    std::vector<Input> source_mcasts;
    std::map<std::uint32_t, std::vector<std::uint8_t>> feed_outcomes;  ///< by router
    std::vector<std::uint32_t> step_ns;
    double observer_ns = 0.0;
};
constexpr std::size_t kCorpusMax = 200'000;
constexpr std::uint64_t kCorpusStride = 7;

bool source_stream(const Packet& p, NodeId source) {
    const PacketType t = p.type();
    return (t == PacketType::kData || t == PacketType::kHeartbeat) && p.header.sender == source;
}

void install_capture_tap(DisScenario& sc, TraceCapture& tc) {
    const DisTopology& topo = sc.topology();
    const NodeId source = topo.source, backbone = topo.backbone;
    sc.network().set_tap([&tc, source, backbone](TimePoint at, const Link& l, const Packet& p,
                                                 bool delivered) {
        ++tc.tapped;
        if (tc.corpus.size() < kCorpusMax && tc.tapped % kCorpusStride == 0)
            tc.corpus.push_back({at, l.from(), l.to(), delivered, p});
        if (l.from() == source && source_stream(p, source)) tc.source_mcasts.push_back({at, p});
        if (l.from() == backbone && source_stream(p, source))
            tc.feed_outcomes[l.to().value()].push_back(delivered ? 1 : 0);
        if (tc.sampled.count(l.to().value()) != 0) {
            // Mirror Link::transmit's FIFO horizon to recover arrival times.
            const LinkSpec& spec = l.spec();
            TimePoint& busy = tc.busy[&l];
            TimePoint depart = at;
            if (spec.bandwidth_bps > 0.0) {
                const TimePoint start = busy > at ? busy : at;
                depart = start + secs(static_cast<double>(encoded_size(p)) * 8.0 /
                                      spec.bandwidth_bps);
                busy = depart;
            }
            if (delivered) tc.inputs[l.to().value()].push_back({depart + spec.propagation, p});
        }
    });
}

/// Advance to `deadline`: run_until when untraced; a step-driven loop timing
/// every Simulator::step() when traced.
void advance(DisScenario& sc, TimePoint deadline, TraceCapture* tc) {
    if (tc == nullptr) {
        sc.run_until(deadline);
        return;
    }
    Simulator& sim = sc.simulator();
    if (sim.now() >= deadline) return;
    bool hit = false;
    sim.schedule_at(deadline, [&hit] { hit = true; });
    while (!hit) {
        const auto t0 = Clock::now();
        if (!sim.step()) break;
        tc->step_ns.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(ns_since(t0), UINT32_MAX)));
    }
}

// --- one repetition --------------------------------------------------------------

struct Rep {
    double setup_s = 0, traffic_s = 0, plan_s = 0;
    /// CPU seconds of set-up and traffic: of the process (single), or wall
    /// set-up and the busiest shard's traffic CPU (sharded).
    double setup_cpu_s = 0, traffic_cpu_s = 0;
    std::uint64_t sends = 0;  ///< including the anchor
    std::uint64_t receivers = 0;
    std::uint64_t expected = 0, delivered = 0;
    std::uint64_t events = 0, scheduled = 0, peak_pending = 0;
    std::uint64_t link_packets = 0, data_link_packets = 0;
    std::vector<double> latencies_ms;  ///< repaired recovery episodes
    std::uint64_t records_dropped = 0;
    bool balanced = true;
    bool per_node_ok = true;
    double rss_mb = 0;
    std::map<std::string, double> counters;  ///< registry snapshot (traced runs)
    // Sharded only.
    std::optional<ShardResult> shard;
    std::uint64_t digest_sum = 0, digest_packets = 0;
};

void fill_episodes(Rep& r, const std::vector<obs::EpisodeTracker::Record>& recs) {
    for (const auto& rec : recs)
        if (rec.kind == obs::EpisodeTracker::Kind::kRecovery &&
            rec.reason == obs::EpisodeTracker::Reason::kRepaired)
            r.latencies_ms.push_back((rec.closed_s - rec.opened_s) * 1e3);
}

void check_nodes(Rep& r, const DisTopology& topo, const std::uint32_t* counts) {
    for (const auto& site : topo.sites)
        for (const NodeId n : site.receivers) {
            ++r.receivers;
            if (counts[n.value() - 1] != r.sends) {
                if (r.per_node_ok)
                    std::fprintf(stderr, "node %u delivered %u of %llu sends\n", n.value(),
                                 counts[n.value() - 1], static_cast<unsigned long long>(r.sends));
                r.per_node_ok = false;
            }
        }
}


Rep run_single(const Spec& s, std::uint64_t seed, TraceCapture* tc,
               std::unique_ptr<DisScenario>* keep = nullptr) {
    Rep r;
    const std::size_t nodes = node_slots(s, seed);
    auto counts = std::make_shared<std::vector<std::uint32_t>>(nodes, 0);
    auto observer = std::make_shared<PerfObserver>(counts->data(), nodes, tc != nullptr);
    ScenarioConfig config = scenario_config(s, seed);
    config.observer = observer;

    const auto w0 = Clock::now();
    const double c0 = cpu_now();
    auto sc = std::make_unique<DisScenario>(config);
    sc->retain(counts);
    if (sc->network().node_count() > nodes) throw std::runtime_error("node count above slots");
    if (tc != nullptr) {
        const auto& site = sc->topology().sites[s.sampled_site];
        for (const NodeId n : site.receivers) tc->sampled.insert(n.value());
        tc->sampled.insert(site.secondary.value());
        install_capture_tap(*sc, *tc);
    }
    std::unique_ptr<ChaosEngine> chaos;
    if (s.ticker) {
        r.plan_s = prepare_ticker(*sc, s);
        sc->start();
    } else {
        install_feed_loss(*sc, s.loss);
        if (s.churn) chaos = std::make_unique<ChaosEngine>(*sc, churn_schedule(*sc, s));
        sc->start();
        sc->send_update(std::size_t{64});  // the anchor
    }
    advance(*sc, time_zero() + kLossOn, tc);
    r.setup_s = since(w0);
    const double c1 = cpu_now();
    r.setup_cpu_s = c1 - c0;

    const auto w1 = Clock::now();
    if (s.ticker) {
        advance(*sc, ticker_end(s), tc);
    } else {
        if (chaos) chaos->arm();
        for (std::uint32_t i = 0; i < s.updates; ++i) {
            sc->send_update(s.bytes);
            advance(*sc, sc->simulator().now() + s.gap, tc);
        }
        advance(*sc, sc->simulator().now() + s.drain, tc);
        // Deterministic tail extension while recovery is still draining.
        const std::uint64_t receivers = std::uint64_t{s.sites} * s.receivers;
        for (int i = 0; i < 20 && observer->deliveries() < observer->sends() * receivers; ++i)
            advance(*sc, sc->simulator().now() + secs(1.0), tc);
    }
    r.traffic_s = since(w1);
    r.traffic_cpu_s = cpu_now() - c1;

    Network& net = sc->network();
    obs::Metrics& m = sc->metrics();
    r.sends = observer->sends();
    check_nodes(r, sc->topology(), counts->data());
    r.expected = r.sends * r.receivers;
    r.delivered = observer->deliveries();
    r.events = sc->simulator().events_processed();
    r.scheduled = sc->simulator().events_scheduled();
    r.peak_pending = sc->simulator().slab_slots();
    r.link_packets = m.value("sim.link_packets");
    r.data_link_packets = net.count_packets(PacketType::kData, nullptr);
    const obs::EpisodeTracker& ep = m.episodes();
    fill_episodes(r, ep.records());
    r.records_dropped = ep.records_dropped();
    r.balanced = ep.balanced() && ep.open_count() == 0 && ep.fetch_open_count() == 0;
    r.rss_mb = peak_rss_mb(RUSAGE_SELF);
    if (tc != nullptr) {
        for (const auto& row : m.snapshot()) r.counters[row.name] = static_cast<double>(row.value);
        tc->observer_ns = static_cast<double>(observer->timed_ns());
        if (keep != nullptr) *keep = std::move(sc);
    }
    return r;
}

/// Per-shard data the children hand back through shared memory.
struct ShardShared {
    std::uint64_t data_link_packets[8];
    std::uint64_t sends[8];
};

ShardRunConfig shard_config(const Spec& s, std::uint64_t seed, std::uint32_t* counts,
                            std::size_t nodes, ShardShared* shared) {
    ShardRunConfig cfg;
    cfg.scenario = scenario_config(s, seed);
    cfg.shards = s.shards;
    cfg.run_for = ticker_end(s) - time_zero();
    cfg.make_observer = [counts, nodes](std::uint32_t) -> std::shared_ptr<ScenarioObserver> {
        return std::make_shared<PerfObserver>(counts, nodes, false);
    };
    cfg.setup = [s, shared](DisScenario& sc, std::uint32_t shard) {
        prepare_ticker(sc, s);
        // Read back per-shard link and send tallies just before the end.
        DisScenario* p = &sc;
        sc.simulator().schedule_at(ticker_end(s) - micros(1), [p, shard, shared] {
            shared->data_link_packets[shard] =
                p->network().count_packets(PacketType::kData, nullptr);
            shared->sends[shard] = static_cast<PerfObserver&>(p->observer()).sends();
        });
    };
    return cfg;
}

Rep run_sharded(const Spec& s, std::uint64_t seed, bool collect_trace) {
    Rep r;
    const std::size_t nodes = node_slots(s, seed);
    SharedArray<std::uint32_t> counts(nodes);
    SharedArray<ShardShared> shared(1);
    std::memset(counts.data(), 0, nodes * sizeof(std::uint32_t));
    std::memset(shared.data(), 0, sizeof(ShardShared));
    ShardRunConfig cfg = shard_config(s, seed, counts.data(), nodes, shared.data());
    cfg.collect_trace = collect_trace;

    const auto w0 = Clock::now();
    ShardResult res = run_sharded_processes(cfg);
    const double total = since(w0);
    r.traffic_s = res.wall_seconds;
    r.setup_s = total - res.wall_seconds;
    r.setup_cpu_s = r.setup_s;
    r.traffic_cpu_s = res.cpu_seconds_max_shard;

    // The topology (not the hosts) is needed to enumerate receivers.
    Simulator tsim;
    Network tnet(tsim, seed);
    const DisTopology topo = make_dis_topology(tnet, cfg.scenario.topology);
    for (std::uint32_t i = 0; i < s.shards; ++i) {
        r.sends += shared[0].sends[i];
        r.data_link_packets += shared[0].data_link_packets[i];
    }
    check_nodes(r, topo, counts.data());
    r.expected = r.sends * r.receivers;
    for (const auto& site : topo.sites)
        for (const NodeId n : site.receivers) r.delivered += counts[n.value() - 1];
    auto counter = [&res](const char* name) {
        const auto it = res.counters.find(name);
        return it == res.counters.end() ? 0.0 : it->second;
    };
    r.events = static_cast<std::uint64_t>(counter("sim.events_processed"));
    r.scheduled = static_cast<std::uint64_t>(counter("sim.events_scheduled"));
    r.link_packets = static_cast<std::uint64_t>(counter("sim.link_packets"));
    r.counters = res.counters;
    for (const auto& recs : res.shard_episodes) fill_episodes(r, recs);
    r.records_dropped = static_cast<std::uint64_t>(counter("recovery.episode_records_dropped"));
    r.balanced = counter("recovery.episodes_open") == 0 && counter("recovery.fetch_open") == 0 &&
                 counter("recovery.episodes_opened") ==
                     counter("recovery.episodes_repaired") + counter("recovery.episodes_abandoned");
    r.rss_mb = peak_rss_mb(RUSAGE_SELF);
    for (const std::uint64_t kb : res.peak_rss_kb)
        r.rss_mb = std::max(r.rss_mb, static_cast<double>(kb) / 1024.0);
    r.digest_sum = res.digest.sum;
    r.digest_packets = res.digest.packets;
    r.shard = std::move(res);
    return r;
}

Rep run_rep(const Spec& s, std::uint64_t seed) {
    return s.shards > 0 ? run_sharded(s, seed, false) : run_single(s, seed, nullptr);
}

// --- end-to-end metrics ------------------------------------------------------------

struct Deterministic {
    double p50 = 0, p99 = 0, undelivered = 0, ctrl = 0;
    std::size_t samples = 0, beyond_p99 = 0;
    bool operator==(const Deterministic&) const = default;
};

/// Sim-time aggregates of one or more repetitions.
struct Pool {
    std::vector<double> latencies_ms;
    std::uint64_t expected = 0, delivered = 0, link_packets = 0, data_link_packets = 0;
    void add(const Rep& r) {
        latencies_ms.insert(latencies_ms.end(), r.latencies_ms.begin(), r.latencies_ms.end());
        expected += r.expected;
        delivered += r.delivered;
        link_packets += r.link_packets;
        data_link_packets += r.data_link_packets;
    }
};

Deterministic deterministic(Pool p) {
    Deterministic d;
    d.samples = p.latencies_ms.size();
    d.p50 = quantile(p.latencies_ms, 0.50);
    d.p99 = quantile(p.latencies_ms, 0.99);
    d.beyond_p99 = d.samples - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(d.samples)));
    d.undelivered = ratio(static_cast<double>(p.expected - std::min(p.expected, p.delivered)),
                          static_cast<double>(p.expected));
    d.ctrl = ratio(static_cast<double>(p.link_packets - p.data_link_packets),
                   static_cast<double>(p.delivered));
    return d;
}
Deterministic deterministic(const Rep& r) {
    Pool p;
    p.add(r);
    return deterministic(std::move(p));
}

std::uint64_t subseed(const Spec& s, std::uint64_t seed, std::uint32_t k) {
    return s.subseeds <= 1 ? seed : splitmix64(seed * s.subseeds + k);
}

/// Correctness of one repetition; prints every failed check to stderr.
bool rep_correct(const Spec& s, const Rep& r, const Deterministic& d) {
    bool ok = true;
    auto fail = [&](const std::string& what) {
        std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", s.name.c_str(), what.c_str());
        ok = false;
    };
    if (r.delivered != r.expected)
        fail("undelivered_frac " + std::to_string(d.undelivered) + " != 0 (" +
             std::to_string(r.delivered) + " of " + std::to_string(r.expected) + ")");
    if (!r.per_node_ok) fail("a receiver's delivery count differs from the sends");
    if (!r.balanced) fail("recovery episodes unbalanced or still open after the drain");
    if (d.samples == 0) fail("no closed recovery episodes");
    if (r.records_dropped != 0) fail("episode records dropped; percentiles would be partial");
    return ok;
}

struct JsonOut {
    std::string body;
    void add(const std::string& name, double value, const char* unit) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      body.empty() ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0,
                      unit);
        body += buf;
    }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const JsonOut& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.body.c_str());
    std::fflush(stdout);
}

/// What a repetition run in a child process hands back to the parent.
struct RepWire {
    double setup_s, setup_cpu_s, traffic_s, traffic_cpu_s, rss_mb;
    std::uint64_t sends, receivers, expected, delivered, events, link_packets,
        data_link_packets, records_dropped, latencies;
    bool balanced, per_node_ok, ok;
};
constexpr std::size_t kMaxLatencies = 1u << 20;

/// One repetition in a freshly forked child.  Every repetition then starts
/// from the same small heap, so neither its wall time nor its peak RSS
/// depends on what earlier repetitions left behind.
class IsolatedRunner {
public:
    IsolatedRunner() : wire_(1), lat_(kMaxLatencies) {}

    Rep run(const Spec& s, std::uint64_t seed) {
        wire_[0] = RepWire{};
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0) throw std::runtime_error("fork failed");
        if (pid == 0) {
            try {
                const Rep r = run_rep(s, seed);
                RepWire& w = wire_[0];
                w = RepWire{r.setup_s, r.setup_cpu_s, r.traffic_s, r.traffic_cpu_s, r.rss_mb,
                            r.sends, r.receivers, r.expected, r.delivered, r.events,
                            r.link_packets, r.data_link_packets, r.records_dropped,
                            std::min(r.latencies_ms.size(), kMaxLatencies), r.balanced,
                            r.per_node_ok, true};
                std::copy_n(r.latencies_ms.begin(), w.latencies, lat_.data());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "benchmark error: %s\n", e.what());
                std::fflush(stderr);
                ::_exit(1);
            }
            ::_exit(0);
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
        const RepWire& w = wire_[0];
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !w.ok)
            throw std::runtime_error("repetition failed in its child process");
        Rep r;
        r.setup_s = w.setup_s;
        r.traffic_s = w.traffic_s;
        r.traffic_cpu_s = w.traffic_cpu_s;
        r.setup_cpu_s = w.setup_cpu_s;
        r.rss_mb = w.rss_mb;
        r.sends = w.sends;
        r.receivers = w.receivers;
        r.expected = w.expected;
        r.delivered = w.delivered;
        r.events = w.events;
        r.link_packets = w.link_packets;
        r.data_link_packets = w.data_link_packets;
        r.records_dropped = w.records_dropped;
        r.balanced = w.balanced;
        r.per_node_ok = w.per_node_ok;
        r.latencies_ms.assign(lat_.data(), lat_.data() + w.latencies);
        return r;
    }

private:
    SharedArray<RepWire> wire_;
    SharedArray<double> lat_;
};

/// How fast the shared host lets this process run right now, measured with
/// bench-owned reference work in a freshly forked child after every
/// repetition.  The kernels mirror the simulator's kinds of work: a dependent
/// walk over a cache-sized (1 MB) and a memory-sized (32 MB) working set, a
/// binary event heap beside a hash map, and small-allocation churn.  On a
/// shared host all four slow down together with the program (neighbours
/// take cache, memory bandwidth and core clock), so the timed metrics are
/// scaled by factor() raised to the workload's host_elasticity, where
/// factor() is the geometric mean of each kernel's median time over its
/// nominal time.  The kernels are fixed here, so a change to the program
/// moves the metrics and never the factor.
class HostSpeed {
public:
    HostSpeed() : wire_(1) {}

    void sample() {
        wire_[0] = Sample{};
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0) throw std::runtime_error("fork failed");
        if (pid == 0) {
            Sample& w = wire_[0];
            w.ns[0] = walk_ns(1u << 18, 1 << 17);
            w.ns[1] = walk_ns(1u << 23, 1 << 16);
            w.ns[2] = heap_map_ns();
            w.ns[3] = alloc_ns();
            w.ok = true;
            ::_exit(0);
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !wire_[0].ok)
            throw std::runtime_error("host-speed sample failed in its child process");
        for (std::size_t i = 0; i < kKernels; ++i) ns_[i].push_back(wire_[0].ns[i]);
    }

    /// > 1 when the host ran slower than nominal.
    double factor() const {
        double log_sum = 0.0;
        for (std::size_t i = 0; i < kKernels; ++i) log_sum += std::log(median(ns_[i]) / kNominalNs[i]);
        return std::exp(log_sum / static_cast<double>(kKernels));
    }
    double median_ns(std::size_t i) const { return median(ns_[i]); }

    static constexpr std::size_t kKernels = 4;

private:
    /// Typical per-step times on an idle 2.0 GHz Xeon core (KVM guest).
    static constexpr double kNominalNs[kKernels] = {7.5, 141.0, 185.0, 32.0};

    struct Sample {
        double ns[kKernels];
        bool ok;
    };

    /// Dependent walk of `steps` over a full-period LCG cycle of `slots`.
    static double walk_ns(std::uint32_t slots, int steps) {
        std::vector<std::uint32_t> next(slots);
        for (std::uint32_t i = 0; i < slots; ++i) next[i] = (i * 2891336453u + 12345u) & (slots - 1);
        std::uint32_t j = 0;
        for (int i = 0; i < 4096; ++i) j = next[j];
        const double c0 = cpu_now();
        for (int i = 0; i < steps; ++i) j = next[j];
        const double c1 = cpu_now();
        sink_ = j;
        return (c1 - c0) * 1e9 / steps;
    }
    static double heap_map_ns() {
        std::vector<std::uint64_t> heap;
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
        constexpr int n = 1 << 15;
        const double c0 = cpu_now();
        for (int i = 0; i < n; ++i) {
            x = splitmix64(x);
            heap.push_back(x >> 20);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
            map[x & 0xFFFFF] += 1;
            if (heap.size() > 20000) {
                std::pop_heap(heap.begin(), heap.end(), std::greater<>());
                acc += heap.back() + map[heap.back() & 0xFFFFF];
                heap.pop_back();
            }
        }
        const double c1 = cpu_now();
        sink_ = acc;
        return (c1 - c0) * 1e9 / n;
    }
    static double alloc_ns() {
        std::vector<std::unique_ptr<char[]>> live(4096);
        std::uint64_t x = 7;
        constexpr int n = 1 << 18;
        const double c0 = cpu_now();
        for (int i = 0; i < n; ++i) {
            x = splitmix64(x);
            auto& slot = live[x & 4095];
            slot.reset(new char[32 + (x >> 58) * 16]);
            slot[0] = static_cast<char>(x);
        }
        const double c1 = cpu_now();
        sink_ = static_cast<std::uint64_t>(live[0] ? live[0][0] : 0);
        return (c1 - c0) * 1e9 / n;
    }

    static inline volatile std::uint64_t sink_ = 0;
    SharedArray<Sample> wire_;
    std::array<std::vector<double>, kKernels> ns_;
};

/// One timed metric's samples, a list per sub-seed.  The estimate is the
/// mean over sub-seeds of each sub-seed's median: the median shrugs off the
/// repetitions a busy neighbour slowed, and the mean weighs sub-seeds whose
/// work differs equally (ticker's two draws differ by 6% in events, which
/// would make a median over all repetitions flip between them).
class PerSubSeed {
public:
    explicit PerSubSeed(std::size_t subseeds) : v_(subseeds) {}
    void add(std::size_t k, double x) { v_[k].push_back(x); }
    double estimate() const {
        double sum = 0.0;
        for (const auto& v : v_) sum += median(v);
        return sum / static_cast<double>(v_.size());
    }

private:
    std::vector<std::vector<double>> v_;
};

int run_e2e(const Spec& s, std::uint64_t seed, double seconds) {
    const auto t0 = Clock::now();
    // Timed metrics use the child's CPU time, which leaves out the time the
    // hypervisor held the process off its core (steal), and are then scaled
    // by the host's speed over the same stretch of time.
    PerSubSeed setup(s.subseeds), dps(s.subseeds), eps(s.subseeds);
    PerSubSeed wall_setup(s.subseeds), wall_dps(s.subseeds);
    std::vector<double> rss;
    std::vector<Deterministic> per_sub;
    Pool pool;
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t reps = 0;
    IsolatedRunner runner;
    HostSpeed host;
    // Two whole rounds of sub-seeds at least, so every run compares each
    // sub-seed's deterministic metrics with a repeat of itself; then more
    // whole rounds until the budget is spent, unless the next repetition
    // would overrun a hard cap.
    const std::size_t min_reps = std::max<std::size_t>(3, 2 * std::size_t{s.subseeds});
    double longest = 0.0;
    while (reps < min_reps || reps % s.subseeds != 0 ||
           (since(t0) < seconds && since(t0) + longest < 150.0)) {
        const auto k = static_cast<std::uint32_t>(reps % s.subseeds);
        const auto r0 = Clock::now();
        Rep r = runner.run(s, subseed(s, seed, k));
        host.sample();
        rss.push_back(r.rss_mb);
        longest = std::max(longest, since(r0));
        const Deterministic d = deterministic(r);
        correct = rep_correct(s, r, d) && correct;
        if (reps < s.subseeds) {
            per_sub.push_back(d);
            pool.add(r);
        } else if (!(d == per_sub[k])) {
            std::fprintf(stderr, "CHECK FAILED [%s]: deterministic metrics differ across "
                                 "repetitions of the same seed\n", s.name.c_str());
            correct = false;
        }
        attempted += r.expected;
        failed += r.expected - std::min(r.expected, r.delivered);
        setup.add(k, r.setup_cpu_s);
        dps.add(k, static_cast<double>(r.delivered) / r.traffic_cpu_s);
        eps.add(k, static_cast<double>(r.events) / r.traffic_cpu_s);
        wall_setup.add(k, r.setup_s);
        wall_dps.add(k, static_cast<double>(r.delivered) / r.traffic_s);
        std::fprintf(stderr, "rep %zu sub %u: setup %.4f s (cpu %.4f), traffic %.4f s (cpu %.4f), "
                             "%llu deliveries, %llu events\n",
                     reps, k, r.setup_s, r.setup_cpu_s, r.traffic_s, r.traffic_cpu_s,
                     static_cast<unsigned long long>(r.delivered),
                     static_cast<unsigned long long>(r.events));
        ++reps;
    }
    Pool tail = pool;
    const Deterministic d = deterministic(std::move(pool));
    if (d.beyond_p99 < 10) {
        std::fprintf(stderr, "CHECK FAILED [%s]: only %zu samples beyond p99 (need >= 10)\n",
                     s.name.c_str(), d.beyond_p99);
        correct = false;
    }
    std::printf("workload %s seed %llu: %u sub-seed(s), %zu recovery samples, %zu beyond p99\n",
                s.name.c_str(), static_cast<unsigned long long>(seed), s.subseeds, d.samples,
                d.beyond_p99);
    std::printf("recovery ms quantiles:");
    for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1.0})
        std::printf(" p%g=%.1f", q * 100.0, quantile(tail.latencies_ms, q));
    std::printf("\nrepetitions: %zu in %.2f s; wall-clock setup_s %.6f, deliveries_per_s %.0f\n",
                reps, since(t0), wall_setup.estimate(), wall_dps.estimate());
    const double f = std::pow(host.factor(), s.host_elasticity);
    std::printf("host speed: factor %.4f, scale %.4f (walk 1 MB %.2f ns, walk 32 MB %.1f ns, heap+map "
                "%.1f ns, alloc %.2f ns); CPU-clock setup_s %.6f, deliveries_per_s %.0f, "
                "events_per_s %.0f before scaling\n",
                host.factor(), f, host.median_ns(0), host.median_ns(1), host.median_ns(2), host.median_ns(3),
                setup.estimate(), dps.estimate(), eps.estimate());
    JsonOut out;
    out.add("setup_s", setup.estimate() / f, "s");
    out.add("deliveries_per_s", dps.estimate() * f, "1/s");
    // The mean: some sub-seeds cross an allocator growth step and peak a
    // few MB higher, which would flip a median from run to run.
    out.add("peak_rss_mb", std::accumulate(rss.begin(), rss.end(), 0.0) /
                               static_cast<double>(rss.size()), "MB");
    out.add("recovery_p50_ms", d.p50, "ms");
    out.add("recovery_p99_ms", d.p99, "ms");
    // Reported as its complement so the metric is never 0; the checks
    // require undelivered_frac == 0.
    out.add("delivered_frac", 1.0 - d.undelivered, "ratio");
    out.add("ctrl_pkts_per_delivery", d.ctrl, "ratio");
    out.add("events_per_s", eps.estimate() * f, "1/s");
    print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, out);
    return correct ? 0 : 1;
}

// --- replays (per-layer runs) ---------------------------------------------------------

/// Bench-owned timer table: (tag, id) -> deadline, fired in deadline order.
class ReplayTimers final : public TimerService {
public:
    struct Ent {
        std::uint32_t tag;
        TimerId id;
        TimePoint deadline;
    };
    void arm(std::uint32_t tag, TimerId id, TimePoint deadline) override {
        for (Ent& e : ents_)
            if (e.tag == tag && e.id == id) {
                e.deadline = deadline;
                return;
            }
        ents_.push_back({tag, id, deadline});
    }
    void cancel(std::uint32_t tag, TimerId id) override {
        for (std::size_t i = 0; i < ents_.size(); ++i)
            if (ents_[i].tag == tag && ents_[i].id == id) {
                ents_[i] = ents_.back();
                ents_.pop_back();
                return;
            }
    }
    /// Pop the earliest timer due strictly before `limit`.
    std::optional<Ent> pop_due(TimePoint limit) {
        std::size_t best = ents_.size();
        for (std::size_t i = 0; i < ents_.size(); ++i)
            if (ents_[i].deadline < limit &&
                (best == ents_.size() || ents_[i].deadline < ents_[best].deadline))
                best = i;
        if (best == ents_.size()) return std::nullopt;
        Ent e = ents_[best];
        ents_.erase(ents_.begin() + static_cast<std::ptrdiff_t>(best));
        return e;
    }
private:
    std::vector<Ent> ents_;
};

class NullNetwork final : public NetworkService {
public:
    void send_unicast(NodeId, const Packet&) override {}
    void send_multicast(const Packet&, McastScope) override {}
    void join_group(GroupId) override {}
    void leave_group(GroupId) override {}
};

struct CoreReplay {
    std::uint64_t ns = 0, packets = 0, actions = 0;
    std::vector<std::uint32_t> delivered;
};

/// Feed one node's recorded inputs to a bare sans-IO core.
template <typename Core>
CoreReplay replay_core(Core& core, const std::vector<Input>& inputs, TimePoint end) {
    CoreReplay out;
    ReplayTimers timers;
    auto apply = [&](Actions&& actions) {
        out.actions += actions.size();
        for (Action& a : actions) {
            if (auto* st = std::get_if<StartTimer>(&a)) timers.arm(0, st->id, st->deadline);
            else if (auto* ct = std::get_if<CancelTimer>(&a)) timers.cancel(0, ct->id);
            else if (auto* dd = std::get_if<DeliverData>(&a)) out.delivered.push_back(dd->seq.value());
        }
    };
    const auto t0 = Clock::now();
    apply(core.start(time_zero()));
    for (const Input& in : inputs) {
        while (auto e = timers.pop_due(in.at)) apply(core.on_timer(e->deadline, e->id));
        apply(core.on_packet(in.at, in.packet));
        ++out.packets;
    }
    while (auto e = timers.pop_due(end)) apply(core.on_timer(e->deadline, e->id));
    out.ns = ns_since(t0);
    return out;
}

struct HostReplay {
    std::uint64_t ns = 0, wakes = 0;
};

/// The same inputs through a ProtocolHost over bench-owned services.  On
/// dormant workloads the receiver is attached as the scenario attaches it,
/// as a dormant record with deferred watchdogs, so the replay takes the
/// live run's path, wake included.
HostReplay replay_host(const ReceiverConfig& cfg, bool dormant, const std::vector<Input>& inputs,
                       TimePoint end) {
    NullNetwork net;
    ReplayTimers timers;
    ProtocolHost host(net, timers);
    if (dormant) {
        auto tmpl = std::make_shared<ProtocolHost::DormantReceiverTemplate>();
        tmpl->config = cfg;
        host.defer_dormant_watchdogs();
        host.add_dormant_receiver(std::move(tmpl), cfg.self, cfg.logger, cfg.fallback_logger);
    } else {
        host.add_receiver(cfg);
    }
    const auto t0 = Clock::now();
    host.start(time_zero());
    for (const Input& in : inputs) {
        while (auto e = timers.pop_due(in.at)) host.on_timer(e->deadline, e->tag, e->id);
        host.on_packet(in.at, in.packet);
    }
    while (auto e = timers.pop_due(end)) host.on_timer(e->deadline, e->tag, e->id);
    return {ns_since(t0), host.dormant_wakes()};
}

/// Standalone EventQueue schedule+pop pair at a fixed pending depth.
double queue_push_pop_ns(std::size_t depth) {
    EventQueue q;
    Rng rng{99};
    depth = std::max<std::size_t>(depth, 1);
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(time_zero() + micros(static_cast<std::int64_t>(rng.uniform_int(0, 1'000'000))),
                   [] {});
    const std::size_t ops = 2'000'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
        auto popped = q.pop();
        q.schedule(popped.at + micros(static_cast<std::int64_t>(1 + (i % 1000))), [] {});
    }
    return static_cast<double>(ns_since(t0)) / static_cast<double>(ops);
}

/// Cost of one clock-pair around an empty body (subtracted from timed wraps).
double clock_pair_ns() {
    const std::size_t n = 1'000'000;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        total += ns_since(t0);
    }
    return static_cast<double>(total) / static_cast<double>(n);
}

struct BareForward {
    double ns = 0;
    bool faithful = true;
};

/// A hostless Network with the live topology, joins and recorded feed
/// outcomes replays the live run's source multicasts.
BareForward bare_forward(const Spec& s, std::uint64_t seed, const TraceCapture& tc,
                         const std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>&
                             live_data) {
    BareForward out;
    ScenarioConfig cfg = scenario_config(s, seed);
    Simulator sim;
    Network net(sim, seed, cfg.sim);
    const DisTopology topo = make_dis_topology(net, cfg.topology);
    for (const auto& site : topo.sites) {
        auto it = tc.feed_outcomes.find(site.router.value());
        net.set_loss(topo.backbone, site.router,
                     std::make_unique<ScriptedLoss>(it == tc.feed_outcomes.end()
                                                        ? std::vector<std::uint8_t>{}
                                                        : it->second));
    }
    net.finalize();
    net.join(cfg.group, topo.primary);
    for (const auto& site : topo.sites) {
        if (site.secondary != kNoNode) net.join(cfg.group, site.secondary);
        for (const NodeId n : site.receivers) net.join(cfg.group, n);
    }
    for (const Input& in : tc.source_mcasts) {
        const Packet* p = &in.packet;
        Network* np = &net;
        const NodeId src = topo.source;
        sim.schedule_at(in.at, [np, p, src] { np->multicast(src, *p, McastScope::kGlobal); });
    }
    const auto t0 = Clock::now();
    sim.run_to_completion(1'000'000'000ull);
    out.ns = static_cast<double>(ns_since(t0));
    for (const auto& [key, count] : live_data) {
        const Link* l = net.link(NodeId{key.first}, NodeId{key.second});
        const std::uint64_t bare = l != nullptr ? l->stats().packets_of(PacketType::kData) : 0;
        if (bare != count) {
            std::fprintf(stderr, "replay fidelity: link %u->%u carried %llu DATA live, %llu bare\n",
                         key.first, key.second, static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(bare));
            out.faithful = false;
        }
    }
    return out;
}

double span_seconds(const obs::TraceRecorder& rec, const char* name) {
    double total = 0.0;
    for (const auto& sp : rec.spans())
        if (std::strcmp(sp.name, name) == 0) total += static_cast<double>(sp.dur_ns) * 1e-9;
    return total;
}

int run_trace(const Spec& s, std::uint64_t seed) {
    bool correct = true;
    Spec mono = s;
    mono.shards = 0;

    // Untraced baseline of the same workload (its own set-up included), in a
    // forked child as in run_e2e: it starts from a fresh heap and leaves
    // nothing behind for the traced runs below, so obs.trace_overhead_frac
    // compares tracing, not heap state.
    IsolatedRunner runner;
    Rep plain = runner.run(s, seed);
    Deterministic dplain = deterministic(plain);
    correct = rep_correct(s, plain, dplain) && correct;

    // The sim.shard layer: a traced 2-process run of the ticker traffic (the
    // sharded workload itself, or ticker_1e5's traffic split in two).  The
    // replays below use the bit-identical single-process run.
    Spec sharded = s;
    if (sharded.ticker && sharded.shards == 0) sharded.shards = 2;
    std::optional<Rep> traced_shard;
    if (sharded.shards > 0) {
        traced_shard = run_sharded(sharded, seed, true);
        Deterministic d = deterministic(*traced_shard);
        correct = rep_correct(s, *traced_shard, d) && correct;
    }

    TraceCapture tc;
    obs::TraceRecorder recorder(1 << 18);
    recorder.install();
    std::unique_ptr<DisScenario> live;
    Rep r = run_single(mono, seed, &tc, &live);
    recorder.uninstall();
    Deterministic d = deterministic(r);
    correct = rep_correct(s, r, d) && correct;

    auto c = [&r](const char* name) {
        const auto it = r.counters.find(name);
        return it == r.counters.end() ? 0.0 : it->second;
    };
    const double deliveries = static_cast<double>(r.delivered);
    const double traced_wall = r.traffic_s;
    JsonOut o;
    double attributed_ns = 0.0;  // layer costs extrapolated to the whole run

    // sim.queue
    o.add("sim.queue.events_per_delivery", ratio(static_cast<double>(r.events), deliveries), "ratio");
    o.add("sim.queue.schedules_per_delivery", ratio(static_cast<double>(r.scheduled), deliveries), "ratio");
    o.add("sim.queue.peak_pending", static_cast<double>(r.peak_pending), "count");
    std::vector<std::uint32_t> steps = tc.step_ns;
    o.add("sim.queue.step_ns_p50", quantile(steps, 0.50), "ns");
    o.add("sim.queue.step_ns_p99", quantile(steps, 0.99), "ns");
    const double push_pop = queue_push_pop_ns(r.peak_pending);
    o.add("sim.queue.push_pop_ns", push_pop, "ns");
    attributed_ns += push_pop * static_cast<double>(r.events);

    // sim.net
    Network& net = live->network();
    o.add("sim.net.link_tx_per_delivery", ratio(c("sim.link_packets"), deliveries), "ratio");
    o.add("sim.net.tree_builds", static_cast<double>(net.tree_builds()), "count");
    o.add("sim.net.tree_build_s", net.tree_build_seconds(), "s");
    o.add("sim.net.batched_runs_per_multicast",
          ratio(c("sim.batched_delivery_runs"), c("sim.multicast_sends")), "ratio");
    o.add("sim.net.drops_queue", static_cast<double>(net.drop_breakdown().queue), "count");
    o.add("sim.net.finalize_s", span_seconds(recorder, "finalize"), "s");

    // Sampled-site links whose DATA counts the bare replay must reproduce.
    const auto& site = live->topology().sites[s.sampled_site];
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> live_data;
    auto note_link = [&](NodeId a, NodeId b) {
        if (const Link* l = net.link(a, b))
            live_data[{a.value(), b.value()}] = l->stats().packets_of(PacketType::kData);
    };
    note_link(live->topology().backbone, site.router);
    for (const NodeId n : site.receivers) note_link(site.router, n);

    // runtime (registry part) and core (episode part).
    std::uint64_t wakes = 0;
    for (const auto& st : live->topology().sites)
        for (const NodeId n : st.receivers)
            if (SimHost* h = net.host(n)) wakes += h->protocol().dormant_wakes();
    double sends = 0.0;
    for (const auto& [name, value] : r.counters)
        if (name.rfind("host.send.", 0) == 0) sends += value;
    // Whether each sampled receiver woke from dormancy live (read before
    // live->receiver() wakes it to hand out its config).
    std::vector<std::uint64_t> live_wakes;
    std::vector<ReceiverConfig> rcfg;
    for (const NodeId n : site.receivers) {
        SimHost* h = net.host(n);
        live_wakes.push_back(h != nullptr ? h->protocol().dormant_wakes() : 0);
        rcfg.push_back(live->receiver(n).config());
    }
    const LoggerConfig lcfg = live->secondary_logger(s.sampled_site).config();
    const std::uint64_t logger_seed = seed * 31 + s.sampled_site;
    const TimePoint end = live->simulator().now();
    const double log_recover = span_seconds(recorder, "log_recover");
    live.reset();  // free the live run before the replays

    // Core, host and loss-detector replays over the sampled site.
    std::uint64_t core_ns = 0, core_pkts = 0, core_actions = 0, host_ns = 0;
    bool faithful = true;
    const std::uint32_t expect_seqs = static_cast<std::uint32_t>(r.sends);
    // Each replay runs kReplayRounds times, alternating core and host, and
    // keeps the fastest round, so cache warm-up does not favour either.
    constexpr int kReplayRounds = 5;
    for (std::size_t i = 0; i < rcfg.size(); ++i) {
        const ReceiverConfig& cfg = rcfg[i];
        const auto& inputs = tc.inputs[cfg.self.value()];
        CoreReplay cr;
        HostReplay hr;
        std::uint64_t best_core = UINT64_MAX, best_host = UINT64_MAX;
        for (int round = 0; round < kReplayRounds; ++round) {
            ReceiverCore core(cfg);
            cr = replay_core(core, inputs, end);
            best_core = std::min(best_core, cr.ns);
            hr = replay_host(cfg, s.dormant, inputs, end);
            best_host = std::min(best_host, hr.ns);
        }
        if (hr.wakes != live_wakes[i]) {
            std::fprintf(stderr, "replay fidelity: node %u woke %llu time(s) in replay, %llu live\n",
                         cfg.self.value(), static_cast<unsigned long long>(hr.wakes),
                         static_cast<unsigned long long>(live_wakes[i]));
            faithful = false;
        }
        core_ns += best_core;
        host_ns += best_host;
        core_pkts += cr.packets;
        core_actions += cr.actions;
        std::sort(cr.delivered.begin(), cr.delivered.end());
        bool same = cr.delivered.size() == expect_seqs;
        for (std::uint32_t i = 0; same && i < expect_seqs; ++i) same = cr.delivered[i] == i + 1;
        if (!same) {
            std::fprintf(stderr, "replay fidelity: node %u delivered %zu seqs in replay, %u live\n",
                         cfg.self.value(), cr.delivered.size(), expect_seqs);
            faithful = false;
        }
    }
    std::uint64_t logger_ns = UINT64_MAX, logger_pkts = 0;
    for (int round = 0; round < kReplayRounds; ++round) {
        LoggerCore logger(lcfg, logger_seed);
        const CoreReplay lr = replay_core(logger, tc.inputs[site.secondary.value()], end);
        logger_ns = std::min(logger_ns, lr.ns);
        logger_pkts = lr.packets;
    }

    std::uint64_t observes = 0;
    std::uint64_t detector_ns = 0;
    for (const ReceiverConfig& cfg : rcfg) {
        LossDetector det;
        std::vector<std::pair<TimePoint, std::pair<SeqNum, bool>>> seqs;
        for (const Input& in : tc.inputs[cfg.self.value()]) {
            if (const auto* db = std::get_if<DataBody>(&in.packet.body))
                seqs.push_back({in.at, {db->seq, false}});
            else if (const auto* hb = std::get_if<HeartbeatBody>(&in.packet.body))
                seqs.push_back({in.at, {hb->last_seq, true}});
            else if (const auto* rt = std::get_if<RetransmissionBody>(&in.packet.body))
                seqs.push_back({in.at, {rt->seq, false}});
        }
        const auto t0 = Clock::now();
        for (const auto& [at, sq] : seqs) (void)det.observe(at, sq.first, sq.second);
        detector_ns += ns_since(t0);
        observes += seqs.size();
    }

    const double core_ns_pkt = ratio(static_cast<double>(core_ns), static_cast<double>(core_pkts));
    const double host_self_ns =
        ratio(static_cast<double>(host_ns) - static_cast<double>(core_ns),
              static_cast<double>(core_pkts));
    o.add("runtime.host_ns_per_packet", std::max(0.0, host_self_ns), "ns");
    o.add("runtime.timers_armed_per_delivery", ratio(c("host.timers_armed"), deliveries), "ratio");
    o.add("runtime.timers_cancelled_per_delivery", ratio(c("host.timers_cancelled"), deliveries),
          "ratio");
    o.add("runtime.sends_per_delivery", ratio(sends, deliveries), "ratio");
    o.add("runtime.dormant_wakes", static_cast<double>(wakes), "count");

    o.add("core.receiver_ns_per_packet", core_ns_pkt, "ns");
    o.add("core.logger_ns_per_packet",
          ratio(static_cast<double>(logger_ns), static_cast<double>(logger_pkts)), "ns");
    o.add("core.loss_detector_ns_per_observe",
          ratio(static_cast<double>(detector_ns), static_cast<double>(observes)), "ns");
    o.add("core.actions_per_packet",
          ratio(static_cast<double>(core_actions), static_cast<double>(core_pkts)), "ratio");
    const double opened = c("recovery.episodes_opened");
    o.add("core.nacks_per_episode", ratio(c("recovery.nack_sends"), opened), "ratio");
    o.add("core.escalations_per_episode", ratio(c("recovery.escalations"), opened), "ratio");
    o.add("core.cold_restarts", c("recovery.cold_restarts"), "count");
    o.add("core.upstream_fetches", c("proto.logger.upstream_fetches"), "count");
    o.add("core.log_recover_s", log_recover, "s");
    // Every receiver delivers every send (checked), so on dormant workloads
    // each one woke at the anchor and the rest of its arrivals run a live
    // core; the host replay carries the wake's cost.
    const double host_arrivals = c("sim.deliveries");
    attributed_ns += (core_ns_pkt + std::max(0.0, host_self_ns)) * host_arrivals;

    // packet: codec over the tapped corpus.
    {
        std::vector<std::vector<std::uint8_t>> wire;
        wire.reserve(tc.corpus.size());
        std::size_t sink = 0;
        const auto t0 = Clock::now();
        for (const auto& rec : tc.corpus) wire.push_back(encode(rec.packet));
        const double enc = ratio(static_cast<double>(ns_since(t0)), static_cast<double>(wire.size()));
        const auto t1 = Clock::now();
        for (const auto& w : wire) sink += decode(w).has_value() ? 1 : 0;
        const double dec = ratio(static_cast<double>(ns_since(t1)), static_cast<double>(wire.size()));
        const auto t2 = Clock::now();
        for (const auto& rec : tc.corpus) sink += encoded_size(rec.packet);
        const double size_ns =
            ratio(static_cast<double>(ns_since(t2)), static_cast<double>(tc.corpus.size()));
        if (sink == 0) std::printf("empty packet corpus\n");
        o.add("packet.encode_ns", enc, "ns");
        o.add("packet.decode_ns", dec, "ns");
        o.add("packet.encoded_size_ns", size_ns, "ns");
        o.add("packet.bytes_per_pkt", ratio(c("sim.link_bytes"), c("sim.link_packets")), "bytes");
        if (s.shards > 0) attributed_ns += enc * static_cast<double>(tc.tapped);
    }

    // obs
    const double pair_ns = clock_pair_ns();
    const double observer_ns =
        std::max(0.0, ratio(tc.observer_ns, deliveries) - pair_ns);
    o.add("obs.observer_ns_per_delivery", observer_ns, "ns");
    attributed_ns += observer_ns * deliveries;
    {
        // The digest tap every sharded run installs, timed over the corpus.
        Simulator dsim;
        Network dnet(dsim, seed, scenario_config(s, seed).sim);
        const DisTopology dtopo = make_dis_topology(dnet, scenario_config(s, seed).topology);
        (void)dtopo;
        TraceDigest digest;
        std::size_t n = 0;
        const auto t0 = Clock::now();
        for (const auto& rec : tc.corpus)
            if (const Link* l = dnet.link(rec.from, rec.to)) {
                digest.add(rec.at, *l, rec.packet, rec.delivered);
                ++n;
            }
        const double tap_ns = ratio(static_cast<double>(ns_since(t0)), static_cast<double>(n));
        o.add("obs.tap_ns_per_pkt", tap_ns, "ns");
    }
    const double traced = s.shards > 0 ? traced_shard->traffic_s : traced_wall;
    o.add("obs.trace_overhead_frac", ratio(traced, plain.traffic_s) - 1.0, "ratio");
    o.add("obs.episode_records_dropped", static_cast<double>(r.records_dropped), "count");

    // workload
    o.add("workload.plan_s", r.plan_s, "s");
    o.add("workload.sends", static_cast<double>(r.sends - 1), "count");

    // sim.shard (zero on the single-process workloads, where it never runs)
    {
        double windows = 0, stall = 0, wait50 = 0, wait99 = 0, splice = 0, emits = 0, cpu = 0,
               build = 0;
        if (traced_shard) {
            const ShardResult& sr = *traced_shard->shard;
            windows = static_cast<double>(sr.windows);
            stall = sr.stall_fraction;
            std::vector<std::uint64_t> waits;
            for (const auto& w : sr.shard_window_wait_ns) waits.insert(waits.end(), w.begin(), w.end());
            wait50 = quantile(waits, 0.50) * 1e-3;
            wait99 = quantile(waits, 0.99) * 1e-3;
            for (const std::uint64_t ns : sr.window_splice_ns) splice += static_cast<double>(ns) * 1e-9;
            emits = ratio(static_cast<double>(sr.remote_emits),
                          static_cast<double>(traced_shard->delivered));
            cpu = sr.cpu_seconds_max_shard;
            build = traced_shard->setup_s;
        }
        o.add("sim.shard.windows", windows, "count");
        o.add("sim.shard.stall_frac", stall, "ratio");
        o.add("sim.shard.window_wait_us_p50", wait50, "us");
        o.add("sim.shard.window_wait_us_p99", wait99, "us");
        o.add("sim.shard.splice_s", splice, "s");
        o.add("sim.shard.remote_emits_per_delivery", emits, "ratio");
        o.add("sim.shard.cpu_s_max_shard", cpu, "s");
        o.add("sim.shard.build_s", build, "s");
    }

    // The bare forwarding replay, then the ledger coverage.
    const BareForward bf = bare_forward(mono, seed, tc, live_data);
    const double bare_ns = ratio(bf.ns, deliveries);
    attributed_ns += bf.ns;
    faithful = faithful && bf.faithful;
    if (faithful) o.add("sim.net.bare_forward_ns_per_delivery", bare_ns, "ns");
    o.add("obs.attributed_frac", ratio(attributed_ns * 1e-9, traced_wall), "ratio");
    if (!faithful) {
        std::fprintf(stderr, "CHECK FAILED [%s]: replay fidelity\n", s.name.c_str());
        correct = false;
    }
    std::printf("traced run: %zu steps, %llu tapped packets, corpus %zu, %llu spans (%llu dropped)\n",
                tc.step_ns.size(), static_cast<unsigned long long>(tc.tapped), tc.corpus.size(),
                static_cast<unsigned long long>(recorder.spans().size()),
                static_cast<unsigned long long>(recorder.dropped()));
    const std::uint64_t attempted = plain.expected + r.expected;
    const std::uint64_t failed = plain.expected - std::min(plain.expected, plain.delivered) +
                                 r.expected - std::min(r.expected, r.delivered);
    print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, o);
    return correct ? 0 : 1;
}

/// Check mode extra: the 2-process digest equals the run_unsharded digest.
bool check_digest(const Spec& s, std::uint64_t seed) {
    if (s.shards == 0) return true;
    const Rep sharded = run_sharded(s, seed, false);
    const std::size_t nodes = node_slots(s, seed);
    SharedArray<std::uint32_t> counts(nodes);
    SharedArray<ShardShared> shared(1);
    std::memset(counts.data(), 0, nodes * sizeof(std::uint32_t));
    std::memset(shared.data(), 0, sizeof(ShardShared));
    const ShardResult mono = run_unsharded(shard_config(s, seed, counts.data(), nodes, shared.data()));
    const bool same = mono.digest.sum == sharded.digest_sum && mono.digest.packets == sharded.digest_packets;
    std::printf("digest: sharded %016llx/%llu, unsharded %016llx/%llu -> %s\n",
                static_cast<unsigned long long>(sharded.digest_sum),
                static_cast<unsigned long long>(sharded.digest_packets),
                static_cast<unsigned long long>(mono.digest.sum),
                static_cast<unsigned long long>(mono.digest.packets), same ? "equal" : "DIFFERENT");
    return same;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") workload = next();
        else if (a == "--seed") seed = std::stoull(next());
        else if (a == "--seconds") seconds = std::stod(next());
        else if (a == "--trace") trace = std::stoi(next());
        else if (a == "--check") check = true;
        else if (a == "--describe") {
#if defined(__OPTIMIZE__)
            const bool optimized = true;
#else
            const bool optimized = false;
#endif
            std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
                        "\"telemetry\": %s}\n",
                        __VERSION__, LBRM_BENCH_BUILD_TYPE, optimized ? "true" : "false",
                        obs::kTelemetryEnabled ? "true" : "false");
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", a.c_str());
            return 2;
        }
    }
    const std::optional<Spec> spec = spec_for(workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    const Spec& sp = *spec;
    std::printf("config {\"sites\": %u, \"receivers_per_site\": %u, \"replicas\": %u, "
                "\"feed_loss\": %g, \"dormant\": %s, \"churn\": %s, \"ticker\": %s, "
                "\"shards\": %u, \"updates\": %u, \"gap_ms\": %g, \"bytes\": %zu, "
                "\"ticker_horizon_ms\": %g, \"ticker_mean_gap_ms\": %g, \"drain_s\": %g}\n",
                sp.sites, sp.receivers, sp.replicas, sp.loss, sp.dormant ? "true" : "false",
                sp.churn ? "true" : "false", sp.ticker ? "true" : "false", sp.shards,
                sp.ticker ? 0u : sp.updates, to_seconds(sp.gap) * 1e3, sp.bytes,
                to_seconds(sp.ticker_horizon) * 1e3, to_seconds(sp.ticker_mean_gap) * 1e3,
                to_seconds(sp.drain));
    if (!obs::kTelemetryEnabled) {
        std::fprintf(stderr, "refusing to measure a telemetry-free build\n");
        return 2;
    }
    try {
        if (check && !check_digest(*spec, seed)) {
            std::fprintf(stderr, "CHECK FAILED [%s]: sharded digest != unsharded digest\n",
                         workload.c_str());
            return 1;
        }
        return trace != 0 ? run_trace(*spec, seed) : run_e2e(*spec, seed, seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark error: %s\n", e.what());
        return 1;
    }
}
