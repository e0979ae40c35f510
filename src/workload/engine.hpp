// The closed-loop workload engine (DESIGN.md "Closed-loop workloads").
//
// Drives a DisScenario from one or more Workload streams multiplexed onto
// the scenario's single protocol source.  Two scheduling modes share one
// deterministically drawn plan:
//
//   * governed = false (open loop): every planned send is pre-scheduled up
//     front via DisScenario::schedule_update, in exactly the order and with
//     exactly the payload bytes a driver with no engine at all would use --
//     so the packet trace of an engine-off run is bit-identical to a
//     no-engine baseline (bench_workloads gates this in CI).  The engine
//     only *observes* sends and deliveries, as one of the scenario's added
//     observers (DisScenario::add_observer), to compute staleness.
//
//   * governed = true (closed loop): each stream runs a lazy pacer event
//     chain.  Before every send the pacer consults the sender's real
//     FlowController -- jittered_spacing(rng) over the AIMD advisory -- and
//     fires at max(planned time, previous send + spacing), deferring the
//     plan rather than dropping from it.  Jitter draws come from the
//     stream's own Rng, so a population of streams backing off from the
//     same loss burst resumes de-correlated.
//
// Determinism rules (the contract tests/workload_test.cpp enforces):
//   * every draw comes from stream_rng(seed, stream) -- plan first, then
//     pacing jitter from the leftover state; no wall clock, no globals;
//   * payloads are pure functions of (key, update), never protocol state;
//   * on sharded runs the engine is constructed identically on every shard
//     (same plan draws); only the shard owning the source schedules or
//     sends, so the 2-shard digest equals the unsharded shard-ordering run.
//
// Lifetime: the engine observes its scenario and registers pull gauges, so
// it must be destroyed before its scenario -- declare it after the
// scenario, or hand ownership over with DisScenario::retain() (required
// inside ShardRunConfig::setup, where nothing else outlives the run).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/scenario.hpp"
#include "workload/workload.hpp"

namespace lbrm::workload {

struct EngineConfig {
    /// Closed loop: consult the sender's FlowController before each send.
    bool governed = false;
    /// First planned send lands at start() time + start_delay + first gap.
    Duration start_delay = millis(100);
    /// Plan length per stream (planned stream time, not wall time).
    Duration horizon = secs(2);
    /// Root seed; stream i draws from stream_rng(seed, i).
    std::uint64_t seed = 1;
};

class WorkloadEngine : private sim::ScenarioObserver {
public:
    WorkloadEngine(sim::DisScenario& scenario, EngineConfig config);
    ~WorkloadEngine();

    WorkloadEngine(const WorkloadEngine&) = delete;
    WorkloadEngine& operator=(const WorkloadEngine&) = delete;

    /// Add one traffic stream.  Call before start().
    void add_stream(std::unique_ptr<Workload> stream);

    /// Draw every stream's plan and schedule the sends (or the pacer
    /// chains).  Call once, before running the scenario.
    void start();

    /// Register the engine's workload.* series on the scenario's sampler
    /// (rates for sends/bytes/deferrals, levels for fairness + staleness).
    void add_sampler_series();

    // --- results ---------------------------------------------------------
    struct StreamStats {
        std::string name;
        std::uint64_t planned = 0;    ///< items drawn into the plan
        std::uint64_t sent = 0;       ///< items actually multicast
        std::uint64_t bytes = 0;      ///< payload bytes multicast
        std::uint64_t deferrals = 0;  ///< sends pushed past their plan time
        Duration total_deferral{};    ///< cumulative pacing delay
    };
    [[nodiscard]] const std::vector<StreamStats>& streams() const { return stats_; }
    [[nodiscard]] std::uint64_t sends() const;
    [[nodiscard]] std::uint64_t bytes_sent() const;
    [[nodiscard]] std::uint64_t deferrals() const;
    [[nodiscard]] Duration total_deferral() const;

    /// Jain's fairness index over per-stream sent bytes:
    /// (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair, 1/n = one stream
    /// took everything.  1.0 when idle or single-stream.
    [[nodiscard]] double fairness_jain() const;

    /// Per-key staleness: delivery time minus the update's send time,
    /// accumulated over every receiver delivery the engine observed.
    /// Quantiles interpolate within fixed log-spaced buckets (seconds).
    [[nodiscard]] std::uint64_t staleness_samples() const { return stale_count_; }
    [[nodiscard]] double staleness_quantile(double q) const;
    /// Deliveries that arrived after a newer update of the same key had
    /// already been sent (the receiver briefly displayed stale data).
    [[nodiscard]] std::uint64_t superseded_deliveries() const { return superseded_; }

    // --- plan building blocks (shared with the no-engine baseline) -------
    /// The deterministic per-stream Rng; bench_workloads uses the same
    /// derivation to build its engine-free baseline plan.
    [[nodiscard]] static Rng stream_rng(std::uint64_t seed, std::size_t stream) {
        return Rng(splitmix64(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1))));
    }
    /// Draw items from `w` until their gaps exceed `horizon`.
    [[nodiscard]] static std::vector<WorkloadItem> plan_stream(Workload& w, Rng& rng,
                                                              Duration horizon);

private:
    struct Planned {
        TimePoint at;  ///< planned send time (absolute sim time)
        WorkloadItem item;
    };
    struct StreamState {
        std::unique_ptr<Workload> workload;
        std::vector<Planned> plan;
        Rng rng;             ///< leftover plan rng; jitter draws continue it
        std::size_t cursor = 0;
        TimePoint last_send{};
    };
    struct SentRec {
        std::uint32_t stream;
        std::uint32_t key;
        std::uint32_t update;
        TimePoint at;
    };

    void fire(std::size_t stream);                      // governed pacer body
    void schedule_fire(std::size_t stream, TimePoint at);
    void record_send(std::size_t stream, const WorkloadItem& item, SeqNum seq,
                     TimePoint at, std::size_t bytes);
    void on_delivery(TimePoint at, NodeId node, const DeliverData& data) override;
    void on_send(TimePoint at, SeqNum seq) override;

    sim::DisScenario& scenario_;
    EngineConfig config_;
    std::vector<StreamState> streams_;
    std::vector<StreamStats> stats_;
    bool started_ = false;

    /// Ungoverned mode: flat (stream, plan index) pairs in execution order
    /// -- stable-sorted by time over the stream-major schedule order -- so
    /// the k-th reported send maps back to its item.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> exec_order_;
    std::size_t exec_cursor_ = 0;

    /// Protocol seq -> what was sent (for staleness on delivery).
    std::unordered_map<std::uint32_t, SentRec> sent_;
    /// (stream << 32 | key) -> newest update index sent.
    std::unordered_map<std::uint64_t, std::uint32_t> newest_sent_;

    /// Staleness histogram: log-spaced bucket upper bounds, 10 us .. ~100 s.
    static constexpr std::size_t kStaleBuckets = 64;
    std::array<std::uint64_t, kStaleBuckets + 1> stale_counts_{};
    std::uint64_t stale_count_ = 0;
    double stale_max_ = 0.0;

    std::uint64_t superseded_ = 0;
    bool gauges_registered_ = false;

    /// The last delivery's outcome.  A multicast hands one (seq, arrival
    /// time) to every receiver of a site, so consecutive deliveries repeat
    /// it; a hit skips both map lookups and the bucket's log10.
    /// record_send invalidates it (a send changes both maps).
    struct DeliveryMemo {
        bool valid = false;
        SeqNum seq{};
        TimePoint at{};
        std::size_t bucket = 0;  ///< stale_counts_ index
        bool superseded = false;
    };
    DeliveryMemo memo_;

    // Registry handles (sink-backed when telemetry is compiled out).
    obs::Counter* obs_sends_ = nullptr;
    obs::Counter* obs_bytes_ = nullptr;
    obs::Counter* obs_deferrals_ = nullptr;
    obs::Counter* obs_stale_samples_ = nullptr;
    obs::Counter* obs_superseded_ = nullptr;
};

}  // namespace lbrm::workload
