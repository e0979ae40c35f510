// Sim-time metrics sampler (see DESIGN.md "Observability").
//
// Snapshots selected registry metrics at a fixed simulated-time cadence,
// turning lifetime counters into per-interval curves: heartbeat bandwidth,
// NACK rate, delivered packets per second -- the protocol-health
// counterpart to the paper's Figures 4/5/8.  The sampler only *reads*
// counters (and evaluates pull gauges), so attaching one never perturbs
// protocol traffic; the tick events do consume event-queue tiebreak
// numbers, which cannot reorder protocol events relative to each other
// (tiebreaks are allocated monotonically) -- the telemetry determinism A/B
// test asserts the resulting packet trace is bit-identical.
//
// The sampler is scheduling-agnostic: the owner calls tick() on its own
// cadence (DisScenario::start_sampling arms a recurring simulator event).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace lbrm::obs {

class Metrics;

/// Detached, mergeable view of a Sampler's series -- the form shipped over
/// the shard REPORT frame.  Shards tick in lockstep (same interval, same
/// sim-time rows), so a merge is an element-wise sum: counters partition
/// across shards and gauges are only written on their owning shard.
struct SamplerSnapshot {
    struct Series {
        std::string name;
        bool rate = true;
        std::vector<std::uint64_t> values;
    };
    double interval_s = 0.0;
    std::vector<double> t;
    std::vector<Series> series;

    [[nodiscard]] bool empty() const { return t.empty() && series.empty(); }
    /// Adopts `other` wholesale when this is empty; otherwise element-wise
    /// sum.  Throws std::logic_error when rows/series layouts disagree.
    void merge(const SamplerSnapshot& other);
    /// {"interval_s":..,"t":[..],"series":{"name":{"kind":"rate","values":[..]}}}:
    /// the `sampler` section of the run artifact (sim::observability_json).
    [[nodiscard]] std::string to_json() const;
};

class Sampler {
public:
    explicit Sampler(Metrics& metrics) : metrics_(metrics) {}

    /// Track a counter as a per-interval delta series ("rate").
    void add_rate(std::string name);
    /// Track a gauge (push or pull) as a sampled-level series.
    void add_level(std::string name);

    /// Record one row at simulated time `now` (monotonically increasing).
    void tick(TimePoint now);

    /// The cadence tick() is driven at; stored for export only.
    void set_interval(Duration interval) { interval_ = interval; }
    [[nodiscard]] Duration interval() const { return interval_; }

    [[nodiscard]] std::size_t rows() const { return times_.size(); }
    [[nodiscard]] const std::vector<double>& times() const { return times_; }
    /// Per-interval values of one tracked series; empty when unknown.
    [[nodiscard]] const std::vector<std::uint64_t>* series(
        const std::string& name) const;

    /// Detached copy for cross-shard shipping/merging.
    [[nodiscard]] SamplerSnapshot export_snapshot() const;

private:
    struct Series {
        std::string name;
        bool rate;                          ///< delta vs sampled level
        std::uint64_t last = 0;             ///< previous cumulative (rate only)
        std::vector<std::uint64_t> values;
    };

    Metrics& metrics_;
    Duration interval_ = Duration::zero();
    std::vector<double> times_;  ///< seconds of sim time per row
    std::vector<Series> series_;
};

}  // namespace lbrm::obs
