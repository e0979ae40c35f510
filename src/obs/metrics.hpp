// Telemetry metrics registry (see DESIGN.md "Observability").
//
// Instruments are designed around one invariant: the hot path pays a plain
// `uint64_t` increment on a pre-resolved handle, nothing more.  Name lookup
// happens once, at bind time; after that a core holds raw `Counter*` /
// `Histogram*` pointers.  Unbound instruments point at shared static sink
// objects, so increment sites never branch on "is telemetry attached".
//
// Telemetry never feeds back into behaviour: counters are written by the
// deterministic simulation but only ever *read* by exporters, so two
// identical runs produce identical snapshots and a telemetry-compiled-out
// build (-DLBRM_NO_TELEMETRY) produces bit-identical packet traces.  Under
// LBRM_NO_TELEMETRY every mutator compiles to nothing and registry reads
// report zero; the build exists for the overhead A/B in CI, not for running
// the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lbrm::obs {

#if defined(LBRM_NO_TELEMETRY)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

/// Monotonic event count.  Single-writer (the sim thread), so not atomic.
class Counter {
public:
    void inc(std::uint64_t n = 1) {
#if !defined(LBRM_NO_TELEMETRY)
        value_ += n;
#else
        (void)n;
#endif
    }
    [[nodiscard]] std::uint64_t value() const { return value_; }

    /// Shared sink for unbound handles: increments land here, nobody reads.
    [[nodiscard]] static Counter& sink();

private:
    std::uint64_t value_ = 0;
};

/// Last-write-wins level (queue depths, cache occupancy).  Most levels in
/// this codebase are cheaper as pull gauges (Metrics::gauge_fn); a push
/// Gauge exists for values whose source is gone by snapshot time.
class Gauge {
public:
    void set(std::uint64_t v) {
#if !defined(LBRM_NO_TELEMETRY)
        value_ = v;
#else
        (void)v;
#endif
    }
    [[nodiscard]] std::uint64_t value() const { return value_; }

    [[nodiscard]] static Gauge& sink();

private:
    std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram: upper bounds are set at registration and never
/// change, so observe() is a linear scan over a handful of doubles plus one
/// increment (recovery latencies land in the first few buckets).
class Histogram {
public:
    Histogram() = default;
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double v) {
#if !defined(LBRM_NO_TELEMETRY)
        std::size_t i = 0;
        while (i < bounds_.size() && v > bounds_[i]) ++i;
        ++counts_[i];
        sum_ += v;
        ++count_;
#else
        (void)v;
#endif
    }

    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    /// bounds().size() + 1 entries; the last is the +inf overflow bucket.
    [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] double sum() const { return sum_; }

    [[nodiscard]] static Histogram& sink();

private:
    std::vector<double> bounds_;          ///< ascending upper bounds
    std::vector<std::uint64_t> counts_;   ///< bounds_.size() + 1 slots
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

struct ProtocolMetrics;
struct RegistrySnapshot;
class EpisodeTracker;

/// Named-instrument registry.  Registration (cold) hands out handles whose
/// addresses are stable for the registry's lifetime; iteration order is the
/// name order, so snapshots of identical runs are byte-identical.
class Metrics {
public:
    Metrics() = default;
    Metrics(const Metrics&) = delete;
    Metrics& operator=(const Metrics&) = delete;
    ~Metrics();

    /// Find-or-create by name.  Re-registering returns the same handle.
    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    /// Bounds apply only on first registration of `name`.
    [[nodiscard]] Histogram& histogram(std::string_view name,
                                       std::vector<double> upper_bounds);

    /// Pull gauge: `fn` is evaluated at snapshot/value() time, never on the
    /// hot path.  The caller must remove_gauge_fn() before anything the
    /// closure captures dies (sim::Network does this in its destructor).
    void gauge_fn(std::string_view name, std::function<std::uint64_t()> fn);
    void remove_gauge_fn(std::string_view name);

    /// Current value of a counter, gauge or pull gauge; 0 when unknown.
    [[nodiscard]] std::uint64_t value(std::string_view name) const;
    [[nodiscard]] bool has(std::string_view name) const;

    /// Flattened view, sorted by name.  Histograms expand into
    /// `name.le_<bound>` / `name.le_inf` / `name.count` / `name.sum` rows.
    struct Sample {
        std::string name;
        double value;
    };
    [[nodiscard]] std::vector<Sample> snapshot() const;

    /// Structured view: scalars plus full histograms (buckets intact).  This
    /// is what shard children ship over the REPORT frame -- flatten() of the
    /// merged result equals the monolith's snapshot() when runs agree.
    [[nodiscard]] RegistrySnapshot export_snapshot() const;

    /// One JSON object, keys sorted: {"name": value, ...}.  Deterministic:
    /// identical runs serialize to identical bytes.
    [[nodiscard]] std::string to_json() const;
    bool write_json(const std::string& path) const;

    /// The shared protocol-core handle block (resolved once, then cached).
    [[nodiscard]] const ProtocolMetrics& protocol();

    /// The registry-owned recovery-episode tracker (created on first use;
    /// protocol() wires it into the handle block).
    [[nodiscard]] EpisodeTracker& episodes();

private:
    // std::map keeps handle addresses stable and iteration deterministic;
    // all of this is bind/export-time machinery, never hot.
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
    std::map<std::string, std::function<std::uint64_t()>, std::less<>> pull_gauges_;
    std::unique_ptr<ProtocolMetrics> protocol_;
    std::unique_ptr<EpisodeTracker> episodes_;
};

/// Structured registry snapshot: the cross-shard telemetry unit.  Unlike the
/// flattened Sample rows, histograms keep their bucket vectors, so shard
/// merges can sum bucket-wise instead of dropping distribution shape.
struct RegistrySnapshot {
    struct Hist {
        std::vector<double> bounds;          ///< ascending upper bounds
        std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 slots
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    std::map<std::string, double> scalars;
    std::map<std::string, Hist> histograms;

    [[nodiscard]] bool empty() const { return scalars.empty() && histograms.empty(); }
    /// Element-wise sum.  Adopts `other` wholesale when this is empty; throws
    /// std::logic_error on histogram bound mismatch (shards must agree on
    /// instrument layout -- a mismatch means a protocol bug, not data).
    void merge(const RegistrySnapshot& other);
    /// Identical rows (names, expansion, order) to Metrics::snapshot().
    [[nodiscard]] std::vector<Metrics::Sample> flatten() const;
    /// {"scalars":{...},"histograms":{name:{"bounds":[..],"counts":[..],
    /// "count":N,"sum":S}}}, keys sorted; deterministic bytes.
    [[nodiscard]] std::string to_json() const;
};

/// Append `v` to `json` as a number: an integral value as an integer,
/// anything else in %.9g.  Every registry and shard JSON export writes its
/// numbers through this one rule.
void append_json_number(std::string& json, double v);

// ---------------------------------------------------------------------------
// Pre-resolved handle blocks for the protocol cores.  One block per family
// (not per core instance): a million receivers share one ReceiverMetrics,
// so binding costs one pointer per core and the registry stays small.
// Cores keep their per-instance counters for per-node assertions; the
// registry rows are the fleet-wide aggregate.
// ---------------------------------------------------------------------------

struct SenderMetrics {
    Counter* data_sent;
    Counter* heartbeats_sent;
    Counter* remulticasts;
    Counter* log_store_retries;
    Counter* failovers;
    Counter* failover_exhausted;  ///< promotion rounds that ran out of replicas
    // Section 5 flow-control governor (core/flow_control.hpp): the current
    // advisory send spacing plus the notice edges it emitted.
    Gauge* flow_spacing_us;   ///< recommended_spacing(), microseconds
    Counter* flow_slowdowns;  ///< kCongestionSlowdown notices emitted
    Counter* flow_cleared;    ///< kCongestionCleared notices emitted
    [[nodiscard]] static const SenderMetrics& disabled();
};

struct ReceiverMetrics {
    Counter* delivered;
    Counter* nacks_sent;
    Counter* duplicates;
    [[nodiscard]] static const ReceiverMetrics& disabled();
};

struct LoggerMetrics {
    Counter* nacks_received;
    Counter* served_unicast;
    Counter* served_multicast;
    Counter* upstream_fetches;
    Counter* acks_sent;
    [[nodiscard]] static const LoggerMetrics& disabled();
};

struct StatAckMetrics {
    Counter* epochs_opened;
    Counter* remulticast_decisions;
    Counter* empty_epoch_resolicits;  ///< zero-volunteer windows re-solicited
    Counter* packets_completed;       ///< every designated ACK arrived
    Counter* packets_incomplete;      ///< window closed with ACKs missing
    [[nodiscard]] static const StatAckMetrics& disabled();
};

struct LossDetectorMetrics {
    Counter* gaps_opened;     ///< sequence numbers that became missing
    Counter* gap_overflows;   ///< observations truncated by max_gap
    [[nodiscard]] static const LossDetectorMetrics& disabled();
};

/// Driver-level (ProtocolHost) handles: outbound packets by wire type plus
/// timer/notice churn.  Lives in the cached ProtocolMetrics block so a
/// million host bindings cost one pointer copy each, not 20 name lookups.
struct HostMetrics {
    /// "host.send.<TYPE>"; index = the PacketType numeric value
    /// (packet/packet.hpp, 1..19).  Slot 0 is unused (points at the sink).
    std::array<Counter*, 20> send_by_type;
    Counter* timers_armed;
    Counter* timers_cancelled;
    Counter* notices;
    [[nodiscard]] static const HostMetrics& disabled();
};

/// The full protocol handle block.  `Metrics::protocol()` resolves it once
/// under the canonical "proto.*" / "host.*" names and caches it in the
/// registry.
struct ProtocolMetrics {
    SenderMetrics sender;
    ReceiverMetrics receiver;
    LoggerMetrics logger;
    StatAckMetrics stat_ack;
    LossDetectorMetrics loss;
    HostMetrics host;
    /// Registry-owned recovery-episode tracker (obs/episode.hpp); the
    /// disabled block points at EpisodeTracker::disabled().
    EpisodeTracker* episodes;
    [[nodiscard]] static const ProtocolMetrics& disabled();
};

}  // namespace lbrm::obs
