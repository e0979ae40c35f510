// Sharded simulation engine (DESIGN.md "Sharded execution").
//
// Partitions a DisScenario's sites across N shard domains.  Each shard is a
// complete DisScenario instance -- full topology, routing and group
// membership, but protocol hosts attached only for the nodes it owns -- so
// every shard resolves identical routes and delivery trees from shared
// global state.  Cross-shard packet arrivals are exchanged in time-windowed
// batches under a conservative lookahead: the window W is the minimum
// propagation delay over cut cables (cables whose endpoints live on
// different shards), so every arrival emitted during window [t, t+W) lands
// at >= t+W and can be injected at the window boundary without ever
// rolling a shard's clock back.
//
// Determinism: every event carries an actor-invariant (time, key) pair and
// every lossy link draws from its own RNG stream (sim/simulator.hpp,
// sim/link.hpp), so an N-shard run reproduces the single-process run bit
// for bit -- same transmits, same losses, same delivery times.  The runners
// assert nothing themselves; they expose an order-independent packet-trace
// digest the tests and benches A/B.
//
// Every driver runs the same window loop and hands back one ShardReport per
// domain, and one fold merges the reports into the ShardResult:
//   * run_unsharded         -- one domain with no shard view, run in one
//                              window of run_for: the reference.
//   * run_sharded_inline    -- one thread round-robins the shards and
//                              splices their outboxes in memory.
//   * run_sharded_processes -- fork one child per shard; the coordinator
//                              routes length-prefixed batch frames over
//                              socketpairs (transport/frame.hpp), and each
//                              child's REPORT frame carries its ShardReport.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "obs/episode.hpp"
#include "obs/trace.hpp"
#include "obs/wire.hpp"
#include "sim/scenario.hpp"

namespace lbrm::sim {

/// Assignment of sites to shards.  site_shard[s] owns site s; the
/// source/primary/replica complex and the backbone hub follow site 0, a
/// region's router and logger follow the region's first site (see
/// ScenarioConfig::site_shard).
struct ShardPlan {
    std::uint32_t shards = 1;
    std::vector<std::uint32_t> site_shard;

    /// Equal contiguous blocks of sites: site s -> shard s*shards/sites.
    /// Site 0 (the source complex) always lands on shard 0.
    [[nodiscard]] static ShardPlan contiguous(std::size_t sites,
                                              std::uint32_t shards);
};

/// Order-independent packet-trace digest.  One FNV-1a hash per tap record
/// -- (time, link endpoints, delivered flag, encoded packet bytes) -- summed
/// mod 2^64, so per-shard digests merge commutatively: the merged N-shard
/// digest equals the single-process digest iff both runs put exactly the
/// same packets on the same links at the same times with the same outcomes.
/// `chained` additionally folds the records in tap order; it is only
/// comparable between runs with identical event interleaving (the N=1
/// vs. baseline test), never across a merge.  A one-domain ShardResult
/// (run_unsharded, or one shard on either driver) keeps its domain's
/// chain; a multi-shard result carries none.
struct TraceDigest {
    std::uint64_t sum = 0;
    std::uint64_t packets = 0;
    std::uint64_t chained = 0;  ///< order-sensitive; merge() drops it

    void add(TimePoint at, const Link& link, const Packet& packet, bool delivered);
    void merge(const TraceDigest& o) {
        sum += o.sum;
        packets += o.packets;
    }
    /// Same packet multiset (the cross-shard-safe comparison).
    [[nodiscard]] bool same(const TraceDigest& o) const {
        return sum == o.sum && packets == o.packets;
    }
};

struct ShardRunConfig {
    /// Base scenario every shard instantiates.  site_shard / shard_self are
    /// filled in per shard from ShardPlan::contiguous; `observer` must be
    /// null when `make_observer` is set (each shard needs its own instance).
    ScenarioConfig scenario;
    std::uint32_t shards = 1;

    /// Simulated time to run after start().  The sync window is always the
    /// conservative lookahead (the min cut-cable propagation) derived from
    /// the built topology.
    Duration run_for = secs(1);

    /// Per-shard hook, called after construction and before start():
    /// pre-schedule the workload (DisScenario::schedule_update), arm chaos,
    /// start sampling.  Must be a pure function of (scenario, shard) -- the
    /// same calls in the same order on every shard -- for determinism.
    std::function<void(DisScenario&, std::uint32_t shard)> setup;
    /// Per-shard observer factory (null = each scenario's private
    /// RecordingObserver).
    std::function<std::shared_ptr<ScenarioObserver>(std::uint32_t shard)>
        make_observer;

    /// Ship wall-time trace spans in the REPORT frame (process driver: each
    /// child installs its own TraceRecorder after GO; the span list is empty
    /// otherwise).  Off by default -- spans are wall-clock data, so they land
    /// in the run artifact's `wall` section, never in a determinism A/B.
    bool collect_trace = false;
};

struct ShardResult {
    TraceDigest digest;           ///< merged across shards
    std::uint64_t deliveries = 0; ///< sim.deliveries, summed
    std::uint64_t remote_emits = 0;
    std::uint64_t remote_drops = 0;
    std::uint64_t windows = 0;
    Duration window = Duration::zero();  ///< lookahead actually used
    /// Fraction of shard wall time spent blocked on the coordinator pipe
    /// (processes); 0 for inline/single.
    double stall_fraction = 0.0;
    /// Wall time of the longest domain's window loop.
    double wall_seconds = 0.0;
    /// CPU seconds burned by the busiest shard during the window loop
    /// (getrusage deltas around each domain's slices of the loop, its share
    /// of the exchange included).  deliveries / cpu_seconds_max_shard is
    /// the core-count-independent throughput bound -- what the run sustains
    /// once every shard has a core of its own, which wall time on a
    /// timesharing box cannot show.
    double cpu_seconds_max_shard = 0.0;
    /// By-name sum of every shard's flattened metrics snapshot (counters
    /// add; summed gauges read as fleet totals).
    std::map<std::string, double> counters;
    /// Per-shard peak RSS in kB (multi-process runner only).
    std::vector<std::uint64_t> peak_rss_kb;

    // --- cross-shard telemetry plane (DESIGN.md "Cross-shard telemetry") --
    /// Structured registry merge: scalars summed, histogram buckets summed
    /// slot-wise.  flatten() of this equals the monolith's snapshot() when
    /// the runs agree (the legacy `counters` map above is derived from it).
    obs::RegistrySnapshot merged_snapshot;
    std::vector<obs::RegistrySnapshot> shard_snapshots;
    /// Sampler series merged element-wise (shards tick in lockstep).
    obs::SamplerSnapshot sampler;
    /// Completed recovery/fetch episodes, per shard (indexable as Perfetto
    /// pid tracks).
    std::vector<std::vector<obs::EpisodeTracker::Record>> shard_episodes;
    /// Wall-time trace spans per shard (only when ShardRunConfig::
    /// collect_trace; process driver ships the children's rings).
    std::vector<std::vector<obs::PortableSpan>> shard_spans;
    /// Window-protocol profile: per-shard per-window ns blocked on the
    /// coordinator pipe (processes), and the coordinator's per-window
    /// splice/injection time.
    std::vector<std::vector<std::uint64_t>> shard_window_wait_ns;
    std::vector<std::uint64_t> window_splice_ns;
};

/// The run artifact, the one observability export (DESIGN.md "Cross-shard
/// telemetry", "One artifact"): one JSON object with the sections `shards`,
/// `snapshot`, `sampler`, `episodes`, `episode_trace`, `window` and, last,
/// `wall`, which holds every wall-clock number, so two runs of one config
/// write the same bytes up to `,"wall":`.
[[nodiscard]] std::string observability_json(const ShardResult& r);

/// The spans `rec` retains, in the owning form a ShardReport and a
/// ShardResult carry them.
[[nodiscard]] std::vector<obs::PortableSpan> portable_spans(const obs::TraceRecorder& rec);

/// A scenario driven by hand (its own run_for calls) as a one-shard result,
/// through the report and fold run_unsharded applies after its window loop:
/// no digest and no windows, and wall_seconds 0 unless the caller sets it.
[[nodiscard]] ShardResult scenario_result(DisScenario& scenario);

/// Whether a registry row or sampler series sums across shards to the
/// monolith's: the protocol, host and episode rows and sim.deliveries.  The
/// cross-shard plumbing counts (sim.remote_*) differ by design.
[[nodiscard]] bool telemetry_comparable(const std::string& name);

/// The rule a sharded run's merged telemetry meets against the monolith's
/// (DESIGN.md "Cross-shard telemetry", "Equality claim").  Returns what
/// differs -- row names, "histogram set", "episode records" -- and nothing
/// when the runs agree.
[[nodiscard]] std::vector<std::string> telemetry_mismatches(const ShardResult& mono,
                                                            const ShardResult& sharded);

/// The A/B baseline: one unsharded scenario run with the same workload
/// hook.  Every sharded run must reproduce its digest bit for bit.  The
/// sharded drivers throw std::invalid_argument, before building or forking
/// anything, when `use_retrans_channel` is set with more than one shard:
/// that channel's joins change membership in one shard only.
ShardResult run_unsharded(const ShardRunConfig& cfg);
ShardResult run_sharded_inline(const ShardRunConfig& cfg);
ShardResult run_sharded_processes(const ShardRunConfig& cfg);

/// What one shard domain hands back when its run ends.  Every driver builds
/// one per domain and folds them into its ShardResult; the process driver's
/// REPORT frame is the kReport byte followed by this field list.
struct ShardReport {
    TraceDigest digest;
    Duration window = Duration::zero();
    std::uint64_t windows = 0;
    std::uint64_t wait_ns = 0;      ///< blocked on the coordinator pipe
    std::uint64_t wall_ns = 0;      ///< wall time of the window loop
    std::uint64_t cpu_ns = 0;       ///< CPU of this domain's slices of the loop
    std::uint64_t peak_rss_kb = 0;  ///< the child's getrusage peak; 0 in-process
    obs::RegistrySnapshot registry;
    obs::SamplerSnapshot sampler;
    std::vector<obs::EpisodeTracker::Record> episodes;
    std::vector<std::uint64_t> window_wait_ns;  ///< per window; sums to wait_ns
    std::vector<obs::PortableSpan> spans;       ///< empty unless collect_trace
};

void fields(auto& a, MaybeConst<ShardReport> auto& r) {
    a(r.digest.sum, r.digest.packets, r.digest.chained, r.window, r.windows, r.wait_ns,
      r.wall_ns, r.cpu_ns, r.peak_rss_kb, r.registry, r.sampler,
      counted<std::uint32_t>(r.episodes), counted<std::uint32_t>(r.window_wait_ns),
      counted<std::uint32_t>(r.spans));
}

/// Read a ShardReport.  nullopt on a short read, and on an episode kind,
/// tier or reason out of range: the bytes come from another process.
[[nodiscard]] std::optional<ShardReport> read_report(ByteReader& r);

/// Wire codec for boundary-crossing arrivals (multi-process runner).
/// decode_remote returns nullopt on a short read, and on a kind or
/// multicast scope out of range or an empty multicast segment.
void encode_remote(ByteWriter& w, const Network::RemoteEvent& ev);
[[nodiscard]] std::optional<Network::RemoteEvent> decode_remote(ByteReader& r);

}  // namespace lbrm::sim
