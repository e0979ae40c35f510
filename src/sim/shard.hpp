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
// Two drivers share the same window protocol:
//   * run_sharded_inline    -- one thread round-robins the shards (the
//                              reference implementation of the protocol).
//   * run_sharded_processes -- fork one child per shard; the coordinator
//                              routes length-prefixed batch frames over
//                              socketpairs (transport/frame.hpp) and merges
//                              the children's digest/metrics reports.
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
/// vs. baseline test), never across a merge.
struct TraceDigest {
    std::uint64_t sum = 0;
    std::uint64_t packets = 0;
    std::uint64_t chained = 0;  ///< order-sensitive; not merged

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
    /// filled in per shard; `observer` must be null when `make_observer` is
    /// set (each shard needs its own instance).
    ScenarioConfig scenario;
    std::uint32_t shards = 1;
    /// Explicit site->shard map; empty = ShardPlan::contiguous.
    std::vector<std::uint32_t> site_shard;

    /// Simulated time to run after start().
    Duration run_for = secs(1);
    /// Sync window; zero = derive the conservative lookahead (min cut-cable
    /// propagation) from the built topology.
    Duration window = Duration::zero();

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
    /// child installs its own TraceRecorder after GO).  Off by default --
    /// spans are wall-clock data and belong in profiling artifacts, never in
    /// determinism A/Bs.
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
    double wall_seconds = 0.0;
    /// CPU seconds burned by the busiest shard during the window loop
    /// (getrusage deltas: per child process, per domain slice for the
    /// inline driver).  deliveries / cpu_seconds_max_shard is
    /// the core-count-independent throughput bound -- what the run sustains
    /// once every shard has a core of its own, which wall time on a
    /// timesharing box cannot show.
    double cpu_seconds_max_shard = 0.0;
    /// Full metrics snapshot per shard, and the by-name sum (counters add;
    /// summed gauges read as fleet totals).
    std::vector<std::map<std::string, double>> shard_counters;
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

/// The single coherent observability artifact for a sharded run: merged
/// registry snapshot + sampler series + episode accounting and spans (one
/// Perfetto pid track per shard) + the window-protocol profile.  JSON,
/// deterministic except the explicitly wall-clock fields.
[[nodiscard]] std::string shard_observability_json(const ShardResult& r);

/// The A/B baseline: one unsharded scenario run with the same workload
/// hook.  Every sharded run must reproduce its digest bit for bit.
ShardResult run_unsharded(const ShardRunConfig& cfg);
ShardResult run_sharded_inline(const ShardRunConfig& cfg);
ShardResult run_sharded_processes(const ShardRunConfig& cfg);  // shard_proc.cpp

// --- building blocks (shared by the drivers and the tests) ----------------

/// One shard's live state.  Taps and sinks bind to the member addresses, so
/// a domain must not move after init_shard_domain.
struct ShardDomain {
    std::unique_ptr<DisScenario> scenario;
    TraceDigest digest;
    /// Boundary-crossing arrivals emitted this window, per target shard.
    std::vector<std::vector<Network::RemoteEvent>> outbox;
    std::uint64_t wait_ns = 0;  ///< time blocked on the coordinator pipe
    std::uint64_t cpu_ns = 0;   ///< CPU consumed inside the window loop
    /// Per-window deltas of wait_ns (the window-protocol profile).
    std::vector<std::uint64_t> window_wait_ns;
};

/// Resolve the site->shard map (explicit or contiguous) for `cfg`.
[[nodiscard]] std::vector<std::uint32_t> resolve_site_shard(
    const ShardRunConfig& cfg);

/// Build shard `shard` of `shards` into `dom`: construct the scenario,
/// install the digest tap and the outbox sink, run the setup hook, start().
void init_shard_domain(ShardDomain& dom, const ShardRunConfig& cfg,
                       const std::vector<std::uint32_t>& site_shard,
                       std::uint32_t shard, std::uint32_t shards);

/// The sync window for `cfg` over a built shard: explicit, or the min
/// cut-cable propagation; a cut-free plan runs in one window (= run_for).
/// Throws when the derived lookahead is not positive.
[[nodiscard]] Duration resolve_window(const ShardRunConfig& cfg,
                                      DisScenario& scenario);

/// Wire codec for boundary-crossing arrivals (multi-process runner).
void encode_remote(ByteWriter& w, const Network::RemoteEvent& ev);
[[nodiscard]] std::optional<Network::RemoteEvent> decode_remote(ByteReader& r);

}  // namespace lbrm::sim
