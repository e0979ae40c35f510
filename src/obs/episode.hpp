// Recovery-episode causal tracing (see DESIGN.md "Recovery-episode tracing").
//
// An *episode* is the full lifecycle of one loss at one node: the sim time
// the gap was detected, every NACK naming it, each escalation-tier hop of
// the Section 2.2.1/2.2.3 chain (local secondary -> fallback -> primary via
// PrimaryQuery), cold-restart cycles spent parked, and the close reason --
// repaired or abandoned.  Logger-side upstream fetches (a secondary calling
// back to the primary for a packet its whole site lost) are traced as a
// second episode kind, so a repair that rode the hierarchy end to end shows
// up as nested spans.
//
// The tracker holds no per-episode state.  An open episode *is* the record
// its core already keeps for the loss -- LossDetector::Gap at a receiver,
// LoggerCore::FetchState at a secondary -- which carries the open time and
// the NACK, tier and cold-cycle tallies.  The step hooks only bump
// counters; close() takes the finished record and feeds the tier
// histogram, the bounded record buffer and the close counters.
//
// Everything here is keyed to *sim time* only, preserving the PR 5
// determinism rule: the tracker is written by the deterministic simulation
// and only ever read by exporters, so identical runs produce identical
// episode records, and a telemetry-compiled-out build produces bit-identical
// packet traces.  Mutators compile to nothing under LBRM_NO_TELEMETRY.
//
// Accounting invariant (asserted by tests and gated in CI):
//   opened == repaired + abandoned + still-open,  for both episode kinds.
// The still-open counts derive from the counters, so they are right as
// long as each core closes every record it opened exactly once.
//
// The tracker feeds three export surfaces:
//   * fixed-bucket latency histograms keyed by the highest escalation tier
//     the episode reached ("recovery.latency_s.{local,fallback,primary}"),
//   * "recovery.*" registry counters + pull gauges (sampler-ready), and
//   * bounded per-episode records, exportable as Chrome-trace async spans
//     (sim-time microseconds; one track per shard in merged exports).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace lbrm::obs {

class EpisodeTracker {
public:
    enum class Kind : std::uint8_t {
        kRecovery = 0,  ///< receiver-side: gap detected -> repaired/abandoned
        kFetch = 1,     ///< logger-side: upstream fetch opened -> served/abandoned
    };
    enum class Reason : std::uint8_t { kRepaired = 0, kAbandoned = 1 };

    /// Escalation tiers, mirroring ReceiverCore::RecoveryLevel.
    static constexpr std::uint8_t kTierLocal = 0;
    static constexpr std::uint8_t kTierFallback = 1;
    static constexpr std::uint8_t kTierPrimary = 2;

    /// One completed episode.  POD on purpose: shipped verbatim over the
    /// shard REPORT frame (obs/wire.hpp).
    struct Record {
        std::uint32_t node = 0;
        std::uint32_t seq = 0;
        double opened_s = 0.0;  ///< sim time the gap/fetch was detected
        double closed_s = 0.0;  ///< sim time of repair delivery / abandonment
        std::uint32_t nacks = 0;          ///< NACK sends / upstream fetch attempts
        std::uint32_t cold_restarts = 0;  ///< cold cycles survived
        Kind kind = Kind::kRecovery;
        std::uint8_t tier = kTierLocal;  ///< highest escalation tier reached
        Reason reason = Reason::kRepaired;
    };

    /// Registers the "recovery.*" instruments in `metrics`.  The tracker
    /// must outlive snapshots of the registry (Metrics owns its tracker).
    explicit EpisodeTracker(Metrics& metrics);
    EpisodeTracker(const EpisodeTracker&) = delete;
    EpisodeTracker& operator=(const EpisodeTracker&) = delete;

    /// Shared no-op instance for unbound cores: its handles are the shared
    /// sinks, close() keeps nothing, and the accounting reads zero, so it
    /// stays trivially balanced.
    [[nodiscard]] static EpisodeTracker& disabled();

    // --- steps of an open episode: counter bumps -------------------------
    // Receiver side (ReceiverCore); each takes the number of episodes.
    void open(std::uint64_t n = 1) { c_opened_->inc(n); }
    void nack(std::uint64_t n = 1) { c_nacks_->inc(n); }
    void escalate(std::uint64_t n = 1) { c_escalations_->inc(n); }
    void cold_restart(std::uint64_t n = 1) { c_cold_restarts_->inc(n); }
    // Logger side (LoggerCore upstream fetches).
    void fetch_open() { c_fetch_opened_->inc(); }
    void fetch_attempt() { c_fetch_attempts_->inc(); }
    void fetch_cold_restart() { c_fetch_cold_restarts_->inc(); }

    /// Close one episode: `rec` is the core's record of it, finished.
    /// Counts the close by kind and reason, observes a repair's latency in
    /// its tier's histogram (fetches: recovery.fetch_latency_s), and keeps
    /// the record while the buffer has room.
    void close(const Record& rec);

    // --- accounting (the registry counters) -----------------------------
    [[nodiscard]] std::uint64_t opened() const { return count(c_opened_); }
    [[nodiscard]] std::uint64_t repaired() const { return count(c_repaired_); }
    [[nodiscard]] std::uint64_t abandoned() const { return count(c_abandoned_); }
    [[nodiscard]] std::uint64_t open_count() const {
        return opened() - repaired() - abandoned();
    }
    [[nodiscard]] std::uint64_t fetch_opened() const { return count(c_fetch_opened_); }
    [[nodiscard]] std::uint64_t fetch_served() const { return count(c_fetch_served_); }
    [[nodiscard]] std::uint64_t fetch_abandoned() const { return count(c_fetch_abandoned_); }
    [[nodiscard]] std::uint64_t fetch_open_count() const {
        return fetch_opened() - fetch_served() - fetch_abandoned();
    }
    /// opened == repaired + abandoned + open with open >= 0, for both
    /// kinds: no episode was closed that was not opened.
    [[nodiscard]] bool balanced() const {
        return repaired() + abandoned() <= opened() &&
               fetch_served() + fetch_abandoned() <= fetch_opened();
    }

    // --- export ---------------------------------------------------------
    /// Completed episodes in close order (deterministic).  Bounded: once
    /// record_capacity records exist, further closes only count.
    [[nodiscard]] const std::vector<Record>& records() const { return records_; }
    [[nodiscard]] std::uint64_t records_dropped() const { return count(c_records_dropped_); }
    void set_record_capacity(std::size_t cap) { record_capacity_ = cap; }

    /// Chrome trace_event async spans ("ph":"b"/"e", sim-time microseconds),
    /// one process track `pid`.  Open in chrome://tracing or Perfetto.
    [[nodiscard]] std::string to_chrome_json(std::uint32_t pid = 0) const;

private:
    EpisodeTracker();  ///< the disabled() instance: sink handles, enabled_=false

    /// A registry counter's value; 0 in the disabled instance, whose
    /// handles are the shared sinks every unbound core writes to.
    [[nodiscard]] std::uint64_t count(const Counter* c) const {
        return enabled_ ? c->value() : 0;
    }

    bool enabled_ = true;
    std::size_t record_capacity_ = 1u << 16;
    std::vector<Record> records_;

    // Registry handles ("recovery.*").
    Counter* c_opened_;
    Counter* c_repaired_;
    Counter* c_abandoned_;
    Counter* c_nacks_;
    Counter* c_escalations_;
    Counter* c_cold_restarts_;
    Counter* c_fetch_opened_;
    Counter* c_fetch_served_;
    Counter* c_fetch_abandoned_;
    Counter* c_fetch_attempts_;
    Counter* c_fetch_cold_restarts_;
    Counter* c_records_dropped_;
    /// Repair latency by highest tier reached; indexed by kTier*.
    Histogram* h_latency_[3];
    Histogram* h_fetch_latency_;
};

/// Append one episode's "b"/"e" async-span pair to a traceEvents array body
/// (shared by EpisodeTracker::to_chrome_json and the merged cross-shard
/// artifact, which lays shards out as separate pid tracks).
void append_episode_span(std::string& out, const EpisodeTracker::Record& rec,
                         std::uint64_t id, std::uint32_t pid, bool& first);

}  // namespace lbrm::obs
