// The logging server (Sections 2, 2.2).
//
// One class implements all three roles -- the paper notes "much of the code
// is reusable across different components of the system because of the
// recursive nature of the distributed logging architecture":
//
//  * PRIMARY   logs packets handed off reliably by the source (LogStore),
//              acknowledges them with the dual sequence numbers of Section
//              2.2.3 (primary high-water + replica high-water), keeps the
//              replica set synchronized, and serves NACKs.
//  * SECONDARY passively logs the group's multicast stream at its site,
//              serves local NACKs (unicast, or site-scoped re-multicast when
//              enough receivers lost the same packet or the secondary itself
//              missed it), and calls back to the primary for packets the
//              whole site lost.  Secondaries also volunteer as Designated
//              Ackers and answer group-size probes (Section 2.3).
//  * REPLICA   mirrors the primary's log (ReplicaUpdate/ReplicaAck) and can
//              be promoted to primary after a failure (PromoteRequest).
//
// All roles answer expanding-ring DiscoveryQuery packets.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/actions.hpp"
#include "core/config.hpp"
#include "core/core_base.hpp"
#include "core/log_store.hpp"
#include "core/loss_detector.hpp"
#include "obs/episode.hpp"

namespace lbrm {

class LoggerCore final : public CoreBase {
public:
    /// `rng_seed` drives the probabilistic acker/probe volunteering only.
    LoggerCore(LoggerConfig config, std::uint64_t rng_seed);

    [[nodiscard]] NodeId self() const override { return config_.self; }
    Actions start(TimePoint now) override;
    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    // --- observability -------------------------------------------------
    [[nodiscard]] LoggerRole role() const { return role_; }
    [[nodiscard]] const LogStore& store() const { return store_; }
    [[nodiscard]] SeqNum contiguous_high_water() const { return contiguous_; }
    [[nodiscard]] bool is_designated_acker() const { return !designated_epochs_.empty(); }
    [[nodiscard]] std::uint64_t nacks_served_unicast() const { return served_unicast_; }
    [[nodiscard]] std::uint64_t nacks_served_multicast() const { return served_multicast_; }
    [[nodiscard]] std::uint64_t upstream_fetches() const { return upstream_fetches_; }
    [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
    [[nodiscard]] std::uint64_t nacks_received() const { return nacks_received_; }
    /// Stream-gap detector (secondary role): exposes gap_overflows() etc.
    [[nodiscard]] const LossDetector& detector() const { return detector_; }
    [[nodiscard]] const LoggerConfig& config() const { return config_; }
    /// Secondary's current fetch target: the configured upstream until a
    /// PrimaryReply from the source refreshes it (failover, Section 2.2.3).
    [[nodiscard]] NodeId upstream() const { return upstream_; }

    /// Bind the family-aggregate telemetry block (obs/metrics.hpp); the
    /// per-instance accessors above are unaffected.
    void bind_metrics(const obs::ProtocolMetrics& pm) override {
        obs_ = &pm.logger;
        episodes_ = pm.episodes;
        detector_.bind_metrics(pm.loss);
    }

private:
    /// One packet to obtain from upstream; also its open fetch episode
    /// (obs/episode.hpp).
    struct FetchState {
        std::set<NodeId> requesters;  ///< local receivers waiting for this seq
        std::uint32_t attempts = 0;   ///< upstream requests in the current budget
        std::uint32_t requests = 0;   ///< upstream requests, all budgets
        TimePoint opened_at{};        ///< when the fetch was opened
        TimePoint last_request{};  ///< when the last upstream NACK named this seq
        std::uint32_t cold_cycles = 0;  ///< attempt budgets exhausted so far
        TimePoint cold_until{};         ///< no requests before this instant
    };

    /// Re-multicast decision window (Section 2.2.1): NACK count per seq.
    struct RequestWindow {
        std::uint32_t count = 0;
        bool multicast_served = false;
    };

    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.source, config_.self}, std::move(body)};
    }

    /// Store a payload (any source: LogStore, multicast data, retransmission,
    /// replica update) and run everything that hangs off a new packet:
    /// contiguous high-water advance, pending local requester service,
    /// designated-acker duty, replica fan-out.
    void ingest(TimePoint now, SeqNum seq, EpochId epoch, const Payload& payload,
                bool from_live_stream, Actions& actions);

    void advance_contiguous();
    void serve_nack(TimePoint now, NodeId from, const NackBody& nack, Actions& actions);
    void serve_one(TimePoint now, NodeId from, SeqNum seq, Actions& actions);
    /// The pending fetch for `seq`, opened (with its episode) if new.
    FetchState& open_fetch(TimePoint now, SeqNum seq);
    /// Close the fetch episode whose record is `state` (obs/episode.hpp).
    void close_fetch(TimePoint now, SeqNum seq, const FetchState& state,
                     obs::EpisodeTracker::Reason reason) const;
    void schedule_fetch(TimePoint now, Actions& actions);
    Actions fire_fetch(TimePoint now);
    void watch_stream_seq(TimePoint now, SeqNum seq, bool is_heartbeat, Actions& actions);

    // Primary-only helpers.
    void primary_ack_source(Actions& actions);
    void fan_out_to_replicas(const LogStore::Entry& entry, Actions& actions);
    [[nodiscard]] SeqNum best_replica_seq() const;

    LoggerConfig config_;
    LoggerRole role_;
    Rng rng_;

    LogStore store_;
    /// Highest contiguous sequence in the log; starts at
    /// config_.initial_seq.prev() ("nothing yet"), which stays serially
    /// behind the stream even across the 2^32 wrap.
    SeqNum contiguous_;

    /// Secondary: stream-gap detection for proactive primary callbacks.
    LossDetector detector_;

    /// Secondary: packets we must obtain from upstream, one record each.
    std::map<SeqNum, FetchState, SeqNum::WireOrder> fetch_pending_;
    bool fetch_delay_armed_ = false;
    /// Current fetch target: starts at config_.upstream, refreshed from the
    /// source's PrimaryReply after the configured upstream stops answering
    /// (Section 2.2.3 failover -- the primary a secondary was wired to may
    /// no longer be the primary).
    NodeId upstream_;
    TimePoint last_primary_query_{};
    bool primary_query_sent_ = false;

    /// NACK-count windows keyed by sequence number.
    std::map<SeqNum, RequestWindow, SeqNum::WireOrder> windows_;

    /// Designated-acker state: epochs this logger volunteered for.
    std::map<EpochId, bool> designated_epochs_;

    /// Primary: per-replica cumulative acknowledgement.
    std::map<NodeId, SeqNum> replica_acked_;
    bool replica_retry_armed_ = false;

    std::uint64_t served_unicast_ = 0;
    std::uint64_t served_multicast_ = 0;
    std::uint64_t upstream_fetches_ = 0;
    std::uint64_t acks_sent_ = 0;
    std::uint64_t nacks_received_ = 0;
    const obs::LoggerMetrics* obs_ = &obs::LoggerMetrics::disabled();
    /// Upstream-fetch lifecycle tracer (obs/episode.hpp); it holds no
    /// per-fetch state: open on insert into fetch_pending_, close from the
    /// record on erase.
    obs::EpisodeTracker* episodes_ = &obs::EpisodeTracker::disabled();
};

}  // namespace lbrm
