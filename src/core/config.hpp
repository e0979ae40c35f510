// Configuration for every protocol role, with defaults taken from the paper
// (Section 2.1 heartbeat parameters, Section 2.3 statistical-ack constants).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/flow_control.hpp"

namespace lbrm::obs {
class Metrics;
}

namespace lbrm {

/// Simulator-substrate knobs consumed by sim::Network (see DESIGN.md
/// "Hierarchical routing").  These tune memory/speed trade-offs of the
/// simulated internetwork, not protocol behaviour.  The tree-cache bound is
/// exact: occupancy never changes packet timings, drop decisions or RNG
/// draw order (routes are a pure function of the last finalize()).
struct SimConfig {
    /// Bound on the number of cached multicast delivery trees across all
    /// (group, sender, scope) keys (LRU eviction; invalidation on
    /// join/leave/node-down/finalize is unaffected).  0 = unbounded.
    std::size_t tree_cache_capacity = 0;

    /// Has no effect: shard-invariant ordering (actor-keyed event tiebreaks,
    /// per-link loss streams -- DESIGN.md "Sharded execution") is the only
    /// mode.  The field remains for source compatibility and will be
    /// removed; nothing in the library reads it.
    bool shard_ordering = false;

    /// Telemetry registry shared with the network (obs/metrics.hpp).  Null =
    /// the Network creates a private one; pass a registry to share it across
    /// networks or to read it after the network is gone.  Telemetry is
    /// observation-only and never alters simulation behaviour.
    std::shared_ptr<obs::Metrics> metrics;
};

/// Variable-heartbeat parameters (Section 2.1).  The defaults are the
/// paper's running example: h_min = 0.25 s, h_max = 32 s, backoff = 2.
struct HeartbeatConfig {
    Duration h_min = secs(0.25);
    Duration h_max = secs(32.0);
    double backoff = 2.0;
    /// When true the interval never grows: the "fixed heartbeat" baseline
    /// of Section 2.1.2 (equivalent to backoff = 1).
    bool fixed = false;
};

/// Statistical acknowledgement (Section 2.3).
struct StatAckConfig {
    bool enabled = true;
    /// Desired number of designated ackers per epoch; the paper suggests
    /// "between 5 and 20".
    std::uint32_t k = 10;
    /// EWMA gain for both the t_wait RTT estimator and the N_sl group-size
    /// estimator ("alpha is some small number, say 1/8").
    double alpha = 0.125;
    /// Initial t_wait before any ACK has been observed.
    Duration initial_t_wait = millis(100);
    /// Floor/ceiling keeping the estimator sane under pathological ACK loss.
    Duration min_t_wait = millis(1);
    Duration max_t_wait = secs(5.0);
    /// Start a new epoch (fresh Acker Selection Packet) this often.
    Duration epoch_interval = secs(30.0);
    /// Re-multicast when the missing designated ackers represent at least
    /// this many sites (missing * N_sl / expected >= threshold).
    double remulticast_site_threshold = 2.0;
    /// Maximum automatic re-multicasts per data packet.
    std::uint32_t max_remulticasts = 2;
    /// Group-size estimation (Section 2.3.3): first probe probability and
    /// number of repetitions of the final probe.
    double initial_probe_p = 0.05;
    std::uint32_t probe_repeats = 3;
    /// Replies sought per probe round before the estimate is trusted.
    std::uint32_t probe_target_replies = 10;
    /// A node ACKing packets it was not designated for is blacklisted after
    /// this many spurious ACKs (Section 2.3.3 "hotlist").
    std::uint32_t faulty_acker_limit = 3;
    /// When an epoch's acker-selection window closes with zero volunteers,
    /// re-solicit after this delay instead of leaving ACK coverage dark for
    /// a whole epoch_interval.
    Duration empty_epoch_retry = secs(1.0);
};

/// Data-source configuration.
struct SenderConfig {
    NodeId self;
    GroupId group;
    /// Primary logging server; kNoNode means the source itself is primary
    /// ("the logging server need not be co-located with the source host").
    NodeId primary_logger = kNoNode;
    /// Replicas, in promotion preference order (Section 2.2.3).
    std::vector<NodeId> replicas;

    HeartbeatConfig heartbeat;
    StatAckConfig stat_ack;

    /// Source -> primary logger handoff retransmit interval and give-up
    /// count; exhaustion triggers failover to the best replica.
    Duration log_store_retry = millis(50);
    std::uint32_t log_store_max_retries = 5;

    /// First sequence number to assign (default 1).  Exposed so tests and
    /// long-lived deployments can exercise wraparound.
    SeqNum initial_seq{1};

    /// Section 7 extension: "for small packets, it might be cost-effective
    /// to retransmit the original packet instead of an empty heartbeat".
    /// When enabled and the most recent payload is at most
    /// `heartbeat_data_max_bytes`, heartbeats carry the data packet itself,
    /// repairing receivers that lost it without any retransmission request.
    bool heartbeat_carries_small_data = false;
    std::size_t heartbeat_data_max_bytes = 256;

    /// Section 7 extension: dedicated retransmission channel.  Every data
    /// packet is re-multicast `retrans_channel_copies` times on a second
    /// multicast group with exponentially growing spacing (first after
    /// `retrans_channel_first_delay`, then x2 each).  Receivers subscribe to
    /// that group on loss instead of NACKing (see ReceiverConfig).
    /// Disabled when `retrans_channel == kNoGroup`.
    GroupId retrans_channel = kNoGroup;
    std::uint32_t retrans_channel_copies = 3;
    Duration retrans_channel_first_delay = millis(40);

    /// Section 5 future-work item: slow the sender down when statistical
    /// acknowledgements report sustained loss (see core/flow_control.hpp).
    FlowControlConfig flow_control;
};

/// Receiving-application configuration.
struct ReceiverConfig {
    NodeId self;
    GroupId group;
    NodeId source;
    /// Statically configured logging server; kNoNode enables discovery.
    NodeId logger = kNoNode;
    /// Fallback used when the local logger stops answering (normally the
    /// primary; the source will be asked via PrimaryQuery as last resort).
    NodeId fallback_logger = kNoNode;

    /// Maximum Idle Time: freshness bound (Section 2; 0.25 s for terrain).
    /// With the variable heartbeat this acts as the *floor* of the idle
    /// watchdog: after a heartbeat with index k the receiver knows the next
    /// transmission is due within h_min * backoff^(k+1) (capped at h_max),
    /// so the watchdog waits max(max_idle, idle_safety * expected_gap).
    Duration max_idle = secs(0.25);
    /// The sender's heartbeat schedule (protocol constants shared by all
    /// group members) -- used to compute the expected next-packet time.
    HeartbeatConfig heartbeat;
    /// Multiplier on the expected inter-packet gap before declaring the
    /// stream stale; 2.0 mirrors the paper's 2 x t_burst detection bound.
    double idle_safety = 2.0;
    /// Widest sequence gap one packet may open in the loss detector; 0 =
    /// LossDetector::kDefaultMaxGap.  Bounds the damage of a corrupted or
    /// far-future sequence number (see loss_detector.hpp).
    std::int32_t max_detector_gap = 0;
    /// Small randomized delay before NACKing, letting reordered packets
    /// arrive (Appendix A "short retransmission request timer").
    Duration nack_delay_min = millis(5);
    Duration nack_delay_max = millis(15);
    /// Outstanding-NACK retry interval and per-server retry budget.
    Duration nack_retry = millis(200);
    std::uint32_t nack_max_retries = 3;

    /// When the whole escalation chain (local logger -> fallback ->
    /// refreshed primary) exhausts, park the missing packets and restart
    /// the chain after this pause instead of abandoning them: an outage
    /// longer than one escalation walk (a primary failing over, a healing
    /// partition) is not packet death.  recovery_cold_cycles bounds the
    /// restarts -- 0 restores the old walk-once-then-abandon behaviour --
    /// and after the last one the packets are abandoned with
    /// kRecoveryFailed (log retention is finite, so recovery must be too).
    Duration recovery_cold_retry = secs(1.0);
    std::uint32_t recovery_cold_cycles = 4;

    /// Expanding-ring discovery (Section 2.2.1): per-ring response window.
    Duration discovery_interval = millis(250);
    std::uint32_t discovery_max_rounds = 6;

    /// Section 7 extension: recover by subscribing to the sender's
    /// retransmission channel instead of NACKing.  kNoGroup disables it
    /// (standard NACK recovery).  If the channel has not repaired the gap
    /// within `retrans_channel_window` the receiver falls back to NACKs;
    /// after the last gap fills it lingers `retrans_channel_linger` before
    /// unsubscribing.
    GroupId retrans_channel = kNoGroup;
    Duration retrans_channel_window = millis(500);
    Duration retrans_channel_linger = millis(250);

    /// Section 2.2.1 alternative: "distributed logging at each site by
    /// rotating the role of log server among the local hosts in order to
    /// distribute the load".  Every listed host runs a secondary logger;
    /// receivers direct NACKs at the host owning the current time slot
    /// (slot owner = list[(now / rotation_slot) mod size]).  Empty list =
    /// dedicated-logger mode.  Escalation past the local level is
    /// unchanged.
    std::vector<NodeId> rotating_loggers;
    Duration rotation_slot = secs(2.0);
};

/// Log retention policy (Section 2: "the length of time that the logging
/// server must store a packet is application-specific").
struct RetentionPolicy {
    /// 0 = unbounded.
    std::size_t max_entries = 0;
    std::size_t max_bytes = 0;
    /// Zero duration = keep forever.
    Duration max_age = Duration::zero();
};

enum class LoggerRole : std::uint8_t {
    kPrimary = 1,
    kSecondary = 2,
    kReplica = 3,
};

/// Logging-server configuration (one instance per group served).
struct LoggerConfig {
    NodeId self;
    GroupId group;
    NodeId source;
    LoggerRole role = LoggerRole::kSecondary;
    /// For secondaries: where to fetch packets the site lost entirely.
    NodeId upstream = kNoNode;
    /// For primaries: replica set to keep synchronized.
    std::vector<NodeId> replicas;

    RetentionPolicy retention;

    /// First sequence number of the stream being logged (must match the
    /// source's SenderConfig::initial_seq).  Anchors the contiguous
    /// high-water mark so "nothing logged yet" compares serially *behind*
    /// the first packet even when the stream starts near the 2^32 wrap.
    SeqNum initial_seq{1};

    /// Widest sequence gap one packet may open in the stream-watch loss
    /// detector; 0 = LossDetector::kDefaultMaxGap (see loss_detector.hpp).
    std::int32_t max_detector_gap = 0;

    /// Secondary re-multicasts a repair (site scope) instead of unicasting
    /// when at least this many local NACKs arrive for one seq inside the
    /// counting window, or when the secondary itself missed the packet.
    std::uint32_t remulticast_request_threshold = 3;
    Duration remulticast_window = millis(30);

    /// Whether scoped-multicast repairs can reach this logger's clients.
    /// True for a site secondary (its receivers share its LAN); false for a
    /// mid-hierarchy logger (e.g. the Section 7 regional tier) whose
    /// clients are loggers at *other* sites -- those are always unicast.
    bool site_multicast_repairs = true;

    /// Delay before a secondary calls back to the primary for a missing
    /// packet.  Section 2.3.2: secondaries "should delay their
    /// retransmission requests until the primary logging server has had a
    /// chance to re-multicast the packet" (t_wait - h_min after the first
    /// heartbeat); deployments tune this to that quantity.
    Duration fetch_delay = millis(20);
    /// Secondary->primary fetch retry behaviour.
    Duration fetch_retry = millis(200);
    std::uint32_t fetch_max_retries = 5;

    /// When a full fetch attempt budget goes unanswered, the upstream may
    /// have crashed and been failed over (Section 2.2.3) -- or simply not
    /// hold the packet yet (the source's LogStore handoff is itself
    /// retried).  Rather than declaring the packet dead, re-learn the
    /// current primary from the source (PrimaryQuery) and restart the
    /// budget after this pause.  fetch_cold_cycles bounds the restarts --
    /// 0 restores the old exhaust-once-then-abandon behaviour.
    Duration fetch_cold_retry = secs(1.0);
    std::uint32_t fetch_cold_cycles = 4;

    /// Primary->replica update retransmit interval.
    Duration replica_retry = millis(100);

    /// Whether this logger answers expanding-ring discovery queries.
    bool answer_discovery = true;

    /// Secondaries volunteer as designated ackers / probe responders.
    bool participate_in_acking = true;
};

}  // namespace lbrm
