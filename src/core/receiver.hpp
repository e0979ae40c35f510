// The LBRM receiving endpoint (Sections 2, 2.2).
//
// Receivers define their own reliability: this core detects loss (sequence
// gaps and MaxIT silence), requests missing packets from its logging-server
// hierarchy, and reports freshness to the application.  It never positively
// acknowledges anything to the source.
//
// Recovery escalation mirrors Section 2.2.1/2.2.3:
//   local (secondary) logger -> configured fallback (usually the primary)
//   -> ask the source for the current primary (PrimaryQuery) -> abandon.
// The logging-server address is treated as a cached value throughout.
//
// When no logger is configured the core locates one with expanding-ring
// scoped multicast discovery (site ring, then region, then global).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/actions.hpp"
#include "core/config.hpp"
#include "core/core_base.hpp"
#include "core/loss_detector.hpp"
#include "obs/episode.hpp"

namespace lbrm {

class ReceiverCore final : public CoreBase {
public:
    /// Multiplier on the expected inter-packet gap before declaring the
    /// stream stale; 2.0 mirrors the paper's 2 x t_burst detection bound.
    static constexpr double kIdleSafety = 2.0;

    /// A receiver with a policy of its own: `config` moves into one heap
    /// block that only this core holds.
    explicit ReceiverCore(ReceiverConfig config);
    /// A receiver sharing `policy` with others: every field but the three
    /// ids comes from it, and the core never reads the policy's own self,
    /// logger or fallback_logger.  Holds a reference, copies nothing.
    ReceiverCore(std::shared_ptr<const ReceiverConfig> policy, NodeId self, NodeId logger,
                 NodeId fallback_logger);

    /// Arm the freshness watchdog and start logger discovery if needed.
    Actions start(TimePoint now) override;

    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    // --- observability -------------------------------------------------
    [[nodiscard]] NodeId current_logger() const;
    /// Like current_logger(), but at the local level resolves the rotating
    /// log-server schedule (Section 2.2.1 alternative) for time `now`.
    [[nodiscard]] NodeId current_logger(TimePoint now) const;
    [[nodiscard]] bool fresh() const { return fresh_; }
    [[nodiscard]] const LossDetector& detector() const { return detector_; }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
    [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
    [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
    [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
    [[nodiscard]] std::uint64_t recovery_failures() const { return recovery_failures_; }
    [[nodiscard]] NodeId self() const override { return self_; }
    /// This receiver's full configuration: the shared policy with its own
    /// ids.
    [[nodiscard]] ReceiverConfig config() const;

    /// Bind the family-aggregate telemetry block (obs/metrics.hpp); the
    /// per-instance accessors above are unaffected.
    void bind_metrics(const obs::ProtocolMetrics& pm) override {
        metrics_ = &pm;
        detector_.bind_metrics(pm.loss);
    }

    // --- dormant-receiver support (runtime/protocol_host.hpp) ----------
    /// The idle-watchdog delay start() arms before any packet is seen,
    /// exposed so a dormant record can schedule the identical timer
    /// without materialising the core.
    [[nodiscard]] static Duration initial_idle_threshold(const ReceiverConfig& config) {
        const Duration scaled = scale(config.heartbeat.h_min, kIdleSafety);
        return scaled > config.max_idle ? scaled : config.max_idle;
    }

    /// Restore the post-start() flags on a freshly constructed core when a
    /// dormant receiver wakes.  The constructor is pure and start() only
    /// sets these two fields (plus discovery state, which dormant mode
    /// excludes -- the logger is statically configured), so a woken core
    /// is bit-identical to one that called start() and then idled.
    void restore_started(bool fresh) {
        started_ = true;
        fresh_ = fresh;
    }

private:
    enum class RecoveryLevel : std::uint8_t {
        kLocal = 0,     ///< discovered/configured (secondary) logger
        kFallback = 1,  ///< configured fallback (usually the primary)
        kPrimary = 2,   ///< primary learned from the source via PrimaryQuery
    };

    explicit ReceiverCore(const std::shared_ptr<const ReceiverConfig>& owned);

    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{policy_->group, policy_->source, self_}, std::move(body)};
    }

    /// Run one payload-carrying packet through the detector, appending the
    /// resulting actions to the caller's `actions`.  The delivery shares
    /// `payload`'s buffer.
    void accept_payload(TimePoint now, SeqNum seq, const Payload& payload, bool recovered,
                        Actions& actions);
    /// Route newly-detected losses into recovery: notices and episodes,
    /// then NACK scheduling, or the retransmission channel when configured.
    void begin_recovery(TimePoint now, const std::vector<SeqNum>& newly_missing,
                        Actions& actions);
    /// All gaps just closed: wind recovery down.
    void recovery_complete(TimePoint now, Actions& actions);
    /// Live-stream packet heard: restore freshness and re-arm the idle
    /// watchdog for `expected_gap` (the known time to the next heartbeat).
    void note_live_traffic(TimePoint now, Duration expected_gap, Actions& actions);
    /// Expected silence after a heartbeat carrying index k.
    [[nodiscard]] Duration gap_after_heartbeat(std::uint32_t index) const;
    [[nodiscard]] Duration idle_threshold(Duration expected_gap) const;
    void schedule_nack(TimePoint now, Actions& actions);
    /// Close the recovery episode whose record is `gap` (obs/episode.hpp).
    void close_episode(TimePoint now, SeqNum seq, const LossDetector::Gap& gap,
                       obs::EpisodeTracker::Reason reason) const;
    Actions fire_nack(TimePoint now);
    Actions escalate(TimePoint now);
    Actions discovery_round(TimePoint now);

    /// Deterministic jitter in [min, max) derived from self id + a counter,
    /// keeping the core free of hidden RNG state.
    [[nodiscard]] Duration nack_jitter();

    // Ordered so that the core carries no padding (DESIGN.md "Memory engineering").
    /// Identity: the only configuration that differs between the
    /// receivers of one group (the configured logger is kept for config();
    /// logger_ is the cached, live one: kNoNode = unknown).
    NodeId self_;
    NodeId configured_logger_;
    NodeId fallback_;
    NodeId logger_;
    /// Everything else, immutable and shared: a scenario's receivers, or a
    /// dormant template's woken ones, hold one object between them.
    std::shared_ptr<const ReceiverConfig> policy_;
    /// Also the recovery state: each open gap's record carries its NACK
    /// rounds, cold cycles, NACK total and highest tier, and is the loss's
    /// open recovery episode (LossDetector::Gap).
    LossDetector detector_;

    /// Expected silence until the next live transmission; grows with the
    /// sender's backoff.  Tracked explicitly (not just from heartbeat
    /// indices) so data-carrying heartbeats -- duplicates of the last data
    /// packet, Section 7 -- keep the watchdog calibrated too.
    Duration expected_gap_;

    // Discovery state
    std::uint32_t discovery_round_ = 0;
    std::uint32_t discovery_nonce_ = 0;

    std::uint64_t jitter_state_;

    std::uint64_t delivered_ = 0;
    std::uint64_t recovered_ = 0;
    std::uint64_t nacks_sent_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t recovery_failures_ = 0;
    /// The bound telemetry block: the receiver counters, and `episodes`,
    /// the per-loss lifecycle tracer (obs/episode.hpp), whose per-loss
    /// state lives in the gap records.
    const obs::ProtocolMetrics* metrics_ = &obs::ProtocolMetrics::disabled();

    RecoveryLevel level_ = RecoveryLevel::kLocal;
    bool primary_query_outstanding_ = false;
    bool nack_timer_armed_ = false;
    bool fresh_ = true;
    bool started_ = false;
    /// Section 7 retransmission channel: currently subscribed?
    bool retx_joined_ = false;
    bool discovering_ = false;
};

}  // namespace lbrm
