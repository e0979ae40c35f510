// The LBRM data source (Section 2).
//
// On every application send the source:
//   * assigns the next sequence number and multicasts the data packet,
//   * reliably hands the packet to the primary logging server (LogStore,
//     retransmitted until LogAck'd) -- unless the source hosts the primary
//     log itself,
//   * retains the payload until a *replica* has it (Section 2.2.3: the
//     application may continue after the primary's ack, but the data cannot
//     be discarded until the replicated-logger sequence number covers it),
//   * resets the variable-heartbeat schedule (Section 2.1), and
//   * starts statistical-ACK accounting for the packet (Section 2.3).
//
// The source also answers PrimaryQuery (receivers refreshing a stale cached
// primary address) and runs the primary-failover state machine: when the
// primary stops acking LogStores, the best replica is promoted and the
// retained buffer replayed to it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "core/actions.hpp"
#include "core/config.hpp"
#include "core/flow_control.hpp"
#include "core/heartbeat.hpp"
#include "core/log_store.hpp"
#include "core/stat_ack.hpp"
#include "obs/metrics.hpp"

namespace lbrm {

class SenderCore {
public:
    explicit SenderCore(SenderConfig config);

    /// Arm heartbeats, begin group-size probing / first epoch.
    Actions start(TimePoint now);

    /// Multicast one application payload.  Copies `bytes` once into the
    /// buffer every packet and log entry of this update shares.
    Actions send(TimePoint now, std::span<const std::uint8_t> bytes);

    Actions on_packet(TimePoint now, const Packet& packet);
    Actions on_timer(TimePoint now, TimerId id);

    // --- observability -------------------------------------------------
    [[nodiscard]] SeqNum last_seq() const { return next_seq_.prev(); }
    [[nodiscard]] NodeId current_primary() const { return primary_; }
    [[nodiscard]] bool is_self_primary() const { return primary_ == config_.self; }
    /// Payload bytes retained pending replica safety.
    [[nodiscard]] std::size_t retained_bytes() const { return retained_.payload_bytes(); }
    [[nodiscard]] std::size_t retained_count() const { return retained_.size(); }
    /// The retained log itself (entries pending replica safety).
    [[nodiscard]] const LogStore& retained() const { return retained_; }
    [[nodiscard]] const StatAckEngine& stat_ack() const { return stat_ack_; }
    [[nodiscard]] StatAckEngine& stat_ack() { return stat_ack_; }
    [[nodiscard]] const HeartbeatScheduler& heartbeat() const { return heartbeat_; }
    /// Flow-control advice (Section 5 extension): the application should
    /// keep at least this much time between sends; zero = unconstrained.
    [[nodiscard]] Duration recommended_spacing() const {
        return flow_.recommended_spacing();
    }
    [[nodiscard]] const FlowController& flow_control() const { return flow_; }
    [[nodiscard]] std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
    [[nodiscard]] std::uint64_t data_sent() const { return data_sent_; }
    [[nodiscard]] const SenderConfig& config() const { return config_; }

    /// Bind the family-aggregate telemetry block (obs/metrics.hpp); the
    /// per-instance accessors above are unaffected.
    void bind_metrics(const obs::ProtocolMetrics& pm);

private:
    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.self, config_.self}, std::move(body)};
    }

    Actions handle_log_ack(TimePoint now, const LogAckBody& ack);
    Actions handle_nack(TimePoint now, NodeId from, const NackBody& nack);
    Actions retry_log_store(TimePoint now);
    Actions begin_failover(TimePoint now);
    Actions handle_promote_reply(TimePoint now, NodeId from, const PromoteReplyBody& reply);
    void remulticast(TimePoint now, const std::vector<SeqNum>& seqs, Actions& actions);
    void merge(Actions& dst, StatAckEngine::Result&& result, TimePoint now);
    /// Release retained payloads that are both replica-safe (Section 2.2.3)
    /// and past their statistical-ACK window (Section 2.3.2).
    void flush_retained();

    SenderConfig config_;
    HeartbeatScheduler heartbeat_;
    StatAckEngine stat_ack_;
    FlowController flow_;

    SeqNum next_seq_;
    NodeId primary_;

    /// Payloads retained until replica-safe (also serves failover replay,
    /// statistical re-multicasts, and direct NACK service when the source
    /// is its own primary).
    LogStore retained_;
    /// Highest sequence number safely logged at the primary.  Starts at
    /// initial_seq.prev() so the "nothing acked yet" state compares serially
    /// behind the first packet even when the stream begins near the wrap.
    SeqNum primary_acked_;
    /// Highest sequence number safely held by a replica.
    SeqNum replica_acked_;

    std::uint32_t log_store_retries_ = 0;

    /// Most recent payload (for data-carrying heartbeats, Section 7).
    Payload last_payload_;
    EpochId last_epoch_{0};

    /// Retransmission-channel progress: seq -> copies already sent.
    /// Wire-ordered (see seqnum.hpp); oldest entry found via serial_begin().
    std::map<SeqNum, std::uint32_t, SeqNum::WireOrder> retx_copies_;

    // Failover progress: index into config_.replicas being tried.
    bool failing_over_ = false;
    std::size_t failover_candidate_ = 0;

    std::uint64_t heartbeats_sent_ = 0;
    std::uint64_t data_sent_ = 0;
    const obs::SenderMetrics* obs_ = &obs::SenderMetrics::disabled();
};

}  // namespace lbrm
