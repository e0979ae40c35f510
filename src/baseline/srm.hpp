// A wb/SRM-style reliable-multicast model, built to Section 6's description
// of the protocol LBRM is compared against:
//
//   * "a receiver requests lost packets from everyone in the group, and
//     anyone with the packet may respond" -- repair requests and repairs are
//     both multicast to the whole group;
//   * "a receiver must delay its retransmission request for a time
//     proportional to the RTT delay to the source (in order to avoid
//     duplicate requests)" -- request timer drawn uniformly from
//     [c1, c1+c2] x RTT, suppressed and exponentially backed off when
//     another member's request for the same packet is heard;
//   * responders likewise delay repairs by [d1, d1+d2] x RTT and suppress
//     on hearing another repair;
//   * low-rate groups rely on "periodic multicast session messages at fixed
//     intervals to discover losses" -- the fixed-heartbeat scheme.
//
// The model reproduces wb's recovery-time structure (~3 x RTT for the last
// receiver, Section 6) and its "crying baby" behaviour, which the
// bench_sec6_wb_comparison harness measures against LBRM.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/actions.hpp"
#include "core/core_base.hpp"
#include "core/log_store.hpp"
#include "core/loss_detector.hpp"

namespace lbrm::baseline {

struct SrmConfig {
    NodeId self;
    GroupId group;
    NodeId source;
    /// Estimated RTT to the source (SRM request/repair timers scale by it).
    Duration rtt_to_source = millis(80);
    /// Request timer window [c1, c1+c2] x RTT (SRM's C1/C2, both 1 in wb).
    double c1 = 1.0;
    double c2 = 1.0;
    /// Repair timer window [d1, d1+d2] x RTT.
    double d1 = 1.0;
    double d2 = 1.0;
    /// Session-message (fixed heartbeat) interval for the sender.
    Duration session_interval = secs(0.25);
    /// Give up re-requesting after this many backoff rounds.
    std::uint32_t max_request_rounds = 6;
};

/// The wb data source: multicasts data, answers repair requests like any
/// other member, and emits fixed-interval session messages.
class SrmSenderCore final : public CoreBase {
public:
    SrmSenderCore(SrmConfig config, std::uint64_t seed);

    [[nodiscard]] NodeId self() const override { return config_.self; }
    Actions start(TimePoint now) override;
    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    /// Multicast one application payload.
    Actions send(TimePoint now, std::vector<std::uint8_t> payload);

    [[nodiscard]] SeqNum last_seq() const { return next_seq_.prev(); }

private:
    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.source, config_.self}, std::move(body)};
    }
    [[nodiscard]] double jitter();

    SrmConfig config_;
    SeqNum next_seq_{1};
    LogStore log_;
    /// Armed repair timers: like any SRM member, the source delays repairs
    /// by [d1, d1+d2] x RTT and suppresses on hearing someone else's repair.
    std::set<SeqNum, SeqNum::WireOrder> repair_armed_;
    std::uint64_t jitter_state_;
};

/// A wb group member: receives, caches, requests repairs from the group and
/// serves repairs from its cache.
class SrmMemberCore final : public CoreBase {
public:
    SrmMemberCore(SrmConfig config, std::uint64_t seed);

    [[nodiscard]] NodeId self() const override { return config_.self; }
    Actions start(TimePoint now) override;
    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }
    [[nodiscard]] std::uint64_t repairs_sent() const { return repairs_sent_; }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
    [[nodiscard]] const LossDetector& detector() const { return detector_; }

private:
    struct RequestState {
        std::uint32_t rounds = 0;   ///< backoff exponent
        bool timer_armed = false;
    };

    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.source, config_.self}, std::move(body)};
    }

    [[nodiscard]] double jitter();  // uniform [0,1), deterministic stream
    void schedule_request(TimePoint now, SeqNum seq, bool backoff, Actions& actions);
    Actions accept_data(TimePoint now, SeqNum seq, EpochId epoch, const Payload& payload,
                        bool is_repair);

    SrmConfig config_;
    LossDetector detector_;
    LogStore cache_;
    std::map<SeqNum, RequestState, SeqNum::WireOrder> requests_;
    /// Repairs we owe the group (armed repair timers), keyed by seq.
    std::set<SeqNum, SeqNum::WireOrder> repair_armed_;

    std::uint64_t jitter_state_;
    std::uint64_t requests_sent_ = 0;
    std::uint64_t repairs_sent_ = 0;
    std::uint64_t delivered_ = 0;
};

}  // namespace lbrm::baseline
