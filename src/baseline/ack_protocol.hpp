// A conventional positive-acknowledgement (sender-reliable) multicast
// baseline, as criticized in Section 1:
//
//   * the source must know every receiver ("positive acknowledgement
//     requires that the source know the identity of the receivers");
//   * every receiver ACKs every packet ("can lead to an acknowledgement
//     implosion at the source");
//   * the source retransmits point-to-point to non-ackers after a timeout.
//
// The bench harnesses measure its ACK implosion (packets arriving at the
// source per data packet) and its source buffering against LBRM.
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

struct AckProtocolConfig {
    NodeId self;
    GroupId group;
    NodeId source;
    /// Sender only: the full receiver list (sender-reliable requirement).
    std::vector<NodeId> receivers;
    Duration retransmit_timeout = millis(200);
    std::uint32_t max_retries = 10;
};

class AckSenderCore final : public CoreBase {
public:
    explicit AckSenderCore(AckProtocolConfig config);

    [[nodiscard]] NodeId self() const override { return config_.self; }
    Actions start(TimePoint now) override;
    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    /// Multicast one payload; the packet is retained until every receiver
    /// has acknowledged it (or retries are exhausted).
    Actions send(TimePoint now, std::vector<std::uint8_t> payload);

    [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
    [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
    [[nodiscard]] std::size_t unacked_packets() const { return pending_.size(); }
    [[nodiscard]] std::size_t buffered_bytes() const { return log_.payload_bytes(); }

private:
    struct Pending {
        std::set<NodeId> missing;  ///< receivers that have not acked
        std::uint32_t retries = 0;
    };

    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.source, config_.self}, std::move(body)};
    }

    AckProtocolConfig config_;
    SeqNum next_seq_{1};
    LogStore log_;
    std::map<SeqNum, Pending, SeqNum::WireOrder> pending_;
    std::uint64_t acks_received_ = 0;
    std::uint64_t retransmissions_ = 0;
};

class AckReceiverCore final : public CoreBase {
public:
    explicit AckReceiverCore(AckProtocolConfig config);

    [[nodiscard]] NodeId self() const override { return config_.self; }
    Actions start(TimePoint now) override;
    Actions on_packet(TimePoint now, const Packet& packet) override;
    Actions on_timer(TimePoint now, TimerId id) override;

    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
    [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

private:
    [[nodiscard]] Packet make_packet(Body body) const {
        return Packet{Header{config_.group, config_.source, config_.self}, std::move(body)};
    }

    AckProtocolConfig config_;
    LossDetector detector_;
    std::uint64_t delivered_ = 0;
    std::uint64_t acks_sent_ = 0;
};

}  // namespace lbrm::baseline
