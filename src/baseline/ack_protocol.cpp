#include "baseline/ack_protocol.hpp"

namespace lbrm::baseline {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

AckSenderCore::AckSenderCore(AckProtocolConfig config) : config_(std::move(config)) {}

Actions AckSenderCore::start(TimePoint) { return {}; }

Actions AckSenderCore::send(TimePoint now, std::vector<std::uint8_t> payload) {
    Actions actions;
    const SeqNum seq = next_seq_++;
    const Payload shared{payload};  // the log entry and the packet share it
    log_.insert(now, seq, EpochId{0}, shared);

    Pending pending;
    for (NodeId r : config_.receivers) pending.missing.insert(r);
    pending_.emplace(seq, std::move(pending));

    actions.push_back(SendMulticast{make_packet(DataBody{seq, EpochId{0}, shared})});
    actions.push_back(StartTimer{{TimerKind::kAckWait, seq.value()},
                                 now + config_.retransmit_timeout});
    return actions;
}

Actions AckSenderCore::on_packet(TimePoint now, const Packet& packet) {
    (void)now;
    Actions actions;
    if (packet.header.group != config_.group) return actions;
    const auto* ack = std::get_if<AckBody>(&packet.body);
    if (ack == nullptr) return actions;
    ++acks_received_;

    auto it = pending_.find(ack->seq);
    if (it == pending_.end()) return actions;
    it->second.missing.erase(packet.header.sender);
    if (it->second.missing.empty()) {
        // Fully acknowledged: release the buffer (TCP-style flush).
        pending_.erase(it);
        log_.remove(ack->seq);
        actions.push_back(CancelTimer{{TimerKind::kAckWait, ack->seq.value()}});
    }
    return actions;
}

Actions AckSenderCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    if (id.kind != TimerKind::kAckWait) return actions;
    const SeqNum seq{static_cast<std::uint32_t>(id.arg)};
    auto it = pending_.find(seq);
    if (it == pending_.end()) return actions;

    if (++it->second.retries > config_.max_retries) {
        pending_.erase(it);
        actions.push_back(Notice{NoticeKind::kRecoveryFailed, seq.value()});
        return actions;
    }

    // Point-to-point retransmission to every receiver still missing.
    const LogStore::Entry* entry = log_.find(seq);
    if (entry != nullptr) {
        for (NodeId r : it->second.missing) {
            ++retransmissions_;
            actions.push_back(SendUnicast{
                r, make_packet(RetransmissionBody{entry->seq, entry->epoch, false,
                                                  entry->payload})});
        }
    }
    actions.push_back(StartTimer{{TimerKind::kAckWait, seq.value()},
                                 now + config_.retransmit_timeout});
    return actions;
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

AckReceiverCore::AckReceiverCore(AckProtocolConfig config) : config_(std::move(config)) {}

Actions AckReceiverCore::start(TimePoint) { return {}; }

Actions AckReceiverCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) return actions;

    SeqNum seq;
    const Payload* payload = nullptr;
    bool repair = false;
    if (const auto* data = std::get_if<DataBody>(&packet.body)) {
        seq = data->seq;
        payload = &data->payload;
    } else if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body)) {
        seq = rt->seq;
        payload = &rt->payload;
        repair = true;
    } else {
        return actions;
    }

    auto obs = detector_.observe(now, seq);
    // Always (re-)ACK, even duplicates: the sender may have lost our ACK.
    ++acks_sent_;
    actions.push_back(
        SendUnicast{config_.source, make_packet(AckBody{EpochId{0}, seq})});

    if (!obs.duplicate) {
        ++delivered_;
        actions.push_back(DeliverData{seq, *payload, repair || obs.fills_gap});
    }
    return actions;
}

Actions AckReceiverCore::on_timer(TimePoint, TimerId) { return {}; }

}  // namespace lbrm::baseline
