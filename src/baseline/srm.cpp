#include "baseline/srm.hpp"

namespace lbrm::baseline {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SrmSenderCore::SrmSenderCore(SrmConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      jitter_state_(seed ^ (0xA0761D6478BD642Full + config_.self.value())) {}

double SrmSenderCore::jitter() {
    jitter_state_ ^= jitter_state_ >> 12;
    jitter_state_ ^= jitter_state_ << 25;
    jitter_state_ ^= jitter_state_ >> 27;
    return static_cast<double>((jitter_state_ * 0x2545F4914F6CDD1Dull) >> 11) /
           9007199254740992.0;
}

Actions SrmSenderCore::start(TimePoint now) {
    Actions actions;
    actions.push_back(
        StartTimer{{TimerKind::kHeartbeat, 0}, now + config_.session_interval});
    return actions;
}

Actions SrmSenderCore::send(TimePoint now, std::vector<std::uint8_t> payload) {
    Actions actions;
    const SeqNum seq = next_seq_++;
    const Payload shared{payload};  // the log entry and the packet share it
    log_.insert(now, seq, EpochId{0}, shared);
    actions.push_back(SendMulticast{make_packet(DataBody{seq, EpochId{0}, shared})});
    return actions;
}

Actions SrmSenderCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) return actions;

    if (const auto* nack = std::get_if<NackBody>(&packet.body)) {
        // Like every SRM member, the source delays its repair by a
        // randomized [d1, d1+d2] x RTT window so that a closer holder can
        // win the race, and suppresses if it hears another repair first.
        for (SeqNum seq : nack->missing) {
            if (!log_.contains(seq) || repair_armed_.contains(seq)) continue;
            repair_armed_.insert(seq);
            const double rtt = to_seconds(config_.rtt_to_source);
            const double delay = (config_.d1 + config_.d2 * jitter()) * rtt;
            actions.push_back(StartTimer{{TimerKind::kRemcastWindow, seq.value()},
                                         now + secs(delay)});
        }
        return actions;
    }

    if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body)) {
        // Someone else repaired it: suppress our own repair.
        if (repair_armed_.erase(rt->seq) > 0)
            actions.push_back(CancelTimer{{TimerKind::kRemcastWindow, rt->seq.value()}});
        return actions;
    }

    return actions;
}

Actions SrmSenderCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    if (id.kind == TimerKind::kHeartbeat) {
        actions.push_back(SendMulticast{make_packet(HeartbeatBody{last_seq(), 0})});
        actions.push_back(
            StartTimer{{TimerKind::kHeartbeat, 0}, now + config_.session_interval});
        return actions;
    }
    if (id.kind == TimerKind::kRemcastWindow) {
        const SeqNum seq{static_cast<std::uint32_t>(id.arg)};
        if (repair_armed_.erase(seq) == 0) return actions;
        if (const LogStore::Entry* entry = log_.find(seq)) {
            actions.push_back(SendMulticast{make_packet(RetransmissionBody{
                entry->seq, entry->epoch, true, entry->payload})});
        }
        return actions;
    }
    return actions;
}

// ---------------------------------------------------------------------------
// Member
// ---------------------------------------------------------------------------

SrmMemberCore::SrmMemberCore(SrmConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      jitter_state_(seed ^ (0xD1B54A32D192ED03ull + config_.self.value())) {}

double SrmMemberCore::jitter() {
    jitter_state_ ^= jitter_state_ >> 12;
    jitter_state_ ^= jitter_state_ << 25;
    jitter_state_ ^= jitter_state_ >> 27;
    return static_cast<double>((jitter_state_ * 0x2545F4914F6CDD1Dull) >> 11) /
           9007199254740992.0;
}

Actions SrmMemberCore::start(TimePoint) { return {}; }

void SrmMemberCore::schedule_request(TimePoint now, SeqNum seq, bool backoff,
                                     Actions& actions) {
    RequestState& state = requests_[seq];
    if (backoff) ++state.rounds;
    if (state.rounds >= config_.max_request_rounds) {
        requests_.erase(seq);
        detector_.abandon(seq);
        actions.push_back(Notice{NoticeKind::kRecoveryFailed, seq.value()});
        return;
    }
    // Delay uniform in [c1, c1+c2] x RTT, doubled per backoff round (SRM).
    const double rtt = to_seconds(config_.rtt_to_source);
    const double scale_factor = static_cast<double>(1u << state.rounds);
    const double delay = (config_.c1 + config_.c2 * jitter()) * rtt * scale_factor;
    state.timer_armed = true;
    actions.push_back(
        StartTimer{{TimerKind::kNackDelay, seq.value()}, now + secs(delay)});
}

Actions SrmMemberCore::accept_data(TimePoint now, SeqNum seq, EpochId epoch,
                                   const Payload& payload, bool is_repair) {
    Actions actions;
    auto obs = detector_.observe(now, seq);
    // Cache everything: any member can serve any repair.
    cache_.insert(now, seq, epoch, payload);

    // A repair (or late arrival) settles our own request and repair timers.
    if (auto it = requests_.find(seq); it != requests_.end()) {
        if (it->second.timer_armed)
            actions.push_back(CancelTimer{{TimerKind::kNackDelay, seq.value()}});
        requests_.erase(it);
    }
    if (repair_armed_.erase(seq) > 0)
        actions.push_back(CancelTimer{{TimerKind::kRemcastWindow, seq.value()}});

    for (SeqNum missing : obs.newly_missing) {
        actions.push_back(Notice{NoticeKind::kLossDetected, missing.value()});
        schedule_request(now, missing, /*backoff=*/false, actions);
    }

    if (!obs.duplicate) {
        ++delivered_;
        actions.push_back(DeliverData{seq, payload, is_repair || obs.fills_gap});
    }
    return actions;
}

Actions SrmMemberCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) return actions;

    if (const auto* data = std::get_if<DataBody>(&packet.body))
        return accept_data(now, data->seq, data->epoch, data->payload, false);

    if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body))
        return accept_data(now, rt->seq, rt->epoch, rt->payload, true);

    if (const auto* hb = std::get_if<HeartbeatBody>(&packet.body)) {
        auto obs = detector_.observe(now, hb->last_seq, /*is_heartbeat=*/true);
        for (SeqNum missing : obs.newly_missing) {
            actions.push_back(Notice{NoticeKind::kLossDetected, missing.value()});
            schedule_request(now, missing, false, actions);
        }
        return actions;
    }

    if (const auto* nack = std::get_if<NackBody>(&packet.body)) {
        // Someone else is asking.  For packets we also miss: suppress our own
        // request and back off.  For packets we hold: race to repair.
        for (SeqNum seq : nack->missing) {
            if (auto it = requests_.find(seq); it != requests_.end()) {
                if (it->second.timer_armed) {
                    it->second.timer_armed = false;
                    actions.push_back(CancelTimer{{TimerKind::kNackDelay, seq.value()}});
                }
                schedule_request(now, seq, /*backoff=*/true, actions);
            } else if (cache_.contains(seq) && !repair_armed_.contains(seq)) {
                repair_armed_.insert(seq);
                const double rtt = to_seconds(config_.rtt_to_source);
                const double delay = (config_.d1 + config_.d2 * jitter()) * rtt;
                actions.push_back(StartTimer{{TimerKind::kRemcastWindow, seq.value()},
                                             now + secs(delay)});
            }
        }
        return actions;
    }

    return actions;
}

Actions SrmMemberCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    const SeqNum seq{static_cast<std::uint32_t>(id.arg)};

    if (id.kind == TimerKind::kNackDelay) {
        // Our request timer fired: multicast the repair request to everyone.
        auto it = requests_.find(seq);
        if (it == requests_.end() || !detector_.is_missing(seq)) return actions;
        it->second.timer_armed = false;
        ++requests_sent_;
        actions.push_back(SendMulticast{make_packet(NackBody{{seq}})});
        // Await a repair; if none comes, the next sighting of our own or
        // anyone's request backs off.  Re-arm with backoff.
        schedule_request(now, seq, /*backoff=*/true, actions);
        return actions;
    }

    if (id.kind == TimerKind::kRemcastWindow) {
        // Our repair timer fired first: multicast the repair.
        if (repair_armed_.erase(seq) == 0) return actions;
        if (const LogStore::Entry* entry = cache_.find(seq)) {
            ++repairs_sent_;
            actions.push_back(SendMulticast{make_packet(RetransmissionBody{
                entry->seq, entry->epoch, true, entry->payload})});
        }
        return actions;
    }

    return actions;
}

}  // namespace lbrm::baseline
