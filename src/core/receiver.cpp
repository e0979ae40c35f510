#include "core/receiver.hpp"

#include <algorithm>

namespace lbrm {

ReceiverCore::ReceiverCore(ReceiverConfig config)
    : config_(std::move(config)), detector_(config_.max_detector_gap),
      logger_(config_.logger), expected_gap_(config_.heartbeat.h_min),
      jitter_state_(0x9E3779B97F4A7C15ull ^ config_.self.value()) {}

NodeId ReceiverCore::current_logger(TimePoint now) const {
    if (level_ == RecoveryLevel::kLocal && !config_.rotating_loggers.empty() &&
        config_.rotation_slot > Duration::zero()) {
        const auto slots = now.time_since_epoch() / config_.rotation_slot;
        const std::size_t owner = static_cast<std::size_t>(
            static_cast<std::uint64_t>(slots) % config_.rotating_loggers.size());
        return config_.rotating_loggers[owner];
    }
    return current_logger();
}

NodeId ReceiverCore::current_logger() const {
    switch (level_) {
        case RecoveryLevel::kLocal:
            if (logger_ != kNoNode) return logger_;
            [[fallthrough]];
        case RecoveryLevel::kFallback:
            if (config_.fallback_logger != kNoNode) return config_.fallback_logger;
            [[fallthrough]];
        case RecoveryLevel::kPrimary:
            return config_.source;
    }
    return config_.source;
}

Duration ReceiverCore::nack_jitter() {
    // xorshift64* step: deterministic per-receiver jitter stream.
    jitter_state_ ^= jitter_state_ >> 12;
    jitter_state_ ^= jitter_state_ << 25;
    jitter_state_ ^= jitter_state_ >> 27;
    const std::uint64_t r = jitter_state_ * 0x2545F4914F6CDD1Dull;
    const double frac = static_cast<double>(r >> 11) / 9007199254740992.0;  // [0,1)
    const Duration span = config_.nack_delay_max - config_.nack_delay_min;
    return config_.nack_delay_min + scale(span, frac);
}

Actions ReceiverCore::start(TimePoint now) {
    Actions actions;
    started_ = true;
    actions.push_back(StartTimer{
        {TimerKind::kIdle, 0}, now + idle_threshold(config_.heartbeat.h_min)});
    if (logger_ == kNoNode) {
        discovering_ = true;
        discovery_round_ = 0;
        append(actions, discovery_round(now));
    }
    return actions;
}

Actions ReceiverCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) {
        // Retransmission-channel copies arrive on their own group.
        if (config_.retrans_channel != kNoGroup &&
            packet.header.group == config_.retrans_channel) {
            if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body))
                accept_payload(now, rt->seq, rt->payload, /*recovered=*/true, actions);
        }
        return actions;
    }

    if (const auto* data = std::get_if<DataBody>(&packet.body)) {
        // After a data packet the first heartbeat is due within h_min;
        // a *repeated* data packet is a data-carrying heartbeat (Section 7)
        // whose successor follows the grown backoff schedule.
        const bool repeat =
            detector_.highest_seen() && data->seq <= *detector_.highest_seen();
        expected_gap_ = repeat ? std::min(config_.heartbeat.h_max,
                                          scale(expected_gap_, config_.heartbeat.backoff))
                               : config_.heartbeat.h_min;
        note_live_traffic(now, expected_gap_, actions);
        accept_payload(now, data->seq, data->payload, /*recovered=*/false, actions);
        return actions;
    }

    if (const auto* hb = std::get_if<HeartbeatBody>(&packet.body)) {
        expected_gap_ = gap_after_heartbeat(hb->index);
        note_live_traffic(now, expected_gap_, actions);
        auto obs = detector_.observe(now, hb->last_seq, /*is_heartbeat=*/true);
        if (!obs.newly_missing.empty()) {
            for (SeqNum s : obs.newly_missing)
                actions.push_back(Notice{NoticeKind::kLossDetected, s.value()});
            for (SeqNum s : obs.newly_missing) {
                pending_.emplace(s, PendingRecovery{now, 0});
                episodes_->open(now, config_.self, s);
            }
            begin_recovery(now, actions);
        }
        return actions;
    }

    if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body)) {
        // Repairs come from loggers, not the source: they fill gaps but do
        // not prove the live stream is healthy, so the idle watchdog is
        // deliberately not re-armed here.
        accept_payload(now, rt->seq, rt->payload, /*recovered=*/true, actions);
        return actions;
    }

    if (const auto* reply = std::get_if<DiscoveryReplyBody>(&packet.body)) {
        if (discovering_ && reply->nonce == discovery_nonce_) {
            discovering_ = false;
            logger_ = reply->logger;
            level_ = RecoveryLevel::kLocal;
            actions.push_back(CancelTimer{{TimerKind::kDiscovery, 0}});
            actions.push_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
            if (!pending_.empty()) schedule_nack(now, actions);
        }
        return actions;
    }

    if (const auto* reply = std::get_if<PrimaryReplyBody>(&packet.body)) {
        if (primary_query_outstanding_) {
            primary_query_outstanding_ = false;
            logger_ = reply->primary;
            level_ = RecoveryLevel::kLocal;
            for (auto& [seq, rec] : pending_) rec.attempts_at_level = 0;
            actions.push_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
            if (!pending_.empty()) schedule_nack(now, actions);
        }
        return actions;
    }

    return actions;
}

void ReceiverCore::accept_payload(TimePoint now, SeqNum seq, const Payload& payload,
                                  bool recovered, Actions& actions) {
    auto obs = detector_.observe(now, seq, /*is_heartbeat=*/false);

    if (obs.duplicate) {
        ++duplicates_;
        obs_->duplicates->inc();
        return;
    }

    for (SeqNum s : obs.newly_missing)
        actions.push_back(Notice{NoticeKind::kLossDetected, s.value()});
    for (SeqNum s : obs.newly_missing) {
        pending_.emplace(s, PendingRecovery{now, 0});
        episodes_->open(now, config_.self, s);
    }
    if (!obs.newly_missing.empty()) begin_recovery(now, actions);

    if (obs.fills_gap) {
        if (auto pit = pending_.find(seq); pit != pending_.end()) {
            obs_->recovery_latency->observe(
                to_seconds(now - pit->second.first_detected));
            pending_.erase(pit);
        }
        episodes_->close_repaired(now, config_.self, seq);
        ++recovered_;
        obs_->recovered->inc();
        if (pending_.empty()) {
            actions.push_back(CancelTimer{{TimerKind::kNackRetry, 0}});
        }
        if (detector_.missing_count() == 0) recovery_complete(now, actions);
    }

    ++delivered_;
    obs_->delivered->inc();
    actions.push_back(DeliverData{seq, payload, recovered || obs.fills_gap});
}

Duration ReceiverCore::gap_after_heartbeat(std::uint32_t index) const {
    // After the heartbeat with index k the sender's interval has been grown
    // k+1 times: h_min * backoff^(k+1), saturating at h_max.
    Duration gap = config_.heartbeat.h_min;
    if (config_.heartbeat.fixed) return gap;
    const std::uint32_t steps = std::min<std::uint32_t>(index + 1, 64);
    for (std::uint32_t i = 0; i < steps; ++i) {
        gap = scale(gap, config_.heartbeat.backoff);
        if (gap >= config_.heartbeat.h_max) return config_.heartbeat.h_max;
    }
    return gap;
}

Duration ReceiverCore::idle_threshold(Duration expected_gap) const {
    const Duration scaled = scale(expected_gap, config_.idle_safety);
    return scaled > config_.max_idle ? scaled : config_.max_idle;
}

void ReceiverCore::note_live_traffic(TimePoint now, Duration expected_gap,
                                     Actions& actions) {
    if (!fresh_) {
        fresh_ = true;
        actions.push_back(Notice{NoticeKind::kFreshnessRestored, 0});
    }
    actions.push_back(
        StartTimer{{TimerKind::kIdle, 0}, now + idle_threshold(expected_gap)});
}

void ReceiverCore::begin_recovery(TimePoint now, Actions& actions) {
    if (config_.retrans_channel == kNoGroup) {
        schedule_nack(now, actions);
        return;
    }
    // Section 7 strategy: subscribe to the retransmission channel and wait
    // for the sender's exponentially-spaced copies; NACKs only as fallback.
    if (!retx_joined_) {
        retx_joined_ = true;
        actions.push_back(JoinGroup{config_.retrans_channel});
    }
    actions.push_back(CancelTimer{{TimerKind::kRetxLinger, 0}});
    actions.push_back(StartTimer{{TimerKind::kRetxFallback, 0},
                                 now + config_.retrans_channel_window});
}

void ReceiverCore::recovery_complete(TimePoint now, Actions& actions) {
    if (!retx_joined_) return;
    actions.push_back(CancelTimer{{TimerKind::kRetxFallback, 0}});
    actions.push_back(StartTimer{{TimerKind::kRetxLinger, 0},
                                 now + config_.retrans_channel_linger});
}

void ReceiverCore::schedule_nack(TimePoint now, Actions& actions) {
    if (nack_timer_armed_) return;
    nack_timer_armed_ = true;
    // Short randomized delay lets reordered packets land before we NACK
    // (Appendix A: "this delay allows out-of-order packets to arrive").
    actions.push_back(StartTimer{{TimerKind::kNackDelay, 0}, now + nack_jitter()});
}

Actions ReceiverCore::fire_nack(TimePoint now) {
    Actions actions;
    // Drop entries the detector no longer considers missing (recovered while
    // the delay timer was pending).
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (!detector_.is_missing(it->first)) {
            episodes_->close_repaired(now, config_.self, it->first);
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    if (pending_.empty()) return actions;

    NackBody nack;
    for (const auto& [seq, rec] : pending_) {
        nack.missing.push_back(seq);
        episodes_->nack(config_.self, seq);
    }
    ++nacks_sent_;
    obs_->nacks_sent->inc();
    actions.push_back(SendUnicast{current_logger(now), make_packet(std::move(nack))});
    actions.push_back(
        StartTimer{{TimerKind::kNackRetry, 0}, now + config_.nack_retry});
    return actions;
}

Actions ReceiverCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    switch (id.kind) {
        case TimerKind::kIdle: {
            // Every live packet re-arms this timer, so firing means the
            // expected transmission never came: the stream is stale (source
            // dead, disconnected, or an undetectable burst in progress).
            (void)now;
            if (fresh_) {
                fresh_ = false;
                actions.push_back(Notice{NoticeKind::kFreshnessLost, 0});
            }
            // No re-arm: the next live packet restores freshness and the
            // watchdog with it.
            return actions;
        }
        case TimerKind::kNackDelay:
            nack_timer_armed_ = false;
            return fire_nack(now);
        case TimerKind::kNackRetry: {
            for (auto it = pending_.begin(); it != pending_.end();) {
                if (!detector_.is_missing(it->first)) {
                    episodes_->close_repaired(now, config_.self, it->first);
                    it = pending_.erase(it);
                } else {
                    ++it;
                }
            }
            if (pending_.empty()) return actions;
            bool exhausted = false;
            for (auto& [seq, rec] : pending_) {
                if (++rec.attempts_at_level >= config_.nack_max_retries) exhausted = true;
            }
            if (exhausted) return escalate(now);
            append(actions, fire_nack(now));
            return actions;
        }
        case TimerKind::kDiscovery:
            return discovery_round(now);
        case TimerKind::kRetxFallback: {
            // The retransmission channel did not repair everything in time:
            // fall back to the logging hierarchy (Section 7: "logging
            // servers would provide retransmissions of packets that were no
            // longer being transmitted on the retransmission channel").
            for (auto it = pending_.begin(); it != pending_.end();) {
                if (!detector_.is_missing(it->first)) {
                    episodes_->close_repaired(now, config_.self, it->first);
                    it = pending_.erase(it);
                } else {
                    ++it;
                }
            }
            if (!pending_.empty()) schedule_nack(now, actions);
            return actions;
        }
        case TimerKind::kRetxLinger:
            if (retx_joined_ && detector_.missing_count() == 0) {
                retx_joined_ = false;
                actions.push_back(LeaveGroup{config_.retrans_channel});
            }
            return actions;
        default:
            return actions;
    }
}

Actions ReceiverCore::escalate(TimePoint now) {
    Actions actions;
    switch (level_) {
        case RecoveryLevel::kLocal:
            if (config_.fallback_logger != kNoNode &&
                config_.fallback_logger != current_logger()) {
                level_ = RecoveryLevel::kFallback;
                for (auto& [seq, rec] : pending_) {
                    rec.attempts_at_level = 0;
                    episodes_->escalate(config_.self, seq,
                                        obs::EpisodeTracker::kTierFallback);
                }
                actions.push_back(
                    Notice{NoticeKind::kLoggerChanged, config_.fallback_logger.value()});
                append(actions, fire_nack(now));
                return actions;
            }
            [[fallthrough]];
        case RecoveryLevel::kFallback:
            // Ask the source who the current primary is (Section 2.2.3).
            level_ = RecoveryLevel::kPrimary;
            for (const auto& [seq, rec] : pending_)
                episodes_->escalate(config_.self, seq,
                                    obs::EpisodeTracker::kTierPrimary);
            primary_query_outstanding_ = true;
            actions.push_back(
                SendUnicast{config_.source, make_packet(PrimaryQueryBody{})});
            actions.push_back(
                StartTimer{{TimerKind::kNackRetry, 0}, now + config_.nack_retry});
            return actions;
        case RecoveryLevel::kPrimary: {
            // Already tried the refreshed primary.  One walk of the chain
            // going unanswered usually means an outage in progress (a
            // primary mid-failover, a partition yet to heal), not packet
            // death: park the survivors and restart the chain from kLocal
            // after a cold pause.  Only packets that have outlived
            // recovery_cold_cycles whole walks are abandoned.
            bool parked = false;
            for (auto it = pending_.begin(); it != pending_.end();) {
                PendingRecovery& rec = it->second;
                if (rec.cold_cycles < config_.recovery_cold_cycles) {
                    ++rec.cold_cycles;
                    rec.attempts_at_level = 0;
                    episodes_->cold_restart(config_.self, it->first);
                    parked = true;
                    ++it;
                } else {
                    detector_.abandon(it->first);
                    ++recovery_failures_;
                    obs_->recovery_failures->inc();
                    episodes_->close_abandoned(now, config_.self, it->first);
                    actions.push_back(
                        Notice{NoticeKind::kRecoveryFailed, it->first.value()});
                    it = pending_.erase(it);
                }
            }
            level_ = RecoveryLevel::kLocal;
            if (parked)
                actions.push_back(StartTimer{{TimerKind::kNackRetry, 0},
                                             now + config_.recovery_cold_retry});
            return actions;
        }
    }
    return actions;
}

Actions ReceiverCore::discovery_round(TimePoint now) {
    Actions actions;
    if (!discovering_) return actions;
    if (discovery_round_ >= config_.discovery_max_rounds) {
        // Give up: fall back to the static chain (fallback logger / source).
        discovering_ = false;
        if (config_.fallback_logger != kNoNode) {
            logger_ = config_.fallback_logger;
            actions.push_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
        }
        return actions;
    }

    ++discovery_round_;
    ++discovery_nonce_;
    McastScope scope = McastScope::kSite;
    std::uint8_t ttl = 1;
    if (discovery_round_ > 4) {
        scope = McastScope::kGlobal;
        ttl = 255;
    } else if (discovery_round_ > 2) {
        scope = McastScope::kRegion;
        ttl = 16;
    }
    actions.push_back(SendMulticast{
        make_packet(DiscoveryQueryBody{ttl, discovery_nonce_}), scope});
    actions.push_back(StartTimer{{TimerKind::kDiscovery, 0},
                                 now + config_.discovery_interval});
    return actions;
}

}  // namespace lbrm
