#include "core/receiver.hpp"

#include <algorithm>

namespace lbrm {

namespace {

/// Expanding-ring discovery (Section 2.2.1): the response window of each
/// ring, and the rings tried before falling back to the static chain.
constexpr Duration kDiscoveryInterval = millis(250);
constexpr std::uint32_t kDiscoveryMaxRounds = 6;
/// Time on the retransmission channel after the last gap fills.
constexpr Duration kRetransChannelLinger = millis(250);

}  // namespace

ReceiverCore::ReceiverCore(ReceiverConfig config)
    : ReceiverCore(std::make_shared<const ReceiverConfig>(std::move(config))) {}

ReceiverCore::ReceiverCore(const std::shared_ptr<const ReceiverConfig>& owned)
    : ReceiverCore(owned, owned->self, owned->logger, owned->fallback_logger) {}

ReceiverCore::ReceiverCore(std::shared_ptr<const ReceiverConfig> policy, NodeId self,
                           NodeId logger, NodeId fallback_logger)
    : self_(self), configured_logger_(logger), fallback_(fallback_logger), logger_(logger),
      policy_(std::move(policy)), detector_(policy_->max_detector_gap),
      expected_gap_(policy_->heartbeat.h_min),
      jitter_state_(0x9E3779B97F4A7C15ull ^ self.value()) {}

ReceiverConfig ReceiverCore::config() const {
    ReceiverConfig config = *policy_;
    config.self = self_;
    config.logger = configured_logger_;
    config.fallback_logger = fallback_;
    return config;
}

NodeId ReceiverCore::current_logger(TimePoint now) const {
    if (level_ == RecoveryLevel::kLocal && !policy_->rotating_loggers.empty() &&
        policy_->rotation_slot > Duration::zero()) {
        const auto slots = now.time_since_epoch() / policy_->rotation_slot;
        const std::size_t owner = static_cast<std::size_t>(
            static_cast<std::uint64_t>(slots) % policy_->rotating_loggers.size());
        return policy_->rotating_loggers[owner];
    }
    return current_logger();
}

NodeId ReceiverCore::current_logger() const {
    switch (level_) {
        case RecoveryLevel::kLocal:
            if (logger_ != kNoNode) return logger_;
            [[fallthrough]];
        case RecoveryLevel::kFallback:
            if (fallback_ != kNoNode) return fallback_;
            [[fallthrough]];
        case RecoveryLevel::kPrimary:
            return policy_->source;
    }
    return policy_->source;
}

Duration ReceiverCore::nack_jitter() {
    // xorshift64* step: deterministic per-receiver jitter stream.
    jitter_state_ ^= jitter_state_ >> 12;
    jitter_state_ ^= jitter_state_ << 25;
    jitter_state_ ^= jitter_state_ >> 27;
    const std::uint64_t r = jitter_state_ * 0x2545F4914F6CDD1Dull;
    const double frac = static_cast<double>(r >> 11) / 9007199254740992.0;  // [0,1)
    const Duration span = policy_->nack_delay_max - policy_->nack_delay_min;
    return policy_->nack_delay_min + scale(span, frac);
}

Actions ReceiverCore::start(TimePoint now) {
    Actions actions;
    started_ = true;
    actions.emplace_back(StartTimer{
        {TimerKind::kIdle, 0}, now + idle_threshold(policy_->heartbeat.h_min)});
    if (logger_ == kNoNode) {
        discovering_ = true;
        discovery_round_ = 0;
        append(actions, discovery_round(now));
    }
    return actions;
}

Actions ReceiverCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != policy_->group) {
        // Retransmission-channel copies arrive on their own group.
        if (policy_->retrans_channel != kNoGroup &&
            packet.header.group == policy_->retrans_channel) {
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
        expected_gap_ = repeat ? std::min(policy_->heartbeat.h_max,
                                          scale(expected_gap_, policy_->heartbeat.backoff))
                               : policy_->heartbeat.h_min;
        note_live_traffic(now, expected_gap_, actions);
        accept_payload(now, data->seq, data->payload, /*recovered=*/false, actions);
        return actions;
    }

    if (const auto* hb = std::get_if<HeartbeatBody>(&packet.body)) {
        expected_gap_ = gap_after_heartbeat(hb->index);
        note_live_traffic(now, expected_gap_, actions);
        auto obs = detector_.observe(now, hb->last_seq, /*is_heartbeat=*/true);
        begin_recovery(now, obs.newly_missing, actions);
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
            actions.emplace_back(CancelTimer{{TimerKind::kDiscovery, 0}});
            actions.emplace_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
            if (detector_.missing_count() != 0) schedule_nack(now, actions);
        }
        return actions;
    }

    if (const auto* reply = std::get_if<PrimaryReplyBody>(&packet.body)) {
        if (primary_query_outstanding_) {
            primary_query_outstanding_ = false;
            logger_ = reply->primary;
            level_ = RecoveryLevel::kLocal;
            for (auto& [seq, gap] : detector_.gaps()) gap.attempts = 0;
            actions.emplace_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
            if (detector_.missing_count() != 0) schedule_nack(now, actions);
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
        metrics_->receiver.duplicates->inc();
        return;
    }

    begin_recovery(now, obs.newly_missing, actions);

    if (obs.fills_gap) {
        close_episode(now, seq, obs.filled, obs::EpisodeTracker::Reason::kRepaired);
        ++recovered_;
        if (detector_.missing_count() == 0) recovery_complete(now, actions);
    }

    ++delivered_;
    metrics_->receiver.delivered->inc();
    actions.emplace_back(DeliverData{seq, payload, recovered || obs.fills_gap});
}

Duration ReceiverCore::gap_after_heartbeat(std::uint32_t index) const {
    // After the heartbeat with index k the sender's interval has been grown
    // k+1 times: h_min * backoff^(k+1), saturating at h_max.
    Duration gap = policy_->heartbeat.h_min;
    const std::uint32_t steps = std::min<std::uint32_t>(index + 1, 64);
    for (std::uint32_t i = 0; i < steps; ++i) {
        gap = scale(gap, policy_->heartbeat.backoff);
        if (gap >= policy_->heartbeat.h_max) return policy_->heartbeat.h_max;
    }
    return gap;
}

Duration ReceiverCore::idle_threshold(Duration expected_gap) const {
    const Duration scaled = scale(expected_gap, kIdleSafety);
    return scaled > policy_->max_idle ? scaled : policy_->max_idle;
}

void ReceiverCore::note_live_traffic(TimePoint now, Duration expected_gap,
                                     Actions& actions) {
    if (!fresh_) {
        fresh_ = true;
        actions.emplace_back(Notice{NoticeKind::kFreshnessRestored, 0});
    }
    actions.emplace_back(
        StartTimer{{TimerKind::kIdle, 0}, now + idle_threshold(expected_gap)});
}

void ReceiverCore::begin_recovery(TimePoint now, const std::vector<SeqNum>& newly_missing,
                                  Actions& actions) {
    if (newly_missing.empty()) return;
    for (SeqNum s : newly_missing) {
        actions.emplace_back(Notice{NoticeKind::kLossDetected, s.value()});
        // A gap opened mid-escalation is NACKed at the current tier from
        // its first round, so that is the lowest tier its episode reaches.
        if (level_ != RecoveryLevel::kLocal)
            detector_.gaps().find(s)->second.tier = static_cast<std::uint8_t>(level_);
    }
    metrics_->episodes->open(newly_missing.size());
    if (policy_->retrans_channel == kNoGroup) {
        schedule_nack(now, actions);
        return;
    }
    // Section 7 strategy: subscribe to the retransmission channel and wait
    // for the sender's exponentially-spaced copies; NACKs only as fallback.
    if (!retx_joined_) {
        retx_joined_ = true;
        actions.emplace_back(JoinGroup{policy_->retrans_channel});
    }
    actions.emplace_back(CancelTimer{{TimerKind::kRetxLinger, 0}});
    actions.emplace_back(StartTimer{{TimerKind::kRetxFallback, 0},
                                 now + policy_->retrans_channel_window});
}

void ReceiverCore::recovery_complete(TimePoint now, Actions& actions) {
    actions.emplace_back(CancelTimer{{TimerKind::kNackRetry, 0}});
    if (!retx_joined_) return;
    actions.emplace_back(CancelTimer{{TimerKind::kRetxFallback, 0}});
    actions.emplace_back(StartTimer{{TimerKind::kRetxLinger, 0},
                                 now + kRetransChannelLinger});
}

void ReceiverCore::schedule_nack(TimePoint now, Actions& actions) {
    if (nack_timer_armed_) return;
    nack_timer_armed_ = true;
    // Short randomized delay lets reordered packets land before we NACK
    // (Appendix A: "this delay allows out-of-order packets to arrive").
    actions.emplace_back(StartTimer{{TimerKind::kNackDelay, 0}, now + nack_jitter()});
}

Actions ReceiverCore::fire_nack(TimePoint now) {
    Actions actions;
    if (detector_.missing_count() == 0) return actions;

    // Wire (numeric) order, not missing()'s serial order: the two differ
    // across the 2^32 wrap, and the pinned packet traces use this one.
    NackBody nack;
    for (auto& [seq, gap] : detector_.gaps()) {
        nack.missing.push_back(seq);
        ++gap.nacks;
    }
    metrics_->episodes->nack(nack.missing.size());
    ++nacks_sent_;
    metrics_->receiver.nacks_sent->inc();
    actions.emplace_back(SendUnicast{current_logger(now), make_packet(std::move(nack))});
    actions.emplace_back(
        StartTimer{{TimerKind::kNackRetry, 0}, now + policy_->nack_retry});
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
                actions.emplace_back(Notice{NoticeKind::kFreshnessLost, 0});
            }
            // No re-arm: the next live packet restores freshness and the
            // watchdog with it.
            return actions;
        }
        case TimerKind::kNackDelay:
            nack_timer_armed_ = false;
            return fire_nack(now);
        case TimerKind::kNackRetry: {
            if (detector_.missing_count() == 0) return actions;
            bool exhausted = false;
            for (auto& [seq, gap] : detector_.gaps()) {
                if (++gap.attempts >= policy_->nack_max_retries) exhausted = true;
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
            if (detector_.missing_count() != 0) schedule_nack(now, actions);
            return actions;
        }
        case TimerKind::kRetxLinger:
            if (retx_joined_ && detector_.missing_count() == 0) {
                retx_joined_ = false;
                actions.emplace_back(LeaveGroup{policy_->retrans_channel});
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
            if (fallback_ != kNoNode &&
                fallback_ != current_logger()) {
                level_ = RecoveryLevel::kFallback;
                for (auto& [seq, gap] : detector_.gaps()) {
                    gap.attempts = 0;
                    gap.tier = std::max(gap.tier, obs::EpisodeTracker::kTierFallback);
                }
                metrics_->episodes->escalate(detector_.missing_count());
                actions.emplace_back(
                    Notice{NoticeKind::kLoggerChanged, fallback_.value()});
                append(actions, fire_nack(now));
                return actions;
            }
            [[fallthrough]];
        case RecoveryLevel::kFallback:
            // Ask the source who the current primary is (Section 2.2.3).
            level_ = RecoveryLevel::kPrimary;
            for (auto& [seq, gap] : detector_.gaps())
                gap.tier = obs::EpisodeTracker::kTierPrimary;
            metrics_->episodes->escalate(detector_.missing_count());
            primary_query_outstanding_ = true;
            actions.emplace_back(
                SendUnicast{policy_->source, make_packet(PrimaryQueryBody{})});
            actions.emplace_back(
                StartTimer{{TimerKind::kNackRetry, 0}, now + policy_->nack_retry});
            return actions;
        case RecoveryLevel::kPrimary: {
            // Already tried the refreshed primary.  One walk of the chain
            // going unanswered usually means an outage in progress (a
            // primary mid-failover, a partition yet to heal), not packet
            // death: park the survivors and restart the chain from kLocal
            // after a cold pause.  Only packets that have outlived
            // recovery_cold_cycles whole walks are abandoned.
            bool parked = false;
            LossDetector::Gaps& gaps = detector_.gaps();
            for (auto it = gaps.begin(); it != gaps.end();) {
                LossDetector::Gap& gap = it->second;
                if (gap.cold_cycles < policy_->recovery_cold_cycles) {
                    ++gap.cold_cycles;
                    gap.attempts = 0;
                    metrics_->episodes->cold_restart();
                    parked = true;
                    ++it;
                } else {
                    ++recovery_failures_;
                    close_episode(now, it->first, gap,
                                  obs::EpisodeTracker::Reason::kAbandoned);
                    actions.emplace_back(
                        Notice{NoticeKind::kRecoveryFailed, it->first.value()});
                    it = gaps.erase(it);  // abandons the sequence number
                }
            }
            level_ = RecoveryLevel::kLocal;
            if (parked)
                actions.emplace_back(StartTimer{{TimerKind::kNackRetry, 0},
                                             now + policy_->recovery_cold_retry});
            return actions;
        }
    }
    return actions;
}

void ReceiverCore::close_episode(TimePoint now, SeqNum seq, const LossDetector::Gap& gap,
                                 obs::EpisodeTracker::Reason reason) const {
    metrics_->episodes->close({.node = self_.value(),
                      .seq = seq.value(),
                      .opened_s = to_seconds(gap.detected_at),
                      .closed_s = to_seconds(now),
                      .nacks = gap.nacks,
                      .cold_restarts = gap.cold_cycles,
                      .kind = obs::EpisodeTracker::Kind::kRecovery,
                      .tier = gap.tier,
                      .reason = reason});
}

Actions ReceiverCore::discovery_round(TimePoint now) {
    Actions actions;
    if (!discovering_) return actions;
    if (discovery_round_ >= kDiscoveryMaxRounds) {
        // Give up: fall back to the static chain (fallback logger / source).
        discovering_ = false;
        if (fallback_ != kNoNode) {
            logger_ = fallback_;
            actions.emplace_back(Notice{NoticeKind::kLoggerChanged, logger_.value()});
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
    actions.emplace_back(SendMulticast{
        make_packet(DiscoveryQueryBody{ttl, discovery_nonce_}), scope});
    actions.emplace_back(StartTimer{{TimerKind::kDiscovery, 0},
                                 now + kDiscoveryInterval});
    return actions;
}

}  // namespace lbrm
