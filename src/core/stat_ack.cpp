#include "core/stat_ack.hpp"

#include <algorithm>

namespace lbrm {

StatAckEngine::StatAckEngine(NodeId self, GroupId group, const StatAckConfig& config)
    : self_(self), group_(group), config_(config), estimator_(config),
      t_wait_ewma_(config.alpha, to_seconds(config.initial_t_wait)) {}

Duration StatAckEngine::t_wait() const {
    Duration d = secs(t_wait_ewma_.value());
    return std::clamp(d, config_.min_t_wait, config_.max_t_wait);
}

double StatAckEngine::n_sl() const { return estimator_.estimate().value_or(0.0); }

Duration StatAckEngine::response_window() const { return 2 * t_wait(); }

Packet StatAckEngine::make_packet(Body body) const {
    return Packet{Header{group_, self_, self_}, std::move(body)};
}

void StatAckEngine::set_group_size(double n_sl) {
    estimator_.set_estimate(n_sl);
    statically_sized_ = true;
}

StatAckEngine::Result StatAckEngine::start(TimePoint now) {
    started_ = true;
    if (probing()) return send_probe(now);
    return open_epoch(now);
}

StatAckEngine::Result StatAckEngine::send_probe(TimePoint now) {
    Result result;
    auto spec = estimator_.current_round();
    result.actions.emplace_back(
        SendMulticast{make_packet(ProbeRequestBody{spec.round, spec.p})});
    result.actions.emplace_back(
        StartTimer{{TimerKind::kProbeRound, 0}, now + response_window()});
    return result;
}

StatAckEngine::Result StatAckEngine::open_epoch(TimePoint now) {
    Result result;
    const double n = std::max(1.0, n_sl());
    EpochRecord record;
    record.p_ack = std::min(1.0, static_cast<double>(config_.k) / n);
    record.open = true;

    opening_epoch_ = EpochId{next_epoch_number_++};
    epochs_[opening_epoch_] = std::move(record);
    obs_->epochs_opened->inc();

    // Keep at most: the epoch being opened, the active epoch, and one stale
    // epoch for ACK overlap across the transition (Section 2.3.1).
    while (epochs_.size() > 3) epochs_.erase(epochs_.begin());

    result.actions.emplace_back(SendMulticast{
        make_packet(AckerSelectionBody{opening_epoch_, epochs_[opening_epoch_].p_ack})});
    result.actions.emplace_back(
        StartTimer{{TimerKind::kEpochOpen, 0}, now + response_window()});
    return result;
}

void StatAckEngine::close_epoch_window(TimePoint now, Actions& actions) {
    auto it = epochs_.find(opening_epoch_);
    if (it == epochs_.end()) return;
    EpochRecord& record = it->second;
    record.open = false;
    record.expected = static_cast<std::uint32_t>(record.designated.size());

    // The responses themselves are a group-size probe (Section 2.3.3).
    if (record.p_ack > 0.0)
        estimator_.update_continuous(record.expected, record.p_ack);

    active_epoch_ = opening_epoch_;
    active_expected_ = record.expected;

    if (record.expected == 0) {
        // Zero volunteers: with active_expected_ == 0 no packet gets ACK
        // accounting, so waiting a whole epoch_interval would leave the
        // group dark.  Surface the outage and re-solicit soon.
        ++empty_epoch_resolicits_;
        obs_->empty_epoch_resolicits->inc();
        actions.emplace_back(Notice{NoticeKind::kAckerOutage, active_epoch_.value()});
        actions.emplace_back(
            StartTimer{{TimerKind::kEpochRotate, 0}, now + config_.empty_epoch_retry});
        return;
    }

    actions.emplace_back(Notice{NoticeKind::kEpochStarted, active_epoch_.value()});
    actions.emplace_back(
        StartTimer{{TimerKind::kEpochRotate, 0}, now + config_.epoch_interval});
}

StatAckEngine::Result StatAckEngine::on_data_sent(TimePoint now, SeqNum seq) {
    Result result;
    if (!config_.enabled || active_expected_ == 0) return result;

    PendingAck pending;
    pending.epoch = active_epoch_;
    pending.sent_at = now;
    pending.expected = active_expected_;
    pending_.emplace(seq, std::move(pending));

    result.actions.emplace_back(
        StartTimer{{TimerKind::kAckWait, seq.value()}, now + t_wait()});
    return result;
}

StatAckEngine::Result StatAckEngine::on_packet(TimePoint now, const Packet& packet) {
    Result result;

    if (const auto* probe = std::get_if<ProbeReplyBody>(&packet.body)) {
        estimator_.on_probe_reply(probe->round);
        return result;
    }

    if (const auto* volunteer = std::get_if<AckerResponseBody>(&packet.body)) {
        auto it = epochs_.find(volunteer->epoch);
        if (it != epochs_.end() && it->second.open &&
            !blacklist_.contains(packet.header.sender))
            it->second.designated.insert(packet.header.sender);
        return result;
    }

    const auto* ack = std::get_if<AckBody>(&packet.body);
    if (ack == nullptr) return result;

    const NodeId from = packet.header.sender;
    if (blacklist_.contains(from)) return result;

    auto epoch_it = epochs_.find(ack->epoch);
    if (epoch_it == epochs_.end() || !epoch_it->second.designated.contains(from)) {
        note_spurious_ack(from);
        return result;
    }

    auto pending_it = pending_.find(ack->seq);
    if (pending_it == pending_.end()) return result;  // late beyond 2*t_wait
    PendingAck& pending = pending_it->second;

    // ACKs are valid from the packet's own epoch and, across a transition,
    // from the overlapping previous epoch's designated set.
    pending.got.insert(from);
    pending.last_ack_at = now;

    if (!pending.decided && pending.got.size() >= pending.expected) {
        // Complete before t_wait: settle immediately.
        finalize(now, ack->seq, pending);
        Result done;
        done.actions.emplace_back(CancelTimer{{TimerKind::kAckWait, ack->seq.value()}});
        done.completed.push_back(ack->seq);
        obs_->packets_completed->inc();
        pending_.erase(pending_it);
        return done;
    }
    return result;
}

StatAckEngine::Result StatAckEngine::on_timer(TimePoint now, TimerId id) {
    Result result;
    switch (id.kind) {
        case TimerKind::kProbeRound: {
            estimator_.finish_round();
            if (probing()) return send_probe(now);
            return open_epoch(now);
        }
        case TimerKind::kEpochOpen: {
            close_epoch_window(now, result.actions);
            return result;
        }
        case TimerKind::kEpochRotate:
            return open_epoch(now);
        case TimerKind::kAckWait: {
            const SeqNum seq{id.arg};
            auto it = pending_.find(seq);
            if (it == pending_.end()) return result;
            PendingAck& pending = it->second;
            if (!pending.decided) {
                pending.decided = true;
                decide(now, seq, pending, result);
                if (pending_.contains(seq)) {
                    // Keep listening for late ACKs until 2 * t_wait so the
                    // RTT estimator can observe stragglers (Section 2.3.2).
                    result.actions.emplace_back(StartTimer{
                        {TimerKind::kAckWait, seq.value()}, now + t_wait()});
                }
            } else {
                if (pending.got.size() >= pending.expected) {
                    result.completed.push_back(seq);
                    obs_->packets_completed->inc();
                } else {
                    result.incomplete.push_back(seq);
                    obs_->packets_incomplete->inc();
                }
                finalize(now, seq, pending);
                pending_.erase(it);
            }
            return result;
        }
        default:
            return result;
    }
}

void StatAckEngine::decide(TimePoint now, SeqNum seq, PendingAck& pending,
                           Result& result) {
    const std::uint32_t got = static_cast<std::uint32_t>(pending.got.size());
    if (got >= pending.expected) return;  // everyone answered: rely on NACKs

    const std::uint32_t missing = pending.expected - got;
    const double n = std::max(1.0, n_sl());
    const double sites_per_acker =
        pending.expected > 0 ? n / static_cast<double>(pending.expected) : n;
    const double represented_sites = static_cast<double>(missing) * sites_per_acker;

    if (represented_sites >= config_.remulticast_site_threshold &&
        pending.remulticasts < config_.max_remulticasts) {
        // Missing ACKs stand in for a significant number of sites: multicast
        // the retransmission immediately (Section 2.3.2, Figure 8).
        ++pending.remulticasts;
        ++remulticast_decisions_;
        obs_->remulticast_decisions->inc();
        pending.decided = false;  // the re-multicast gets its own t_wait cycle
        pending.sent_at = now;
        pending.got.clear();
        result.remulticast.push_back(seq);
        result.actions.emplace_back(Notice{NoticeKind::kRemulticast, seq.value()});
    }
    (void)now;
}

void StatAckEngine::finalize(TimePoint now, SeqNum seq, PendingAck& pending) {
    (void)seq;
    if (!pending.got.empty()) {
        // rtt_new = arrival time of the last ACK, capped at 2 * t_wait.
        Duration rtt = pending.last_ack_at - pending.sent_at;
        rtt = std::min(rtt, 2 * t_wait());
        t_wait_ewma_.update(to_seconds(rtt));
    } else {
        // No ACK at all within 2 * t_wait: assert loss; nudge the estimator
        // upward so t_wait does not collapse during outages.
        t_wait_ewma_.update(to_seconds(std::min(now - pending.sent_at, 2 * t_wait())));
    }

    auto epoch_it = epochs_.find(pending.epoch);
    if (epoch_it != epochs_.end() && epoch_it->second.p_ack > 0.0)
        estimator_.update_continuous(static_cast<std::uint32_t>(pending.got.size()),
                                     epoch_it->second.p_ack);
}

void StatAckEngine::note_spurious_ack(NodeId from) {
    const std::uint32_t count = ++spurious_[from];
    if (count >= config_.faulty_acker_limit) {
        blacklist_.insert(from);
        spurious_.erase(from);
    }
}

}  // namespace lbrm
