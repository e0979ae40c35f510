#include "core/sender.hpp"

#include <algorithm>

namespace lbrm {

SenderCore::SenderCore(SenderConfig config)
    : config_(std::move(config)), heartbeat_(config_.heartbeat),
      stat_ack_(config_.self, config_.group, config_.stat_ack),
      flow_(config_.flow_control), next_seq_(config_.initial_seq),
      primary_(config_.primary_logger == kNoNode ? config_.self : config_.primary_logger),
      primary_acked_(config_.initial_seq.prev()),
      replica_acked_(config_.initial_seq.prev()) {}

void SenderCore::bind_metrics(const obs::ProtocolMetrics& pm) {
    obs_ = &pm.sender;
    stat_ack_.bind_metrics(pm.stat_ack);
}

Actions SenderCore::start(TimePoint now) {
    Actions actions;
    // MaxIT guarantee holds from the start: arm the first heartbeat even
    // before any data has been sent.
    actions.push_back(
        StartTimer{{TimerKind::kHeartbeat, 0}, heartbeat_.on_data_sent(now)});
    if (config_.stat_ack.enabled) merge(actions, stat_ack_.start(now), now);
    return actions;
}

void SenderCore::merge(Actions& dst, StatAckEngine::Result&& result, TimePoint now) {
    append(dst, std::move(result.actions));
    if (!result.remulticast.empty()) remulticast(now, result.remulticast, dst);

    if (config_.flow_control.enabled) {
        // Section 5 extension: incomplete ACK accounting (and re-multicast
        // decisions) are loss signals; clean packets ease the governor off.
        bool slowed = false;
        for (std::size_t i = 0; i < result.remulticast.size() + result.incomplete.size();
             ++i)
            slowed = flow_.on_loss_signal() || slowed;
        if (slowed) {
            const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                                flow_.recommended_spacing())
                                .count();
            dst.push_back(Notice{NoticeKind::kCongestionSlowdown,
                                 static_cast<std::uint64_t>(us)});
            obs_->flow_slowdowns->inc();
        }
        bool cleared = false;
        for (std::size_t i = 0; i < result.completed.size(); ++i)
            cleared = flow_.on_clean_packet() || cleared;
        if (cleared) {
            dst.push_back(Notice{NoticeKind::kCongestionCleared, 0});
            obs_->flow_cleared->inc();
        }
        if (slowed || cleared || !result.completed.empty())
            obs_->flow_spacing_us->set(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    flow_.recommended_spacing())
                    .count()));
    }
    flush_retained();
}

void SenderCore::flush_retained() {
    // Replica safety says everything through replica_acked_ is droppable
    // (Section 2.2.3) -- but Section 2.3.2 additionally requires retaining
    // each packet until its statistical-ACK accounting settles, so a
    // re-multicast decision still has the payload at hand.
    SeqNum releasable = replica_acked_;
    if (config_.stat_ack.enabled) {
        if (const auto floor = stat_ack_.lowest_pending();
            floor && (*floor <= releasable))
            releasable = floor->prev();
    }
    // The retransmission channel needs payloads until their copies ran out.
    if (!retx_copies_.empty()) {
        const SeqNum oldest = serial_begin(retx_copies_)->first;
        if (oldest <= releasable) releasable = oldest.prev();
    }
    retained_.release_through(releasable);
}

Actions SenderCore::send(TimePoint now, std::span<const std::uint8_t> bytes) {
    Actions actions;
    const SeqNum seq = next_seq_++;
    const EpochId epoch = stat_ack_.current_epoch();
    ++data_sent_;
    obs_->data_sent->inc();

    // The update's one buffer: the retained entry, the heartbeat copy, the
    // data packet and the LogStore handoff all share it.
    const Payload payload{bytes};
    retained_.insert(now, seq, epoch, payload);
    last_payload_ = payload;
    last_epoch_ = epoch;

    actions.push_back(SendMulticast{make_packet(DataBody{seq, epoch, payload})});

    if (config_.retrans_channel != kNoGroup) {
        // Section 7: schedule the packet's copies on the retransmission
        // channel (exponentially spaced, like heartbeats).
        retx_copies_.emplace(seq, 0);
        actions.push_back(StartTimer{{TimerKind::kRetxChannel, seq.value()},
                                     now + config_.retrans_channel_first_delay});
    }

    if (!is_self_primary()) {
        actions.push_back(
            SendUnicast{primary_, make_packet(LogStoreBody{seq, epoch, payload})});
        actions.push_back(StartTimer{{TimerKind::kLogStoreRetry, 0},
                                     now + config_.log_store_retry});
    } else {
        // Source doubles as primary: the packet is logged by `retained_`
        // and is immediately replica-safe only if there are no replicas.
        primary_acked_ = seq;
        if (config_.replicas.empty()) {
            replica_acked_ = seq;
        }
    }

    actions.push_back(
        StartTimer{{TimerKind::kHeartbeat, 0}, heartbeat_.on_data_sent(now)});

    if (config_.stat_ack.enabled) merge(actions, stat_ack_.on_data_sent(now, seq), now);
    return actions;
}

Actions SenderCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) return actions;

    if (const auto* ack = std::get_if<LogAckBody>(&packet.body))
        return handle_log_ack(now, *ack);

    if (const auto* nack = std::get_if<NackBody>(&packet.body))
        return handle_nack(now, packet.header.sender, *nack);

    if (std::holds_alternative<PrimaryQueryBody>(packet.body)) {
        actions.push_back(
            SendUnicast{packet.header.sender, make_packet(PrimaryReplyBody{primary_})});
        return actions;
    }

    if (const auto* reply = std::get_if<PromoteReplyBody>(&packet.body))
        return handle_promote_reply(now, packet.header.sender, *reply);

    if (config_.stat_ack.enabled) {
        merge(actions, stat_ack_.on_packet(now, packet), now);
        return actions;
    }
    return actions;
}

Actions SenderCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    switch (id.kind) {
        case TimerKind::kHeartbeat: {
            ++heartbeats_sent_;
            obs_->heartbeats_sent->inc();
            if (config_.heartbeat_carries_small_data && data_sent_ > 0 &&
                last_payload_.size() <= config_.heartbeat_data_max_bytes) {
                // Section 7: repeat the (small) data packet instead of an
                // empty heartbeat -- a receiver that lost it is repaired
                // without any retransmission request.
                actions.push_back(SendMulticast{
                    make_packet(DataBody{last_seq(), last_epoch_, last_payload_})});
            } else {
                actions.push_back(SendMulticast{make_packet(
                    HeartbeatBody{last_seq(), heartbeat_.heartbeat_index()})});
            }
            actions.push_back(
                StartTimer{{TimerKind::kHeartbeat, 0}, heartbeat_.on_heartbeat_sent(now)});
            return actions;
        }
        case TimerKind::kRetxChannel: {
            const SeqNum seq{static_cast<std::uint32_t>(id.arg)};
            auto it = retx_copies_.find(seq);
            if (it == retx_copies_.end()) return actions;
            const LogStore::Entry* entry = retained_.find(seq);
            if (entry != nullptr) {
                Packet copy{Header{config_.retrans_channel, config_.self, config_.self},
                            RetransmissionBody{entry->seq, entry->epoch, true,
                                               entry->payload}};
                actions.push_back(SendMulticast{std::move(copy)});
            }
            const std::uint32_t done = ++it->second;
            if (done >= config_.retrans_channel_copies || entry == nullptr) {
                retx_copies_.erase(it);
                flush_retained();
            } else {
                // Exponential spacing: first_delay, x2, x4, ...
                const Duration next =
                    scale(config_.retrans_channel_first_delay,
                          static_cast<double>(1u << done));
                actions.push_back(
                    StartTimer{{TimerKind::kRetxChannel, seq.value()}, now + next});
            }
            return actions;
        }
        case TimerKind::kLogStoreRetry:
            return retry_log_store(now);
        case TimerKind::kFailover:
            // Promote candidate did not answer; try the next one.
            ++failover_candidate_;
            return begin_failover(now);
        default:
            if (config_.stat_ack.enabled) merge(actions, stat_ack_.on_timer(now, id), now);
            return actions;
    }
}

Actions SenderCore::handle_log_ack(TimePoint now, const LogAckBody& ack) {
    Actions actions;
    log_store_retries_ = 0;

    if (ack.primary_seq > primary_acked_) primary_acked_ = ack.primary_seq;

    // Discard rule (Section 2.2.3): data is droppable once a replica has it;
    // with an unreplicated primary the primary ack suffices.
    const SeqNum safe =
        ack.has_replica ? ack.replica_seq
                        : (config_.replicas.empty() ? ack.primary_seq : replica_acked_);
    if (safe > replica_acked_) replica_acked_ = safe;
    flush_retained();

    if (primary_acked_ == last_seq()) {
        actions.push_back(CancelTimer{{TimerKind::kLogStoreRetry, 0}});
    } else {
        actions.push_back(StartTimer{{TimerKind::kLogStoreRetry, 0},
                                     now + config_.log_store_retry});
    }
    return actions;
}

Actions SenderCore::handle_nack(TimePoint now, NodeId from, const NackBody& nack) {
    // Receivers normally NACK their logging servers; they only reach the
    // source as a last resort (logger hierarchy unreachable).  Serve what
    // the retained buffer still has.
    (void)now;
    Actions actions;
    for (SeqNum seq : nack.missing) {
        if (const LogStore::Entry* entry = retained_.find(seq)) {
            actions.push_back(SendUnicast{
                from, make_packet(RetransmissionBody{
                          entry->seq, entry->epoch, false, entry->payload})});
        }
    }
    return actions;
}

Actions SenderCore::retry_log_store(TimePoint now) {
    Actions actions;
    if (primary_acked_ == last_seq()) return actions;  // nothing outstanding

    // A failover round owns recovery once it starts: the kFailover timer
    // chain advances candidates, and the eventual promotion (or self-primary
    // fallback) replays the retained buffer.  A kLogStoreRetry armed by a
    // send() that raced the failover must not re-enter here -- it would
    // reset failover_candidate_ and spawn a second PromoteRequest chain
    // competing with the one in flight (double promotion).  Let the stale
    // timer expire inert; whoever ends the failover re-arms retries.
    if (failing_over_) return actions;

    if (++log_store_retries_ > config_.log_store_max_retries) {
        log_store_retries_ = 0;
        failing_over_ = true;
        failover_candidate_ = 0;
        obs_->failovers->inc();
        return begin_failover(now);
    }
    obs_->log_store_retries->inc();

    // Re-send every retained packet the primary has not acknowledged yet.
    for (SeqNum seq = primary_acked_.next(); seq <= last_seq(); ++seq) {
        const LogStore::Entry* entry = retained_.find(seq);
        if (entry == nullptr) continue;  // already replica-safe and released
        actions.push_back(SendUnicast{
            primary_,
            make_packet(LogStoreBody{entry->seq, entry->epoch, entry->payload})});
    }
    actions.push_back(
        StartTimer{{TimerKind::kLogStoreRetry, 0}, now + config_.log_store_retry});
    return actions;
}

Actions SenderCore::begin_failover(TimePoint now) {
    Actions actions;
    if (!failing_over_) return actions;

    if (failover_candidate_ >= config_.replicas.size()) {
        // No replica answered: fall back to acting as our own primary so the
        // stream keeps flowing; retained data keeps serving NACKs.  This is
        // terminal for the round -- surface it loudly (notice + counter)
        // instead of stalling silently with a dead log hierarchy.
        failing_over_ = false;
        primary_ = config_.self;
        primary_acked_ = last_seq();
        obs_->failover_exhausted->inc();
        actions.push_back(Notice{NoticeKind::kFailoverExhausted,
                                 static_cast<std::uint64_t>(config_.replicas.size())});
        actions.push_back(Notice{NoticeKind::kPrimaryFailover, config_.self.value()});
        return actions;
    }

    const NodeId candidate = config_.replicas[failover_candidate_];
    actions.push_back(SendUnicast{candidate, make_packet(PromoteRequestBody{})});
    actions.push_back(
        StartTimer{{TimerKind::kFailover, 0}, now + config_.log_store_retry * 2});
    return actions;
}

Actions SenderCore::handle_promote_reply(TimePoint now, NodeId from,
                                         const PromoteReplyBody& reply) {
    Actions actions;
    if (!failing_over_ || !reply.accepted) return actions;
    if (failover_candidate_ >= config_.replicas.size() ||
        config_.replicas[failover_candidate_] != from)
        return actions;  // stale reply from an earlier candidate

    failing_over_ = false;
    primary_ = from;
    actions.push_back(CancelTimer{{TimerKind::kFailover, 0}});
    actions.push_back(Notice{NoticeKind::kPrimaryFailover, from.value()});

    // Replay everything the new primary might be missing from the retained
    // buffer (Section 2.2.3: "the source reliably transmits to the replica
    // any packets being held in its buffer").
    primary_acked_ = reply.log_high_water;
    for (SeqNum seq = reply.log_high_water.next(); seq <= last_seq(); ++seq) {
        const LogStore::Entry* entry = retained_.find(seq);
        if (entry == nullptr) continue;
        actions.push_back(SendUnicast{
            from, make_packet(LogStoreBody{entry->seq, entry->epoch, entry->payload})});
    }
    if (primary_acked_ != last_seq())
        actions.push_back(StartTimer{{TimerKind::kLogStoreRetry, 0},
                                     now + config_.log_store_retry});
    return actions;
}

void SenderCore::remulticast(TimePoint now, const std::vector<SeqNum>& seqs,
                             Actions& actions) {
    (void)now;
    for (SeqNum seq : seqs) {
        const LogStore::Entry* entry = retained_.find(seq);
        if (entry == nullptr) continue;  // already released: loggers serve it
        // Re-multicast as a fresh copy of the data packet (Figure 8); the
        // designated ackers acknowledge it again and receivers dedup by seq.
        obs_->remulticasts->inc();
        actions.push_back(SendMulticast{make_packet(
            DataBody{entry->seq, entry->epoch, entry->payload})});
    }
}

}  // namespace lbrm
