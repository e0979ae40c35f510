#include "core/logger.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace lbrm {

LoggerCore::LoggerCore(LoggerConfig config, std::uint64_t rng_seed)
    : config_(std::move(config)), role_(config_.role), rng_(rng_seed),
      store_(config_.retention), contiguous_(config_.initial_seq.prev()),
      detector_(config_.max_detector_gap), upstream_(config_.upstream) {}

Actions LoggerCore::start(TimePoint now) {
    (void)now;
    return {};
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

Actions LoggerCore::on_packet(TimePoint now, const Packet& packet) {
    Actions actions;
    if (packet.header.group != config_.group) return actions;
    const NodeId from = packet.header.sender;

    // --- log ingestion paths -------------------------------------------
    if (const auto* data = std::get_if<DataBody>(&packet.body)) {
        // Secondary loggers (and a primary that also listens) log the live
        // multicast stream.
        watch_stream_seq(now, data->seq, /*is_heartbeat=*/false, actions);
        ingest(now, data->seq, data->epoch, data->payload, /*from_live_stream=*/true,
               actions);
        return actions;
    }

    if (const auto* hb = std::get_if<HeartbeatBody>(&packet.body)) {
        watch_stream_seq(now, hb->last_seq, /*is_heartbeat=*/true, actions);
        return actions;
    }

    if (const auto* rt = std::get_if<RetransmissionBody>(&packet.body)) {
        watch_stream_seq(now, rt->seq, /*is_heartbeat=*/false, actions);
        ingest(now, rt->seq, rt->epoch, rt->payload, /*from_live_stream=*/false, actions);
        return actions;
    }

    if (const auto* ls = std::get_if<LogStoreBody>(&packet.body)) {
        // Reliable handoff from the source (primary role; a replica being
        // replayed after promotion accepts these too).
        if (role_ == LoggerRole::kPrimary) {
            ingest(now, ls->seq, ls->epoch, ls->payload, /*from_live_stream=*/false,
                   actions);
            primary_ack_source(actions);
        }
        return actions;
    }

    if (const auto* ru = std::get_if<ReplicaUpdateBody>(&packet.body)) {
        if (role_ == LoggerRole::kReplica) {
            ingest(now, ru->seq, ru->epoch, ru->payload, /*from_live_stream=*/false,
                   actions);
            actions.emplace_back(
                SendUnicast{from, make_packet(ReplicaAckBody{contiguous_})});
        }
        return actions;
    }

    if (const auto* ra = std::get_if<ReplicaAckBody>(&packet.body)) {
        if (role_ == LoggerRole::kPrimary) {
            SeqNum& acked = replica_acked_[from];
            if (ra->cumulative_seq > acked) acked = ra->cumulative_seq;
            // Let the source release buffers as replicas catch up.
            primary_ack_source(actions);
        }
        return actions;
    }

    if (const auto* pr = std::get_if<PrimaryReplyBody>(&packet.body)) {
        // The source's answer to our fire_fetch PrimaryQuery: adopt the
        // current primary as the fetch target (Section 2.2.3 -- the
        // statically configured upstream may have crashed and been
        // replaced).  Ignore an answer naming ourselves: serving our own
        // fetches cannot work.
        if (role_ == LoggerRole::kSecondary && pr->primary != kNoNode &&
            pr->primary != config_.self)
            upstream_ = pr->primary;
        return actions;
    }

    // --- recovery service ----------------------------------------------
    if (const auto* nack = std::get_if<NackBody>(&packet.body)) {
        serve_nack(now, from, *nack, actions);
        return actions;
    }

    // --- statistical acknowledgement duties (Section 2.3) ----------------
    if (const auto* sel = std::get_if<AckerSelectionBody>(&packet.body)) {
        if (config_.participate_in_acking && role_ == LoggerRole::kSecondary) {
            if (rng_.bernoulli(sel->p_ack)) {
                designated_epochs_[sel->epoch] = true;
                while (designated_epochs_.size() > 2)
                    designated_epochs_.erase(designated_epochs_.begin());
                actions.emplace_back(SendUnicast{
                    config_.source, make_packet(AckerResponseBody{sel->epoch})});
                actions.emplace_back(
                    Notice{NoticeKind::kDesignatedAcker, sel->epoch.value()});
            }
        }
        return actions;
    }

    if (const auto* probe = std::get_if<ProbeRequestBody>(&packet.body)) {
        if (config_.participate_in_acking && role_ == LoggerRole::kSecondary &&
            rng_.bernoulli(probe->p_ack)) {
            actions.emplace_back(
                SendUnicast{config_.source, make_packet(ProbeReplyBody{probe->round})});
        }
        return actions;
    }

    // --- control plane ---------------------------------------------------
    if (const auto* dq = std::get_if<DiscoveryQueryBody>(&packet.body)) {
        if (config_.answer_discovery) {
            actions.emplace_back(SendUnicast{
                from, make_packet(DiscoveryReplyBody{
                          dq->nonce, config_.self, role_ == LoggerRole::kPrimary})});
        }
        return actions;
    }

    if (std::holds_alternative<PromoteRequestBody>(packet.body)) {
        if (role_ == LoggerRole::kReplica) {
            role_ = LoggerRole::kPrimary;
            actions.emplace_back(Notice{NoticeKind::kPrimaryFailover, config_.self.value()});
        }
        // Idempotent: an already-promoted primary re-confirms.
        actions.emplace_back(SendUnicast{
            from, make_packet(PromoteReplyBody{contiguous_,
                                               role_ == LoggerRole::kPrimary})});
        return actions;
    }

    return actions;
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

void LoggerCore::watch_stream_seq(TimePoint now, SeqNum seq, bool is_heartbeat,
                                  Actions& actions) {
    if (role_ != LoggerRole::kSecondary) return;
    auto obs = detector_.observe(now, seq, is_heartbeat);
    if (obs.newly_missing.empty()) return;
    // Call back to the primary for everything the site lost (Section 2.2.1),
    // after the configured delay that gives the source's own statistical
    // re-multicast a chance to repair first (Section 2.3.2).
    for (SeqNum s : obs.newly_missing) open_fetch(now, s);
    schedule_fetch(now, actions);
}

void LoggerCore::ingest(TimePoint now, SeqNum seq, EpochId epoch, const Payload& payload,
                        bool from_live_stream, Actions& actions) {
    store_.expire(now);
    const bool fresh = store_.insert(now, seq, epoch, payload);
    advance_contiguous();

    if (fresh && role_ == LoggerRole::kPrimary && !config_.replicas.empty()) {
        const LogStore::Entry* entry = store_.find(seq);
        if (entry != nullptr) fan_out_to_replicas(*entry, actions);
    }

    // Designated-acker duty: unicast an ACK to the source for each packet of
    // an epoch we volunteered for, whether it arrived live or via recovery.
    if (fresh && designated_epochs_.contains(epoch)) {
        ++acks_sent_;
        obs_->acks_sent->inc();
        actions.emplace_back(SendUnicast{config_.source, make_packet(AckBody{epoch, seq})});
    }

    // Satisfy receivers that were waiting for this packet.
    auto pending = fetch_pending_.find(seq);
    if (pending != fetch_pending_.end()) {
        detector_.observe(now, seq);  // keep the gap tracker consistent
        const bool self_missed = !from_live_stream;
        const auto requesters = std::move(pending->second.requesters);
        close_fetch(now, seq, pending->second, obs::EpisodeTracker::Reason::kRepaired);
        fetch_pending_.erase(pending);
        if (const LogStore::Entry* entry = store_.find(seq)) {
            if (self_missed && !requesters.empty() && config_.site_multicast_repairs) {
                // The secondary itself lost the packet: the whole site most
                // likely did; one site-scoped re-multicast repairs everyone
                // (Section 2.2.1).
                ++served_multicast_;
                obs_->served_multicast->inc();
                actions.emplace_back(SendMulticast{
                    make_packet(RetransmissionBody{entry->seq, entry->epoch, true,
                                                   entry->payload}),
                    McastScope::kSite});
                actions.emplace_back(Notice{NoticeKind::kRemulticast, seq.value()});
            } else {
                for (NodeId r : requesters) {
                    ++served_unicast_;
                    obs_->served_unicast->inc();
                    actions.emplace_back(SendUnicast{
                        r, make_packet(RetransmissionBody{entry->seq, entry->epoch, false,
                                                          entry->payload})});
                }
            }
        }
    }
}

void LoggerCore::advance_contiguous() {
    while (store_.contains(contiguous_.next())) contiguous_ = contiguous_.next();
}

// ---------------------------------------------------------------------------
// NACK service (Sections 2.2.1, 2.2.2)
// ---------------------------------------------------------------------------

void LoggerCore::serve_nack(TimePoint now, NodeId from, const NackBody& nack,
                            Actions& actions) {
    ++nacks_received_;
    obs_->nacks_received->inc();
    LBRM_TRACE_SPAN("log_recover");
    for (SeqNum seq : nack.missing) serve_one(now, from, seq, actions);
}

void LoggerCore::serve_one(TimePoint now, NodeId from, SeqNum seq, Actions& actions) {
    store_.expire(now);
    const LogStore::Entry* entry = store_.find(seq);

    if (entry == nullptr) {
        if (role_ == LoggerRole::kSecondary && upstream_ != kNoNode) {
            // We do not have it either: remember the requester and call back
            // to the primary.
            open_fetch(now, seq).requesters.insert(from);
            schedule_fetch(now, actions);
        }
        // A primary without the packet (expired from the log) cannot help;
        // the receiver's retry/escalation handles it.
        return;
    }

    RequestWindow& window = windows_[seq];
    if (window.count == 0)
        actions.emplace_back(StartTimer{{TimerKind::kRemcastWindow, seq.value()},
                                     now + config_.remulticast_window});
    ++window.count;

    if (window.multicast_served) return;  // repair already on the wire

    if (config_.site_multicast_repairs &&
        window.count >= config_.remulticast_request_threshold) {
        // Enough losers in one window: one scoped multicast beats N unicasts.
        window.multicast_served = true;
        ++served_multicast_;
        obs_->served_multicast->inc();
        const McastScope scope = role_ == LoggerRole::kSecondary ? McastScope::kSite
                                                                 : McastScope::kGlobal;
        actions.emplace_back(SendMulticast{
            make_packet(RetransmissionBody{entry->seq, entry->epoch, true,
                                           entry->payload}),
            scope});
        actions.emplace_back(Notice{NoticeKind::kRemulticast, seq.value()});
    } else {
        ++served_unicast_;
        obs_->served_unicast->inc();
        actions.emplace_back(SendUnicast{
            from, make_packet(RetransmissionBody{entry->seq, entry->epoch, false,
                                                 entry->payload})});
    }
}

// ---------------------------------------------------------------------------
// Upstream fetch (secondary -> primary callback)
// ---------------------------------------------------------------------------

LoggerCore::FetchState& LoggerCore::open_fetch(TimePoint now, SeqNum seq) {
    auto [it, inserted] = fetch_pending_.try_emplace(seq);
    if (inserted) {
        it->second.opened_at = now;
        episodes_->fetch_open();
    }
    return it->second;
}

void LoggerCore::close_fetch(TimePoint now, SeqNum seq, const FetchState& state,
                             obs::EpisodeTracker::Reason reason) const {
    episodes_->close({.node = config_.self.value(),
                      .seq = seq.value(),
                      .opened_s = to_seconds(state.opened_at),
                      .closed_s = to_seconds(now),
                      .nacks = state.requests,
                      .cold_restarts = state.cold_cycles,
                      .kind = obs::EpisodeTracker::Kind::kFetch,
                      // Fetches always target the primary log.
                      .tier = obs::EpisodeTracker::kTierPrimary,
                      .reason = reason});
}

void LoggerCore::schedule_fetch(TimePoint now, Actions& actions) {
    if (fetch_delay_armed_ || fetch_pending_.empty()) return;
    fetch_delay_armed_ = true;
    actions.emplace_back(
        StartTimer{{TimerKind::kNackDelay, 0}, now + config_.fetch_delay});
}

Actions LoggerCore::fire_fetch(TimePoint now) {
    Actions actions;
    NackBody nack;
    bool budget_exhausted = false;
    for (auto it = fetch_pending_.begin(); it != fetch_pending_.end();) {
        FetchState& state = it->second;
        if (store_.contains(it->first)) {
            // Arrived while we waited.
            close_fetch(now, it->first, state, obs::EpisodeTracker::Reason::kRepaired);
            it = fetch_pending_.erase(it);
            continue;
        }
        if (state.attempts >= config_.fetch_max_retries) {
            if (state.cold_cycles >= config_.fetch_cold_cycles) {
                actions.emplace_back(
                    Notice{NoticeKind::kRecoveryFailed, it->first.value()});
                detector_.abandon(it->first);
                close_fetch(now, it->first, state, obs::EpisodeTracker::Reason::kAbandoned);
                it = fetch_pending_.erase(it);
                continue;
            }
            // A whole attempt budget unanswered: the upstream is likely
            // crashed or mid-failover, or simply does not hold the packet
            // yet (the source's own LogStore handoff is retried).  Park
            // the fetch for a cold pause and restart the budget -- and ask
            // the source below who the primary is *now*.
            ++state.cold_cycles;
            state.attempts = 0;
            state.cold_until = now + config_.fetch_cold_retry;
            episodes_->fetch_cold_restart();
            budget_exhausted = true;
        }
        // Pace per sequence: a request fired less than fetch_retry ago is
        // still outstanding -- re-asking now would just double the NACK load
        // the hierarchy exists to reduce.  Parked sequences wait out their
        // cold pause first.
        if (now >= state.cold_until &&
            (state.attempts == 0 || now - state.last_request >= config_.fetch_retry)) {
            ++state.attempts;
            ++state.requests;
            state.last_request = now;
            episodes_->fetch_attempt();
            nack.missing.push_back(it->first);
        }
        ++it;
    }

    if (upstream_ == kNoNode) return actions;
    if (budget_exhausted &&
        (!primary_query_sent_ ||
         now - last_primary_query_ >= config_.fetch_cold_retry)) {
        primary_query_sent_ = true;
        last_primary_query_ = now;
        actions.emplace_back(
            SendUnicast{config_.source, make_packet(PrimaryQueryBody{})});
    }
    if (!nack.missing.empty()) {
        ++upstream_fetches_;
        obs_->upstream_fetches->inc();
        actions.emplace_back(SendUnicast{upstream_, make_packet(std::move(nack))});
    }
    if (!fetch_pending_.empty())
        actions.emplace_back(
            StartTimer{{TimerKind::kNackRetry, 0}, now + config_.fetch_retry});
    return actions;
}

// ---------------------------------------------------------------------------
// Primary: source acknowledgement and replica synchronization (Section 2.2.3)
// ---------------------------------------------------------------------------

SeqNum LoggerCore::best_replica_seq() const {
    SeqNum best = config_.initial_seq.prev();  // "no replica has anything"
    for (const auto& [node, seq] : replica_acked_)
        if (seq > best) best = seq;
    return best;
}

void LoggerCore::primary_ack_source(Actions& actions) {
    actions.emplace_back(SendUnicast{
        config_.source,
        make_packet(LogAckBody{contiguous_, best_replica_seq(),
                               !config_.replicas.empty()})});
}

void LoggerCore::fan_out_to_replicas(const LogStore::Entry& entry, Actions& actions) {
    for (NodeId replica : config_.replicas) {
        actions.emplace_back(SendUnicast{
            replica,
            make_packet(ReplicaUpdateBody{entry.seq, entry.epoch, entry.payload})});
    }
    if (!replica_retry_armed_) {
        replica_retry_armed_ = true;
        actions.emplace_back(StartTimer{{TimerKind::kReplicaRetry, 0},
                                     TimePoint{entry.stored_at + config_.replica_retry}});
    }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

Actions LoggerCore::on_timer(TimePoint now, TimerId id) {
    Actions actions;
    switch (id.kind) {
        case TimerKind::kNackDelay:
            fetch_delay_armed_ = false;
            return fire_fetch(now);

        case TimerKind::kNackRetry:
            // Outstanding upstream fetch unanswered: re-request.
            return fire_fetch(now);

        case TimerKind::kRemcastWindow:
            windows_.erase(SeqNum{id.arg});
            return actions;

        case TimerKind::kReplicaRetry: {
            replica_retry_armed_ = false;
            if (role_ != LoggerRole::kPrimary || config_.replicas.empty()) return actions;
            bool outstanding = false;
            for (NodeId replica : config_.replicas) {
                SeqNum acked = config_.initial_seq.prev();
                if (auto it = replica_acked_.find(replica); it != replica_acked_.end())
                    acked = it->second;
                for (SeqNum s = acked.next(); s <= contiguous_; ++s) {
                    const LogStore::Entry* entry = store_.find(s);
                    if (entry == nullptr) continue;
                    outstanding = true;
                    actions.emplace_back(SendUnicast{
                        replica, make_packet(ReplicaUpdateBody{entry->seq, entry->epoch,
                                                               entry->payload})});
                }
            }
            if (outstanding) {
                replica_retry_armed_ = true;
                actions.emplace_back(StartTimer{{TimerKind::kReplicaRetry, 0},
                                             now + config_.replica_retry});
            }
            return actions;
        }

        default:
            return actions;
    }
}

}  // namespace lbrm
