#include "runtime/protocol_host.hpp"

#include <stdexcept>

namespace lbrm {

ProtocolHost::Roles& ProtocolHost::roles() {
    if (!roles_) roles_ = std::make_unique<Roles>();
    return *roles_;
}

SenderCore& ProtocolHost::add_sender(SenderConfig config, SharedHandlers handlers) {
    auto& slot = roles().sender =
        std::make_unique<SenderSlot>(std::move(config), std::move(handlers));
    slot->core.bind_metrics(*metrics_);
    return slot->core;
}

ReceiverCore& ProtocolHost::add_receiver(ReceiverConfig config, SharedHandlers handlers) {
    // A policy of its own, as ReceiverCore(ReceiverConfig) builds one.
    auto policy = std::make_shared<const ReceiverConfig>(std::move(config));
    return add_receiver(policy, policy->self, policy->logger, policy->fallback_logger,
                        std::move(handlers));
}

ReceiverCore& ProtocolHost::add_receiver(std::shared_ptr<const ReceiverConfig> policy,
                                         NodeId self, NodeId logger, NodeId fallback_logger,
                                         SharedHandlers handlers) {
    auto live = std::make_unique<LiveReceiver>(std::move(policy), self, logger, fallback_logger,
                                               std::move(handlers));
    ReceiverCore& core = live->core;
    core.bind_metrics(*metrics_);
    receivers_.push_back(
        ReceiverEntry{next_tag(), self, logger, fallback_logger, true, nullptr, std::move(live)});
    return core;
}

LoggerCore& ProtocolHost::add_logger(LoggerConfig config, std::uint64_t rng_seed,
                                     SharedHandlers handlers) {
    LoggerCore& core =
        roles()
            .loggers
            .emplace_back(next_tag(), std::move(config), rng_seed, std::move(handlers))
            .core;
    core.bind_metrics(*metrics_);
    return core;
}

void ProtocolHost::bind_metrics(obs::Metrics& metrics) {
    metrics_ = &metrics.protocol();
    for (ReceiverEntry& entry : receivers_)
        if (entry.live) entry.live->core.bind_metrics(*metrics_);
    if (!roles_) return;
    if (SenderSlot* sender = sender_slot()) sender->core.bind_metrics(*metrics_);
    for (auto& slot : roles_->loggers) slot.core.bind_metrics(*metrics_);
}

CoreBase& ProtocolHost::add_core(std::unique_ptr<CoreBase> core, SharedHandlers handlers) {
    GenericSlot& slot = roles().generics.emplace_back(
        GenericSlot{next_tag(), std::move(core), std::move(handlers)});
    return *slot.core;
}

void ProtocolHost::add_dormant_receiver(
    std::shared_ptr<const DormantReceiverTemplate> tmpl, NodeId self, NodeId logger,
    NodeId fallback_logger) {
    if (logger == kNoNode)
        throw std::invalid_argument(
            "dormant receivers need a statically configured logger "
            "(discovery sends probes at start)");
    receivers_.push_back(
        ReceiverEntry{next_tag(), self, logger, fallback_logger, true, std::move(tmpl), nullptr});
}

std::uint32_t ProtocolHost::next_tag() {
    if (next_tag_ == TimerService::kTagLimit)
        throw std::length_error("ProtocolHost: more cores than timer tags");
    return next_tag_++;
}

ProtocolHost::LiveReceiver& ProtocolHost::awake(ReceiverEntry& entry) {
    if (entry.live) return *entry.live;
    const DormantReceiverTemplate& tmpl = *entry.tmpl;
    // The core's policy aliases the template's config: it shares the
    // template's ownership, so the wake copies no configuration.
    entry.live = std::make_unique<LiveReceiver>(
        std::shared_ptr<const ReceiverConfig>(entry.tmpl, &tmpl.config), entry.self,
        entry.logger, entry.fallback, tmpl.handlers);
    ReceiverCore& core = entry.live->core;
    // The constructor is pure; restore the two flags start() would have set
    // (a fired idle watchdog is recorded in entry.fresh).
    core.restore_started(entry.fresh);
    if (started_ && entry.fresh) {
        // No timer was ever armed for this entry's idle watchdog, and once
        // the core is live the sweep no longer covers it.  If the wake
        // packet carries stream activity the core's on_packet re-arms kIdle
        // anyway (replacing this); but a wake by a packet the receiver
        // *ignores* (a stat-ack probe, say) would otherwise leave a fresh
        // core with no watchdog at all -- its freshness-lost would silently
        // diverge from an eager core, whose start()-armed timer still
        // fires.  Stale (!fresh) entries carry no pending watchdog: the
        // eager equivalent already fired it, with no re-arm.
        timers_.arm(entry.tag, {TimerKind::kIdle, 0},
                    started_at_ + ReceiverCore::initial_idle_threshold(tmpl.config));
    }
    core.bind_metrics(*metrics_);
    ++dormant_wakes_;
    return *entry.live;
}

ReceiverCore* ProtocolHost::receiver_for(NodeId self) {
    for (ReceiverEntry& entry : receivers_)
        if (entry.self == self) return &awake(entry).core;
    return nullptr;
}

void ProtocolHost::fire_dormant_watchdogs(TimePoint now) {
    for (std::size_t i = 0; i < receivers_.size(); ++i) {
        ReceiverEntry& entry = receivers_[i];
        if (entry.live || !entry.fresh ||
            started_at_ + ReceiverCore::initial_idle_threshold(entry.tmpl->config) > now)
            continue;
        // Mirror ReceiverCore::on_timer's kIdle branch: flip freshness,
        // notify, no re-arm.  The entry stays dormant -- losing freshness
        // accumulates no other state.  Flip before executing so a
        // reentrant sweep never double-fires this entry.
        entry.fresh = false;
        Actions actions;
        actions.emplace_back(Notice{NoticeKind::kFreshnessLost, 0});
        execute(now, entry.tag, entry.self, entry.tmpl->handlers, std::move(actions));
    }
}

std::size_t ProtocolHost::core_count() const {
    std::size_t count = receivers_.size();
    if (roles_)
        count += (sender_slot() ? 1u : 0u) + roles_->loggers.size() +
                 roles_->generics.size();
    return count;
}

void ProtocolHost::start(TimePoint now) {
    if (SenderSlot* sender = sender_slot())
        execute(now, 0, sender->core.config().self, sender->handlers, sender->core.start(now));
    // Dormant entries arm nothing: their idle watchdogs fire from the
    // owner's sweep (fire_dormant_watchdogs), anchored at this instant.
    for (std::size_t i = 0; i < receivers_.size(); ++i) {
        if (LiveReceiver* live = receivers_[i].live.get())
            execute(now, receivers_[i].tag, live->core.self(), live->handlers,
                    live->core.start(now));
    }
    started_at_ = now;
    started_ = true;
    if (!roles_) return;
    for (auto& slot : roles_->loggers)
        execute(now, slot.tag, slot.core.config().self, slot.handlers, slot.core.start(now));
    for (auto& slot : roles_->generics)
        execute(now, slot.tag, slot.core->self(), slot.handlers, slot.core->start(now));
}

void ProtocolHost::on_packet(TimePoint now, const Packet& packet) {
    // Every core sees every packet; each filters by group and type.  This
    // mirrors a host process demultiplexing one socket to its protocol
    // entities.
    if (SenderSlot* sender = sender_slot())
        execute(now, 0, sender->core.config().self, sender->handlers,
                sender->core.on_packet(now, packet));
    for (std::size_t i = 0; i < receivers_.size(); ++i) {
        ReceiverEntry& entry = receivers_[i];
        if (!entry.live) {
            // A live idle core mutates nothing on a packet unless its group
            // or retransmission channel matches (ReceiverCore::on_packet's
            // filter) -- so matching packets wake the core, everything
            // else is a no-op.
            const ReceiverConfig& cfg = entry.tmpl->config;
            const bool wakes = packet.header.group == cfg.group ||
                               (cfg.retrans_channel != kNoGroup &&
                                packet.header.group == cfg.retrans_channel);
            if (!wakes) continue;
            awake(entry);
        }
        LiveReceiver& live = *entry.live;
        execute(now, entry.tag, live.core.self(), live.handlers, live.core.on_packet(now, packet));
    }
    // Re-read roles_ after the cores ran: an observer callback may have
    // attached a logger or generic core.
    if (!roles_) return;
    for (auto& slot : roles_->loggers)
        execute(now, slot.tag, slot.core.config().self, slot.handlers,
                slot.core.on_packet(now, packet));
    for (auto& slot : roles_->generics)
        execute(now, slot.tag, slot.core->self(), slot.handlers, slot.core->on_packet(now, packet));
}

void ProtocolHost::on_datagram(TimePoint now, std::span<const std::uint8_t> datagram) {
    if (auto packet = decode(datagram)) on_packet(now, *packet);
}

void ProtocolHost::on_timer(TimePoint now, std::uint32_t core_tag, TimerId id) {
    if (core_tag == 0) {
        if (SenderSlot* sender = sender_slot())
            execute(now, 0, sender->core.config().self, sender->handlers,
                    sender->core.on_timer(now, id));
        return;
    }
    for (ReceiverEntry& entry : receivers_) {
        if (entry.tag != core_tag) continue;
        // Dormant entries arm no timers.
        if (LiveReceiver* live = entry.live.get())
            execute(now, core_tag, live->core.self(), live->handlers, live->core.on_timer(now, id));
        return;
    }
    if (!roles_) return;
    for (auto& slot : roles_->loggers) {
        if (slot.tag != core_tag) continue;
        execute(now, slot.tag, slot.core.config().self, slot.handlers, slot.core.on_timer(now, id));
        return;
    }
    for (auto& slot : roles_->generics) {
        if (slot.tag != core_tag) continue;
        execute(now, slot.tag, slot.core->self(), slot.handlers, slot.core->on_timer(now, id));
        return;
    }
}

void ProtocolHost::send(TimePoint now, std::span<const std::uint8_t> payload) {
    if (SenderSlot* sender = sender_slot())
        execute(now, 0, sender->core.config().self, sender->handlers,
                sender->core.send(now, payload));
}

void ProtocolHost::inject(TimePoint now, const CoreBase& core, Actions actions) {
    if (!roles_) return;
    for (auto& slot : roles_->generics) {
        if (slot.core.get() != &core) continue;
        execute(now, slot.tag, core.self(), slot.handlers, std::move(actions));
        return;
    }
}

void ProtocolHost::execute(TimePoint now, std::uint32_t tag, NodeId self,
                           const SharedHandlers& handlers, Actions&& actions) {
    const obs::HostMetrics& host = metrics_->host;
    for (Action& action : actions) {
        if (auto* send = std::get_if<SendUnicast>(&action)) {
            host.send_by_type[static_cast<std::size_t>(send->packet.type())]
                ->inc();
            network_.send_unicast(send->to, send->packet);
        } else if (auto* mcast = std::get_if<SendMulticast>(&action)) {
            host.send_by_type[static_cast<std::size_t>(mcast->packet.type())]
                ->inc();
            network_.send_multicast(mcast->packet, mcast->scope);
        } else if (auto* start = std::get_if<StartTimer>(&action)) {
            host.timers_armed->inc();
            timers_.arm(tag, start->id, start->deadline);
        } else if (auto* cancel = std::get_if<CancelTimer>(&action)) {
            host.timers_cancelled->inc();
            timers_.cancel(tag, cancel->id);
        } else if (auto* deliver = std::get_if<DeliverData>(&action)) {
            if (handlers != nullptr && handlers->on_data) handlers->on_data(now, self, *deliver);
        } else if (auto* notice = std::get_if<Notice>(&action)) {
            host.notices->inc();
            if (handlers != nullptr && handlers->on_notice)
                handlers->on_notice(now, self, *notice);
        } else if (auto* join = std::get_if<JoinGroup>(&action)) {
            network_.join_group(join->group);
        } else if (auto* leave = std::get_if<LeaveGroup>(&action)) {
            network_.leave_group(leave->group);
        }
    }
}

}  // namespace lbrm
