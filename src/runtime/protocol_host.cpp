#include "runtime/protocol_host.hpp"

#include <stdexcept>

namespace lbrm {

void ProtocolHost::append(Entry entry) {
    if (cores_.size() == TimerService::kTagLimit)
        throw std::length_error("ProtocolHost: more cores than timer tags");
    cores_.push_back(std::move(entry));
}

template <typename Core>
Core& ProtocolHost::attach(std::unique_ptr<Core> core, SharedHandlers handlers) {
    Core& attached = *core;
    attached.bind_metrics(*metrics_);
    append(Entry{.core = std::move(core),
                 .handlers = std::move(handlers),
                 .self = attached.self()});
    return attached;
}

SenderCore& ProtocolHost::add_sender(SenderConfig config, SharedHandlers handlers) {
    return attach(std::make_unique<SenderCore>(std::move(config)), std::move(handlers));
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
    return attach(
        std::make_unique<ReceiverCore>(std::move(policy), self, logger, fallback_logger),
        std::move(handlers));
}

LoggerCore& ProtocolHost::add_logger(LoggerConfig config, std::uint64_t rng_seed,
                                     SharedHandlers handlers) {
    return attach(std::make_unique<LoggerCore>(std::move(config), rng_seed),
                  std::move(handlers));
}

CoreBase& ProtocolHost::add_core(std::unique_ptr<CoreBase> core, SharedHandlers handlers) {
    return attach(std::move(core), std::move(handlers));
}

void ProtocolHost::bind_metrics(obs::Metrics& metrics) {
    metrics_ = &metrics.protocol();
    for (Entry& entry : cores_)
        if (entry.core) entry.core->bind_metrics(*metrics_);
}

void ProtocolHost::add_dormant_receiver(
    std::shared_ptr<const DormantReceiverTemplate> tmpl, NodeId self, NodeId logger,
    NodeId fallback_logger) {
    if (logger == kNoNode)
        throw std::invalid_argument(
            "dormant receivers need a statically configured logger "
            "(discovery sends probes at start)");
    SharedHandlers handlers = tmpl->handlers;
    append(Entry{.handlers = std::move(handlers),
                 .tmpl = std::move(tmpl),
                 .self = self,
                 .logger = logger,
                 .fallback = fallback_logger});
}

ReceiverCore& ProtocolHost::awake(std::uint32_t tag) {
    Entry& entry = cores_[tag];
    const DormantReceiverTemplate& tmpl = *entry.tmpl;
    // The core's policy aliases the template's config: it shares the
    // template's ownership, so the wake copies no configuration.
    auto built = std::make_unique<ReceiverCore>(
        std::shared_ptr<const ReceiverConfig>(entry.tmpl, &tmpl.config), entry.self,
        entry.logger, entry.fallback);
    ReceiverCore& core = *built;
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
        timers_.arm(tag, {TimerKind::kIdle, 0},
                    started_at_ + ReceiverCore::initial_idle_threshold(tmpl.config));
    }
    core.bind_metrics(*metrics_);
    entry.core = std::move(built);
    ++dormant_wakes_;
    return core;
}

ReceiverCore* ProtocolHost::receiver_for(NodeId self) {
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        if (entry.self != self) continue;
        if (!entry.core) return &awake(tag);
        if (auto* receiver = dynamic_cast<ReceiverCore*>(entry.core.get())) return receiver;
    }
    return nullptr;
}

void ProtocolHost::fire_dormant_watchdogs(TimePoint now) {
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        Entry& entry = cores_[tag];
        if (entry.core || !entry.fresh ||
            started_at_ + ReceiverCore::initial_idle_threshold(entry.tmpl->config) > now)
            continue;
        // Mirror ReceiverCore::on_timer's kIdle branch: flip freshness,
        // notify, no re-arm.  The entry stays dormant -- losing freshness
        // accumulates no other state.  Flip before executing so a
        // reentrant sweep never double-fires this entry.
        entry.fresh = false;
        Actions actions;
        actions.emplace_back(Notice{NoticeKind::kFreshnessLost, 0});
        execute(now, tag, entry.self, entry.handlers.get(), std::move(actions));
    }
}

void ProtocolHost::start(TimePoint now) {
    // Dormant entries arm nothing: their idle watchdogs fire from the
    // owner's sweep (fire_dormant_watchdogs), anchored at this instant.
    // Set first, so a receiver a handler wakes behind the loop arms its
    // own watchdog.
    started_at_ = now;
    started_ = true;
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        if (CoreBase* core = entry.core.get())
            execute(now, tag, entry.self, entry.handlers.get(), core->start(now));
    }
}

void ProtocolHost::on_packet(TimePoint now, const Packet& packet) {
    // Every core sees every packet; each filters by group and type.  This
    // mirrors a host process demultiplexing one socket to its protocol
    // entities.
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        CoreBase* core = entry.core.get();
        if (core == nullptr) {
            // A live idle core mutates nothing on a packet unless its group
            // or retransmission channel matches (ReceiverCore::on_packet's
            // filter) -- so matching packets wake the core, everything
            // else is a no-op.
            const ReceiverConfig& cfg = entry.tmpl->config;
            const bool wakes = packet.header.group == cfg.group ||
                               (cfg.retrans_channel != kNoGroup &&
                                packet.header.group == cfg.retrans_channel);
            if (!wakes) continue;
            core = &awake(tag);
        }
        execute(now, tag, entry.self, entry.handlers.get(), core->on_packet(now, packet));
    }
}

void ProtocolHost::on_datagram(TimePoint now, std::span<const std::uint8_t> datagram) {
    if (auto packet = decode(datagram)) on_packet(now, *packet);
}

void ProtocolHost::on_timer(TimePoint now, std::uint32_t core_tag, TimerId id) {
    if (core_tag >= cores_.size()) return;
    const Entry& entry = cores_[core_tag];
    // Dormant entries arm no timers.
    if (CoreBase* core = entry.core.get())
        execute(now, core_tag, entry.self, entry.handlers.get(), core->on_timer(now, id));
}

void ProtocolHost::inject(TimePoint now, const CoreBase& core, Actions actions) {
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        if (entry.core.get() != &core) continue;
        execute(now, tag, entry.self, entry.handlers.get(), std::move(actions));
        return;
    }
}

void ProtocolHost::execute(TimePoint now, std::uint32_t tag, NodeId self,
                           const AppHandlers* handlers, Actions&& actions) {
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
