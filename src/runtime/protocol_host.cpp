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
    for (Entry& entry : cores_) entry.core->bind_metrics(*metrics_);
}

/// A dormant entry's block: its record, its freshness and the idle
/// deadline start() anchored.  The host routes it no packet or timer.
struct ProtocolHost::Dormant final : CoreBase {
    Dormant(DormantRecord r, NodeId id) : record(std::move(r)), id(id) {}
    [[nodiscard]] NodeId self() const override { return id; }
    Actions start(TimePoint now) override {
        idle_deadline = now + ReceiverCore::initial_idle_threshold(record.tmpl->config);
        return {};
    }
    Actions on_packet(TimePoint, const Packet&) override { return {}; }
    Actions on_timer(TimePoint, TimerId) override { return {}; }

    DormantRecord record;
    NodeId id;
    bool fresh = true;
    std::optional<TimePoint> idle_deadline;
};

void ProtocolHost::add_dormant_receiver(
    std::shared_ptr<const DormantReceiverTemplate> tmpl, NodeId self, NodeId logger,
    NodeId fallback_logger) {
    if (logger == kNoNode)
        throw std::invalid_argument(
            "dormant receivers need a statically configured logger "
            "(discovery sends probes at start)");
    SharedHandlers handlers = tmpl->handlers;
    append(Entry{.core = std::make_unique<Dormant>(
                     DormantRecord{std::move(tmpl), logger, fallback_logger}, self),
                 .handlers = std::move(handlers),
                 .self = self,
                 .dormant = true});
}

ReceiverCore& ProtocolHost::wake(std::uint32_t tag) {
    const auto& dormant = static_cast<const Dormant&>(*cores_[tag].core);
    return wake(tag, dormant.id, dormant.record, dormant.fresh, dormant.idle_deadline);
}

ReceiverCore& ProtocolHost::wake(std::uint32_t tag, NodeId self, const DormantRecord& record,
                                 bool fresh, std::optional<TimePoint> idle_deadline) {
    const DormantReceiverTemplate& tmpl = *record.tmpl;
    // The core's policy aliases the template's config: it shares the
    // template's ownership, so the wake copies no configuration.
    auto built = std::make_unique<ReceiverCore>(
        std::shared_ptr<const ReceiverConfig>(record.tmpl, &tmpl.config), self, record.logger,
        record.fallback);
    ReceiverCore& core = *built;
    // The constructor is pure; restore the two flags start() would have set
    // (a fired idle watchdog is recorded in `fresh`).
    core.restore_started(fresh);
    if (idle_deadline && fresh) {
        // The sweep no longer covers a live core.  A stream packet re-arms
        // kIdle anyway, but a wake by a packet the core *ignores* (a
        // stat-ack probe, say) would otherwise leave it no watchdog, unlike
        // an eager core.  A stale receiver's watchdog already fired.
        timers_.arm(tag, {TimerKind::kIdle, 0}, *idle_deadline);
    }
    core.bind_metrics(*metrics_);
    if (tag == cores_.size()) append(Entry{.handlers = tmpl.handlers, .self = self});
    Entry& entry = cores_[tag];  // frees a Dormant block `record` may point into
    entry.core = std::move(built);
    entry.dormant = false;
    ++dormant_wakes_;
    return core;
}

ReceiverCore* ProtocolHost::receiver_for(NodeId self) {
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        if (entry.self != self) continue;
        if (entry.dormant) return &wake(tag);
        if (auto* receiver = dynamic_cast<ReceiverCore*>(entry.core.get())) return receiver;
    }
    return nullptr;
}

void ProtocolHost::lose_freshness(TimePoint now, NodeId self, const obs::ProtocolMetrics& metrics,
                                  const AppHandlers* handlers) {
    metrics.host.notices->inc();
    if (handlers != nullptr && handlers->on_notice)
        handlers->on_notice(now, self, Notice{NoticeKind::kFreshnessLost, 0});
}

void ProtocolHost::fire_dormant_watchdogs(TimePoint now) {
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        if (!entry.dormant) continue;
        auto& dormant = static_cast<Dormant&>(*entry.core);
        if (!dormant.fresh || !dormant.idle_deadline || *dormant.idle_deadline > now) continue;
        dormant.fresh = false;  // first, so a reentrant sweep never fires it twice
        lose_freshness(now, entry.self, *metrics_, entry.handlers.get());
    }
}

void ProtocolHost::start(TimePoint now) {
    // A dormant entry's start() only anchors its watchdog for the sweep.
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        execute(now, tag, entry.self, entry.handlers.get(), entry.core->start(now));
    }
}

void ProtocolHost::on_packet(TimePoint now, const Packet& packet) {
    // Every core sees every packet; each filters by group and type.  This
    // mirrors a host process demultiplexing one socket to its protocol
    // entities.
    for (std::uint32_t tag = 0; tag < cores_.size(); ++tag) {
        const Entry& entry = cores_[tag];
        CoreBase* core = entry.core.get();
        if (entry.dormant) {
            if (!wakes(static_cast<const Dormant&>(*core).record.tmpl->config, packet)) continue;
            core = &wake(tag);
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
    execute(now, core_tag, entry.self, entry.handlers.get(), entry.core->on_timer(now, id));
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
