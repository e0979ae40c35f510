#include "runtime/protocol_host.hpp"

#include <stdexcept>

namespace lbrm {

SenderCore& ProtocolHost::add_sender(SenderConfig config, AppHandlers handlers) {
    sender_ = std::make_unique<SenderSlot>(std::move(config), std::move(handlers));
    if (metrics_ != nullptr) sender_->core.bind_metrics(*metrics_);
    return sender_->core;
}

ReceiverCore& ProtocolHost::add_receiver(ReceiverConfig config, AppHandlers handlers) {
    ReceiverCore& core =
        receivers_.emplace_back(next_tag_++, std::move(config), std::move(handlers))
            .core;
    if (metrics_ != nullptr) core.bind_metrics(*metrics_);
    return core;
}

LoggerCore& ProtocolHost::add_logger(LoggerConfig config, std::uint64_t rng_seed,
                                     AppHandlers handlers) {
    LoggerCore& core =
        loggers_
            .emplace_back(next_tag_++, std::move(config), rng_seed, std::move(handlers))
            .core;
    if (metrics_ != nullptr) core.bind_metrics(*metrics_);
    return core;
}

void ProtocolHost::bind_metrics(obs::Metrics& metrics) {
    metrics_ = &metrics.protocol();
    host_ = &metrics_->host;
    if (sender_) sender_->core.bind_metrics(*metrics_);
    for (auto& slot : receivers_) slot.core.bind_metrics(*metrics_);
    for (auto& slot : loggers_) slot.core.bind_metrics(*metrics_);
}

std::uint64_t ProtocolHost::gap_overflows() const {
    std::uint64_t total = 0;
    for (const auto& slot : receivers_) total += slot.core.detector().gap_overflows();
    for (const auto& slot : loggers_) total += slot.core.detector().gap_overflows();
    return total;
}

std::uint64_t ProtocolHost::zero_volunteer_resolicits() const {
    return sender_ ? sender_->core.stat_ack().empty_epoch_resolicits() : 0;
}

CoreBase& ProtocolHost::add_core(std::unique_ptr<CoreBase> core, AppHandlers handlers) {
    return *generics_.emplace_back(next_tag_++, std::move(core), std::move(handlers))
                .core;
}

void ProtocolHost::add_dormant_receiver(
    std::shared_ptr<const DormantReceiverTemplate> tmpl, NodeId self, NodeId logger,
    NodeId fallback_logger) {
    if (logger == kNoNode)
        throw std::invalid_argument(
            "dormant receivers need a statically configured logger "
            "(discovery sends probes at start)");
    dormant_.push_back(
        DormantReceiver{next_tag_++, self, logger, fallback_logger, true,
                        std::move(tmpl)});
}

ProtocolHost::ReceiverSlot& ProtocolHost::wake_dormant(std::size_t i) {
    DormantReceiver rec = std::move(dormant_[i]);
    dormant_.erase(dormant_.begin() + static_cast<std::ptrdiff_t>(i));
    ReceiverConfig config = rec.tmpl->config;
    config.self = rec.self;
    config.logger = rec.logger;
    config.fallback_logger = rec.fallback;
    AppHandlers handlers =
        rec.tmpl->make_handlers ? rec.tmpl->make_handlers(rec.self) : AppHandlers{};
    ReceiverSlot& slot =
        receivers_.emplace_back(rec.tag, std::move(config), std::move(handlers));
    // The constructor is pure; restore the two flags start() would have set
    // (a fired idle watchdog is recorded in rec.fresh).
    slot.core.restore_started(rec.fresh);
    if (started_ && rec.fresh) {
        // No timer was ever armed for this record's idle watchdog, and once
        // the core is live the sweep no longer covers it.  If the wake
        // packet carries stream activity the core's on_packet re-arms kIdle
        // anyway (replacing this); but a wake by a packet the receiver
        // *ignores* (a stat-ack probe, say) would otherwise leave a fresh
        // core with no watchdog at all -- its freshness-lost would silently
        // diverge from an eager core, whose start()-armed timer still
        // fires.  Stale (!fresh) records carry no pending watchdog: the
        // eager equivalent already fired it, with no re-arm.
        timers_.arm(rec.tag, {TimerKind::kIdle, 0},
                    started_at_ + ReceiverCore::initial_idle_threshold(
                                      slot.core.config()));
    }
    if (metrics_ != nullptr) slot.core.bind_metrics(*metrics_);
    ++dormant_wakes_;
    return slot;
}

ReceiverCore* ProtocolHost::receiver_for(NodeId self) {
    for (auto& slot : receivers_)
        if (slot.core.config().self == self) return &slot.core;
    for (std::size_t i = 0; i < dormant_.size(); ++i)
        if (dormant_[i].self == self) return &wake_dormant(i).core;
    return nullptr;
}

std::size_t ProtocolHost::next_dormant_after(std::uint64_t last_tag) const {
    // Tags are handed out in attach order and wake_dormant preserves the
    // order of the remaining records, so dormant_ is always ascending by
    // tag.  The cursor therefore visits each record present at loop entry
    // at most once and naturally skips records erased by a reentrant wake.
    for (std::size_t i = 0; i < dormant_.size(); ++i)
        if (dormant_[i].tag > last_tag) return i;
    return dormant_.size();
}

void ProtocolHost::fire_dormant_watchdogs(TimePoint now) {
    // Tag-cursor loop, not indices or references: execute() routes notices
    // through observer callbacks that may re-enter this host and wake (=
    // erase) another dormant record -- e.g. a chaos fault or a test poking
    // scenario.receiver(node) from on_notice.  An index held across that
    // erase would skip the shifted record; a reference would dangle.
    std::uint64_t last_tag = 0;  // tags start at 1, so 0 = "before the first"
    for (;;) {
        const std::size_t i = next_dormant_after(last_tag);
        if (i >= dormant_.size()) break;
        last_tag = dormant_[i].tag;
        if (!dormant_[i].fresh) continue;
        if (started_at_ +
                ReceiverCore::initial_idle_threshold(dormant_[i].tmpl->config) >
            now)
            continue;
        // Mirror ReceiverCore::on_timer's kIdle branch: flip freshness,
        // notify, no re-arm.  The record stays dormant -- losing freshness
        // accumulates no other state.  Flip before executing so a
        // reentrant sweep never double-fires this record.
        dormant_[i].fresh = false;
        const std::uint32_t tag = dormant_[i].tag;
        const NodeId self = dormant_[i].self;
        const AppHandlers handlers = dormant_[i].tmpl->make_handlers
                                         ? dormant_[i].tmpl->make_handlers(self)
                                         : AppHandlers{};
        Actions actions;
        actions.push_back(Notice{NoticeKind::kFreshnessLost, 0});
        execute(now, tag, handlers, std::move(actions));
    }
}

std::size_t ProtocolHost::core_count() const {
    return (sender_ ? 1u : 0u) + receivers_.size() + loggers_.size() +
           generics_.size() + dormant_.size();
}

void ProtocolHost::start(TimePoint now) {
    if (sender_) execute(now, 0, sender_->handlers, sender_->core.start(now));
    for (auto& slot : receivers_)
        execute(now, slot.tag, slot.handlers, slot.core.start(now));
    // Dormant records arm nothing: their idle watchdogs fire from the
    // owner's sweep (fire_dormant_watchdogs), anchored at this instant.
    started_at_ = now;
    started_ = true;
    for (auto& slot : loggers_)
        execute(now, slot.tag, slot.handlers, slot.core.start(now));
    for (auto& slot : generics_)
        execute(now, slot.tag, slot.handlers, slot.core->start(now));
}

void ProtocolHost::on_packet(TimePoint now, const Packet& packet) {
    // Every core sees every packet; each filters by group and type.  This
    // mirrors a host process demultiplexing one socket to its protocol
    // entities.
    if (sender_) execute(now, 0, sender_->handlers, sender_->core.on_packet(now, packet));
    for (auto& slot : receivers_)
        execute(now, slot.tag, slot.handlers, slot.core.on_packet(now, packet));
    // Tag-cursor loop (see fire_dormant_watchdogs): the execute() after a
    // wake runs observer callbacks that may re-enter this host and wake
    // another dormant record, shifting dormant_ under a plain index.
    std::uint64_t last_dormant_tag = 0;
    while (!dormant_.empty()) {
        const std::size_t i = next_dormant_after(last_dormant_tag);
        if (i >= dormant_.size()) break;
        last_dormant_tag = dormant_[i].tag;
        // A live idle core mutates nothing on a packet unless its group or
        // retransmission channel matches (ReceiverCore::on_packet's filter)
        // -- so matching packets wake the core, everything else is a no-op.
        const ReceiverConfig& cfg = dormant_[i].tmpl->config;
        const bool wakes = packet.header.group == cfg.group ||
                           (cfg.retrans_channel != kNoGroup &&
                            packet.header.group == cfg.retrans_channel);
        if (!wakes) continue;
        ReceiverSlot& slot = wake_dormant(i);  // erases dormant_[i]
        execute(now, slot.tag, slot.handlers, slot.core.on_packet(now, packet));
    }
    for (auto& slot : loggers_)
        execute(now, slot.tag, slot.handlers, slot.core.on_packet(now, packet));
    for (auto& slot : generics_)
        execute(now, slot.tag, slot.handlers, slot.core->on_packet(now, packet));
}

void ProtocolHost::on_datagram(TimePoint now, std::span<const std::uint8_t> datagram) {
    if (auto packet = decode(datagram)) on_packet(now, *packet);
}

void ProtocolHost::on_timer(TimePoint now, std::uint32_t core_tag, TimerId id) {
    if (core_tag == 0) {
        if (sender_) execute(now, 0, sender_->handlers, sender_->core.on_timer(now, id));
        return;
    }
    for (auto& slot : receivers_) {
        if (slot.tag == core_tag) {
            execute(now, slot.tag, slot.handlers, slot.core.on_timer(now, id));
            return;
        }
    }
    for (auto& slot : loggers_) {
        if (slot.tag == core_tag) {
            execute(now, slot.tag, slot.handlers, slot.core.on_timer(now, id));
            return;
        }
    }
    for (auto& slot : generics_) {
        if (slot.tag == core_tag) {
            execute(now, slot.tag, slot.handlers, slot.core->on_timer(now, id));
            return;
        }
    }
}

void ProtocolHost::send(TimePoint now, std::span<const std::uint8_t> payload) {
    if (!sender_) return;
    execute(now, 0, sender_->handlers, sender_->core.send(now, payload));
}

void ProtocolHost::inject(TimePoint now, const CoreBase& core, Actions actions) {
    for (auto& slot : generics_) {
        if (slot.core.get() == &core) {
            execute(now, slot.tag, slot.handlers, std::move(actions));
            return;
        }
    }
}

void ProtocolHost::execute(TimePoint now, std::uint32_t tag, const AppHandlers& handlers,
                           Actions&& actions) {
    for (Action& action : actions) {
        if (auto* send = std::get_if<SendUnicast>(&action)) {
            host_->send_by_type[static_cast<std::size_t>(send->packet.type())]
                ->inc();
            network_.send_unicast(send->to, send->packet);
        } else if (auto* mcast = std::get_if<SendMulticast>(&action)) {
            host_->send_by_type[static_cast<std::size_t>(mcast->packet.type())]
                ->inc();
            network_.send_multicast(mcast->packet, mcast->scope);
        } else if (auto* start = std::get_if<StartTimer>(&action)) {
            host_->timers_armed->inc();
            timers_.arm(tag, start->id, start->deadline);
        } else if (auto* cancel = std::get_if<CancelTimer>(&action)) {
            host_->timers_cancelled->inc();
            timers_.cancel(tag, cancel->id);
        } else if (auto* deliver = std::get_if<DeliverData>(&action)) {
            if (handlers.on_data) handlers.on_data(now, *deliver);
        } else if (auto* notice = std::get_if<Notice>(&action)) {
            host_->notices->inc();
            if (handlers.on_notice) handlers.on_notice(now, *notice);
        } else if (auto* join = std::get_if<JoinGroup>(&action)) {
            network_.join_group(join->group);
        } else if (auto* leave = std::get_if<LeaveGroup>(&action)) {
            network_.leave_group(leave->group);
        }
    }
}

}  // namespace lbrm
