// ProtocolHost: glues sans-IO cores to a driver.
//
// One ProtocolHost represents one network endpoint (one NodeId).  It owns
// any mix of cores -- a sender, receivers, and logging servers for several
// groups (the paper's recursion: "a single logging process may serve as the
// primary logger for one group and as the secondary logger for another") --
// routes incoming packets to all of them, executes the Actions they return
// through the driver's NetworkService/TimerService, and forwards
// DeliverData/Notice actions to application handlers, naming the core
// that reports.
//
// Receivers live in one table in attach order, one entry each, inline for
// the first: a dormant record, or the owner of a live core in a heap block
// that never moves, so the references the attach methods hand out stay
// valid for the host's lifetime.  A host carries only what its own node
// needs (DESIGN.md "Memory engineering"): the sender, logger and generic
// slots share one block allocated on the first such attach, since nearly
// every host in a large scenario is receiver-only.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/small_vec.hpp"
#include "common/stable_vector.hpp"
#include "core/logger.hpp"
#include "core/receiver.hpp"
#include "core/sender.hpp"
#include "obs/metrics.hpp"
#include "runtime/services.hpp"

namespace lbrm {

class ProtocolHost {
public:
    ProtocolHost(NetworkService& network, TimerService& timers)
        : network_(network), timers_(timers) {}

    ProtocolHost(const ProtocolHost&) = delete;
    ProtocolHost& operator=(const ProtocolHost&) = delete;

    /// Attach cores.  References remain valid for the host's lifetime, and
    /// any number of cores may share one `handlers` object.
    SenderCore& add_sender(SenderConfig config, SharedHandlers handlers = nullptr);
    ReceiverCore& add_receiver(ReceiverConfig config, SharedHandlers handlers = nullptr);
    /// A receiver sharing `policy` with the group's other receivers (see
    /// ReceiverCore's shared-policy constructor).
    ReceiverCore& add_receiver(std::shared_ptr<const ReceiverConfig> policy, NodeId self,
                               NodeId logger, NodeId fallback_logger,
                               SharedHandlers handlers = nullptr);
    LoggerCore& add_logger(LoggerConfig config, std::uint64_t rng_seed,
                           SharedHandlers handlers = nullptr);
    /// Attach an arbitrary sans-IO core (baseline protocols).
    CoreBase& add_core(std::unique_ptr<CoreBase> core, SharedHandlers handlers = nullptr);

    /// Shared blueprint for dormant receivers: the identity-independent
    /// config (self/logger/fallback_logger come from each entry) and the
    /// handlers they all report through.  A woken core keeps `config` as
    /// its policy: no copy.
    struct DormantReceiverTemplate {
        ReceiverConfig config;
        SharedHandlers handlers;
    };

    /// Attach a *dormant* receiver: a table entry whose core is built in
    /// place by the first packet that would change it (DESIGN.md "Memory
    /// engineering").  Bit-identical to add_receiver() on an idle group
    /// member because ReceiverCore's constructor is pure, start() with a
    /// static logger only arms the idle watchdog (served here by the
    /// owner's fire_dormant_watchdogs() sweep), and on_packet() mutates
    /// nothing unless the packet's group matches the receiver's group or
    /// retransmission channel -- exactly the wake predicate.  Requires a
    /// statically configured logger (discovery would send probes at
    /// start); throws std::invalid_argument on logger == kNoNode.  Woken
    /// or not, it runs in attach order on every host entry point.
    void add_dormant_receiver(std::shared_ptr<const DormantReceiverTemplate> tmpl,
                              NodeId self, NodeId logger,
                              NodeId fallback_logger = kNoNode);

    /// Has no effect: the sweep is the only dormant-watchdog mode (start()
    /// arms no timer for a dormant record; see fire_dormant_watchdogs).
    /// Kept for source compatibility only and will be removed.
    void defer_dormant_watchdogs() {}

    /// Dormant-watchdog sweep: fire the freshness-lost notice for every
    /// still-dormant record whose idle deadline (start time + the
    /// template's initial_idle_threshold) has passed.  start() arms no
    /// per-record timer -- at 10^7 dormant receivers those would dominate
    /// RSS -- so the owner must call this on every host at (or after) the
    /// records' deadline; a scenario whose dormant receivers share one
    /// template schedules a single sweep event.  Without a sweep,
    /// freshness-lost notices for never-woken receivers are simply lost.
    /// Mirrors ReceiverCore::on_timer's kIdle branch, in attach order, so
    /// a sweep at the shared deadline is trace-identical to the idle
    /// timers eager cores arm at start().  No-op for woken or stale
    /// records.
    void fire_dormant_watchdogs(TimePoint now);

    /// Receivers still dormant on this host (tests / introspection).
    [[nodiscard]] std::size_t dormant_count() const {
        std::size_t n = 0;
        for (const ReceiverEntry& entry : receivers_) n += entry.live ? 0 : 1;
        return n;
    }
    /// Live receiver cores woken from dormancy so far (tests).
    [[nodiscard]] std::uint64_t dormant_wakes() const { return dormant_wakes_; }

    /// The live receiver core with the given self id, materialising it
    /// from dormancy if needed (a pure wake: no actions run, so the
    /// simulation is unaffected).  Null when this host has no such
    /// receiver.
    [[nodiscard]] ReceiverCore* receiver_for(NodeId self);

    /// Start every attached core (arms initial timers, begins probing...).
    void start(TimePoint now);

    /// Driver entry: a decoded packet arrived addressed to (or multicast
    /// reaching) this host.
    void on_packet(TimePoint now, const Packet& packet);

    /// Driver entry: raw datagram; silently drops undecodable input.
    void on_datagram(TimePoint now, std::span<const std::uint8_t> datagram);

    /// Driver entry: the timer (core_tag, id) fired.
    void on_timer(TimePoint now, std::uint32_t core_tag, TimerId id);

    /// Application entry: multicast a payload through the sender core.
    void send(TimePoint now, std::span<const std::uint8_t> payload);

    /// Application entry for generic cores: execute `actions` produced by a
    /// direct call on an attached core (e.g. a baseline sender's send()),
    /// so its sends/timers/notifications run through the host services.
    void inject(TimePoint now, const CoreBase& core, Actions actions);

    [[nodiscard]] std::size_t core_count() const;

    /// Bind a metrics registry: resolves the shared protocol handle block
    /// plus host-level send/timer counters, and binds every core attached so
    /// far.  Cores attached later are bound at attach time.  Idempotent.
    void bind_metrics(obs::Metrics& metrics);

private:
    // Tagged slots: tag 0 = sender; receivers and loggers get tags 1..N in
    // attach order.
    struct SenderSlot {
        SenderCore core;
        SharedHandlers handlers;
        SenderSlot(SenderConfig c, SharedHandlers h) : core(std::move(c)), handlers(std::move(h)) {}
    };
    struct LoggerSlot {
        std::uint32_t tag;
        LoggerCore core;
        SharedHandlers handlers;
        LoggerSlot(std::uint32_t t, LoggerConfig c, std::uint64_t seed, SharedHandlers h)
            : tag(t), core(std::move(c), seed), handlers(std::move(h)) {}
    };
    struct GenericSlot {
        std::uint32_t tag;
        std::unique_ptr<CoreBase> core;
        SharedHandlers handlers;
    };

    /// The slots a receiver-only host never fills, in one block that the
    /// first add_sender, add_logger or add_core allocates.  At most one
    /// host in a scenario carries a sender, so it stays behind its own
    /// pointer here too.
    struct Roles {
        std::unique_ptr<SenderSlot> sender;
        StableVector<LoggerSlot> loggers;
        StableVector<GenericSlot> generics;
    };
    Roles& roles();
    [[nodiscard]] SenderSlot* sender_slot() const {
        return roles_ ? roles_->sender.get() : nullptr;
    }

    /// A receiver's core and handlers, in a heap block that never moves.
    struct LiveReceiver {
        ReceiverCore core;
        SharedHandlers handlers;
        LiveReceiver(std::shared_ptr<const ReceiverConfig> policy, NodeId self, NodeId logger,
                     NodeId fallback, SharedHandlers h)
            : core(std::move(policy), self, logger, fallback), handlers(std::move(h)) {}
    };
    /// One receiver: dormant while `live` is null, when its ids, freshness
    /// and template are all the state an idle, statically configured group
    /// member accumulates (see add_dormant_receiver).
    struct ReceiverEntry {
        std::uint32_t tag;
        NodeId self;
        NodeId logger;
        NodeId fallback;
        bool fresh = true;
        std::shared_ptr<const DormantReceiverTemplate> tmpl;  ///< null if attached eager
        std::unique_ptr<LiveReceiver> live;
    };

    /// `entry`'s live receiver, built in place first if it is dormant.
    /// Runs no actions.
    LiveReceiver& awake(ReceiverEntry& entry);

    void execute(TimePoint now, std::uint32_t tag, NodeId self, const SharedHandlers& handlers,
                 Actions&& actions);

    NetworkService& network_;
    TimerService& timers_;
    /// The disabled block until bind_metrics(); host counters are its
    /// `host` member.
    const obs::ProtocolMetrics* metrics_ = &obs::ProtocolMetrics::disabled();

    std::unique_ptr<Roles> roles_;  ///< null on a receiver-only host
    /// Every receiver in attach (= tag) order, inline for the first:
    /// nearly every host carries exactly one (bench/rss_gate.bound).  A
    /// handler may re-enter the host and attach or wake a receiver, so
    /// loops that run handlers walk the table by index and re-read its size.
    SmallVec<ReceiverEntry, 1> receivers_;
    std::uint32_t dormant_wakes_ = 0;
    std::uint32_t next_tag_ = 1;
    TimePoint started_at_{};  ///< set by start(); anchors watchdog sweeps
    bool started_ = false;    ///< start() ran (pre-start wakes skip the
                              ///< watchdog arm: start() handles it)
};

}  // namespace lbrm
