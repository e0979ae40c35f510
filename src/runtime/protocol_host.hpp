// ProtocolHost: glues sans-IO cores to a driver.
//
// One ProtocolHost represents one network endpoint (one NodeId).  It owns
// any mix of cores -- a sender, receivers, and logging servers for several
// groups (the paper's recursion: "a single logging process may serve as the
// primary logger for one group and as the secondary logger for another") --
// routes incoming packets to all of them, executes the Actions they return
// through the driver's NetworkService/TimerService, and forwards
// DeliverData/Notice actions to application handlers.
//
// Core slots live by value in chunked stable arenas (see
// common/stable_vector.hpp): attaching a receiver costs amortised-zero
// allocations instead of one heap node per core, which matters when a
// million-node scenario attaches a million receiver slots (DESIGN.md
// "Scale engineering").  The attach methods still hand out references that
// stay valid for the host's lifetime.
#pragma once

#include <functional>
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

    /// Attach cores.  References remain valid for the host's lifetime.
    SenderCore& add_sender(SenderConfig config, AppHandlers handlers = {});
    ReceiverCore& add_receiver(ReceiverConfig config, AppHandlers handlers = {});
    LoggerCore& add_logger(LoggerConfig config, std::uint64_t rng_seed,
                           AppHandlers handlers = {});
    /// Attach an arbitrary sans-IO core (baseline protocols).
    CoreBase& add_core(std::unique_ptr<CoreBase> core, AppHandlers handlers = {});

    /// Shared blueprint for dormant receivers: the identity-independent
    /// config (self/logger/fallback_logger are overridden per record) plus
    /// a handler factory invoked only when a core actually wakes.  One
    /// template is shared by every dormant receiver in a scenario.
    struct DormantReceiverTemplate {
        ReceiverConfig config;
        std::function<AppHandlers(NodeId self)> make_handlers;
    };

    /// Attach a *dormant* receiver: a ~48-byte record instead of a full
    /// ReceiverCore slot (DESIGN.md "Memory engineering").  Bit-identical
    /// to add_receiver() on an idle group member because ReceiverCore's
    /// constructor is pure, start() with a static logger only arms the
    /// idle watchdog (served here by the owner's fire_dormant_watchdogs()
    /// sweep), and on_packet() mutates nothing unless the packet's group
    /// matches the receiver's group or retransmission channel -- exactly
    /// the wake predicate.  Requires a statically configured logger
    /// (discovery would send probes at start); throws
    /// std::invalid_argument on logger == kNoNode.  Dormant records process
    /// after live receivers and before loggers on every host entry point.
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
    /// Mirrors ReceiverCore::on_timer's kIdle branch, in dormant-record
    /// order, so a sweep at the shared deadline is trace-identical to the
    /// idle timers eager cores arm at start().  No-op for woken (erased)
    /// or stale records.
    void fire_dormant_watchdogs(TimePoint now);

    /// Receivers still dormant on this host (tests / introspection).
    [[nodiscard]] std::size_t dormant_count() const { return dormant_.size(); }
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

    [[nodiscard]] SenderCore* sender() { return sender_ ? &sender_->core : nullptr; }
    [[nodiscard]] std::size_t core_count() const;

    /// Bind a metrics registry: resolves the shared protocol handle block
    /// plus host-level send/timer counters, and binds every core attached so
    /// far.  Cores attached later are bound at attach time.  Idempotent.
    void bind_metrics(obs::Metrics& metrics);

    // --- aggregated protocol health ------------------------------------
    /// Gap-table clamp events summed across every attached receiver *and*
    /// secondary-logger loss detector (LossDetector::gap_overflows).
    [[nodiscard]] std::uint64_t gap_overflows() const;
    /// Zero-volunteer acker epochs the sender's statistical-ACK engine had
    /// to re-solicit (StatAckEngine::empty_epoch_resolicits).
    [[nodiscard]] std::uint64_t zero_volunteer_resolicits() const;

private:
    // Tagged slots: tag 0 = sender; receivers and loggers get tags 1..N in
    // attach order.
    struct SenderSlot {
        SenderCore core;
        AppHandlers handlers;
        explicit SenderSlot(SenderConfig c, AppHandlers h)
            : core(std::move(c)), handlers(std::move(h)) {}
    };
    struct ReceiverSlot {
        std::uint32_t tag;
        ReceiverCore core;
        AppHandlers handlers;
        ReceiverSlot(std::uint32_t t, ReceiverConfig c, AppHandlers h)
            : tag(t), core(std::move(c)), handlers(std::move(h)) {}
    };
    struct LoggerSlot {
        std::uint32_t tag;
        LoggerCore core;
        AppHandlers handlers;
        LoggerSlot(std::uint32_t t, LoggerConfig c, std::uint64_t seed, AppHandlers h)
            : tag(t), core(std::move(c), seed), handlers(std::move(h)) {}
    };
    struct GenericSlot {
        std::uint32_t tag;
        std::unique_ptr<CoreBase> core;
        AppHandlers handlers;
        GenericSlot(std::uint32_t t, std::unique_ptr<CoreBase> c, AppHandlers h)
            : tag(t), core(std::move(c)), handlers(std::move(h)) {}
    };

    /// Dormant receiver: identity + freshness is all the state an idle,
    /// statically-configured group member accumulates (see
    /// add_dormant_receiver).  48 bytes vs ~1.3 kB for a ReceiverSlot.
    struct DormantReceiver {
        std::uint32_t tag;
        NodeId self;
        NodeId logger;
        NodeId fallback;
        bool fresh = true;
        std::shared_ptr<const DormantReceiverTemplate> tmpl;
    };

    void execute(TimePoint now, std::uint32_t tag, const AppHandlers& handlers,
                 Actions&& actions);

    /// Materialise dormant_[i] into receivers_ (erases the record,
    /// preserving the order of the remaining ones).  Runs no actions.
    ReceiverSlot& wake_dormant(std::size_t i);

    /// Index of the first dormant record with tag > last_tag, or
    /// dormant_.size().  dormant_ is ascending by tag (attach order;
    /// wake_dormant preserves the remaining order), so this implements the
    /// reentrancy-safe cursor used by on_packet and
    /// fire_dormant_watchdogs.
    [[nodiscard]] std::size_t next_dormant_after(std::uint64_t last_tag) const;

    NetworkService& network_;
    TimerService& timers_;
    const obs::ProtocolMetrics* metrics_ = nullptr;  ///< null until bound
    const obs::HostMetrics* host_ = &obs::HostMetrics::disabled();

    /// Behind a pointer on purpose: at most one host in a whole scenario
    /// carries a sender, so inlining the slot would cost sizeof(SenderCore)
    /// in every one of a million senderless hosts.
    std::unique_ptr<SenderSlot> sender_;
    StableVector<ReceiverSlot> receivers_;
    StableVector<LoggerSlot> loggers_;
    StableVector<GenericSlot> generics_;
    /// Inline slot of 1: the dominant population (dormant-receiver sites)
    /// holds exactly one record per host, which std::vector would put in
    /// its own ~48-byte malloc chunk -- at 100k+ hosts those chunks are
    /// the RSS floor (bench/rss_gate.bound).
    SmallVec<DormantReceiver, 1> dormant_;
    std::uint64_t dormant_wakes_ = 0;
    std::uint32_t next_tag_ = 1;
    TimePoint started_at_{};  ///< set by start(); anchors watchdog sweeps
    bool started_ = false;    ///< start() ran (pre-start wakes skip the
                              ///< watchdog arm: start() handles it)
};

}  // namespace lbrm
