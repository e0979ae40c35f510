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
// Every core, whatever its kind, is one 32-byte entry of one table in
// attach order, and its index there is its timer tag.  The table is inline
// for the first entry, since nearly every host in a large scenario carries
// one core (DESIGN.md "Memory engineering"); each core lives in a heap
// block of its own that never moves, so the references the attach methods
// hand out stay valid for the host's lifetime.  A dormant receiver is an
// entry whose block holds its dormant state until a packet wakes it.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "common/small_vec.hpp"
#include "core/core_base.hpp"
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

    /// Attach cores, each at the end of the table.  References remain
    /// valid for the host's lifetime, and any number of cores may share one
    /// `handlers` object.  Throws std::length_error once the table holds
    /// TimerService::kTagLimit cores.
    SenderCore& add_sender(SenderConfig config, SharedHandlers handlers = nullptr);
    ReceiverCore& add_receiver(ReceiverConfig config, SharedHandlers handlers = nullptr);
    /// A receiver sharing `policy` with the group's other receivers (see
    /// ReceiverCore's shared-policy constructor).
    ReceiverCore& add_receiver(std::shared_ptr<const ReceiverConfig> policy, NodeId self,
                               NodeId logger, NodeId fallback_logger,
                               SharedHandlers handlers = nullptr);
    LoggerCore& add_logger(LoggerConfig config, std::uint64_t rng_seed,
                           SharedHandlers handlers = nullptr);
    /// Attach any other sans-IO core (the baseline protocols).
    CoreBase& add_core(std::unique_ptr<CoreBase> core, SharedHandlers handlers = nullptr);

    /// Shared blueprint for dormant receivers: the identity-independent
    /// config (self/logger/fallback_logger come from each entry) and the
    /// handlers they all report through.  A woken core keeps `config` as
    /// its policy: no copy.
    struct DormantReceiverTemplate {
        ReceiverConfig config;
        SharedHandlers handlers;
    };

    /// What a site's dormant receivers share: the template, their loggers.
    struct DormantRecord {
        std::shared_ptr<const DormantReceiverTemplate> tmpl;
        NodeId logger = kNoNode;
        NodeId fallback = kNoNode;
    };

    /// The wake predicate: an idle core acts only on its group's and retrans channel's packets.
    [[nodiscard]] static bool wakes(const ReceiverConfig& config, const Packet& packet) {
        return packet.header.group == config.group ||
               (config.retrans_channel != kNoGroup &&
                packet.header.group == config.retrans_channel);
    }

    /// Attach a *dormant* receiver: a table entry whose core is built in
    /// place by the first packet that wakes it (DESIGN.md "Memory
    /// engineering").  Bit-identical to add_receiver() on an idle group
    /// member because ReceiverCore's constructor is pure, start() with a
    /// static logger only arms the idle watchdog (served here by the
    /// owner's fire_dormant_watchdogs() sweep), and on_packet() mutates
    /// nothing for a packet that does not wake it.  Requires a statically
    /// configured logger (discovery would send probes at start); throws
    /// std::invalid_argument on logger == kNoNode.  Attach it before
    /// start(), which anchors its watchdog.  Woken or not, it runs in
    /// attach order on every host entry point.
    void add_dormant_receiver(std::shared_ptr<const DormantReceiverTemplate> tmpl,
                              NodeId self, NodeId logger,
                              NodeId fallback_logger = kNoNode);

    /// Append the receiver that sim::Network::wake wakes (see wake()).
    ReceiverCore& add_woken_receiver(NodeId self, const DormantRecord& record, bool fresh,
                                     std::optional<TimePoint> idle_deadline) {
        return wake(static_cast<std::uint32_t>(cores_.size()), self, record, fresh, idle_deadline);
    }

    /// A dormant receiver's idle watchdog, ReceiverCore::on_timer's kIdle
    /// branch without the core: the notice path of both sweeps.
    static void lose_freshness(TimePoint now, NodeId self, const obs::ProtocolMetrics& metrics,
                               const AppHandlers* handlers);

    /// Has no effect: the sweep is the only dormant-watchdog mode (start()
    /// arms no timer for a dormant record; see fire_dormant_watchdogs).
    /// Kept for source compatibility only and will be removed.
    void defer_dormant_watchdogs() {}

    /// Dormant-watchdog sweep: fire the freshness-lost notice for every
    /// still-dormant entry whose idle deadline (start time + the
    /// template's initial_idle_threshold) has passed.  start() arms no
    /// per-entry timer -- at 10^7 dormant receivers those would dominate
    /// RSS -- so the owner must call this at (or after) the entries'
    /// deadline; without a sweep, freshness-lost notices for never-woken
    /// receivers are simply lost.  Mirrors ReceiverCore::on_timer's kIdle
    /// branch, in attach order, so a sweep at the shared deadline is
    /// trace-identical to the idle timers eager cores arm at start().
    /// No-op for woken or stale entries.
    void fire_dormant_watchdogs(TimePoint now);

    /// Receivers still dormant on this host (tests / introspection).
    [[nodiscard]] std::size_t dormant_count() const {
        return std::count_if(cores_.begin(), cores_.end(), [](const auto& e) { return e.dormant; });
    }
    /// Live receiver cores woken from dormancy so far (tests).
    [[nodiscard]] std::uint64_t dormant_wakes() const { return dormant_wakes_; }

    /// The live receiver core with the given self id, materialising it
    /// from dormancy if needed (a pure wake: no actions run, so the
    /// simulation is unaffected).  Null when this host has no such
    /// receiver.
    [[nodiscard]] ReceiverCore* receiver_for(NodeId self);

    /// Start every attached core, in attach order (arms initial timers,
    /// begins probing...).
    void start(TimePoint now);

    /// Driver entry: a decoded packet arrived addressed to (or multicast
    /// reaching) this host.  Every core sees it, in attach order.
    void on_packet(TimePoint now, const Packet& packet);

    /// Driver entry: raw datagram; silently drops undecodable input.
    void on_datagram(TimePoint now, std::span<const std::uint8_t> datagram);

    /// Driver entry: the timer (core_tag, id) fired.  A tag past the
    /// table is ignored.
    void on_timer(TimePoint now, std::uint32_t core_tag, TimerId id);

    /// Application entry: execute `actions` produced by a direct call on
    /// an attached core (a sender's send(), say), so its sends, timers and
    /// notifications run through the host services under its tag.  Actions
    /// of a core this host does not hold are dropped.
    void inject(TimePoint now, const CoreBase& core, Actions actions);

    [[nodiscard]] std::size_t core_count() const { return cores_.size(); }

    /// Bind a metrics registry: resolves the shared protocol handle block
    /// plus host-level send/timer counters, and binds every core attached so
    /// far.  Cores attached or woken later are bound then.  Idempotent.
    void bind_metrics(obs::Metrics& metrics);

private:
    struct Dormant;

    /// One core, and the node id it reports as (a core's id never
    /// changes, so dispatch reads it here).  A dormant receiver's core is
    /// a Dormant block until its wake.
    struct Entry {
        std::unique_ptr<CoreBase> core = nullptr;
        SharedHandlers handlers = nullptr;
        NodeId self = kNoNode;
        bool dormant = false;  ///< `core` is a Dormant block
    };

    /// Append `core` to the table, bound to the host's metrics.
    template <typename Core>
    Core& attach(std::unique_ptr<Core> core, SharedHandlers handlers);
    /// Append `entry`; throws std::length_error once the tags reach
    /// TimerService::kTagLimit.
    void append(Entry entry);

    /// The one wake routine: build `self`'s receiver into entry `tag`
    /// (appended past the table), restore the flags start() sets, arm the
    /// idle watchdog at `idle_deadline` (once started) while `fresh`, and
    /// count the wake.  Runs no actions.
    ReceiverCore& wake(std::uint32_t tag, NodeId self, const DormantRecord& record, bool fresh,
                       std::optional<TimePoint> idle_deadline);
    ReceiverCore& wake(std::uint32_t tag);  ///< the dormant entry at `tag`, in place

    /// Run `actions` for the core at `tag`.  A handler may re-enter the
    /// host and attach a core, moving the table, so nothing passed here
    /// points into an entry.
    void execute(TimePoint now, std::uint32_t tag, NodeId self, const AppHandlers* handlers,
                 Actions&& actions);

    NetworkService& network_;
    TimerService& timers_;
    /// The disabled block until bind_metrics(); host counters are its
    /// `host` member.
    const obs::ProtocolMetrics* metrics_ = &obs::ProtocolMetrics::disabled();

    /// Every core in attach (= tag) order, inline for the first: nearly
    /// every host carries exactly one (bench/rss_gate.bound).  A handler
    /// may re-enter the host and attach or wake a core, so loops that run
    /// handlers walk the table by index and re-read its size.
    SmallVec<Entry, 1> cores_;
    std::uint32_t dormant_wakes_ = 0;
};

}  // namespace lbrm
