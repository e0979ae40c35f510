// SimHost: one protocol endpoint living inside the simulated network.
//
// Implements the driver services (NetworkService via Network transport,
// TimerService via the Simulator's event queue) and owns the ProtocolHost
// carrying the actual cores -- by value: a host is one arena slot, not a
// chain of heap nodes (DESIGN.md "Scale engineering").  Armed timers live
// in a small flat table instead of a std::map: a host arms a handful of
// timers (heartbeat, ack, retransmit...), so linear scans beat tree nodes
// on both memory and locality at million-host scale.  The table itself is
// a 16-byte handle into the Network's BlockPool: most hosts in the big
// scenarios never arm a timer (watchdogs are deferred until first
// traffic), and the handle undercuts even an empty std::vector while the
// pool recycles the blocks of hosts that do arm.
//
// Re-arms are lazy (DESIGN.md "Simulator performance"): each entry keeps
// the time its queued event fires and the time the timer is really due.
// Moving an armed timer later -- the receiver idle watchdog on every live
// packet, the sender heartbeat on every send -- only stores the new
// deadline; the event, when it fires early, re-queues itself at that
// deadline instead of reaching the core.  Only an earlier deadline cancels
// and reschedules.
#pragma once

#include <cstdint>

#include "runtime/protocol_host.hpp"
#include "runtime/services.hpp"
#include "sim/simulator.hpp"

namespace lbrm::sim {

class Network;

class SimHost final : public NetworkService, public TimerService {
public:
    SimHost(Network& network, Simulator& simulator, NodeId self);
    ~SimHost() override;

    SimHost(const SimHost&) = delete;
    SimHost& operator=(const SimHost&) = delete;

    [[nodiscard]] NodeId id() const { return self_; }
    [[nodiscard]] ProtocolHost& protocol() { return protocol_; }
    [[nodiscard]] const ProtocolHost& protocol() const { return protocol_; }

    /// Network -> host delivery (called by Network at arrival time).
    void deliver(TimePoint now, const Packet& packet);

    // NetworkService
    void send_unicast(NodeId to, const Packet& packet) override;
    void send_multicast(const Packet& packet, McastScope scope) override;
    void join_group(GroupId group) override;
    void leave_group(GroupId group) override;

    // TimerService
    void arm(std::uint32_t core_tag, TimerId id, TimePoint deadline) override;
    void cancel(std::uint32_t core_tag, TimerId id) override;

private:
    /// One armed timer: (core tag, timer id) -> its queued event, which
    /// fires at `fire_at`, no later than the timer's `deadline`.
    struct TimerEnt {
        std::uint32_t tag;
        TimerId id;
        std::uint64_t event;
        TimePoint fire_at;
        TimePoint deadline;
    };
    [[nodiscard]] std::size_t find_timer(std::uint32_t tag, TimerId id) const;
    /// Queue the event that fires timer (tag, id) at `at`.
    std::uint64_t schedule_fire(std::uint32_t tag, TimerId id, TimePoint at);
    /// The queued event of (tag, id) fired: re-queue at a moved deadline,
    /// or hand the timer to the core.
    void fire(std::uint32_t tag, TimerId id);
    void grow_timers();

    Network& network_;
    Simulator& simulator_;
    NodeId self_;
    ProtocolHost protocol_;
    /// Armed timers, unordered; erased by swap-with-back.  The block comes
    /// from Network's BlockPool; null until the first arm.
    TimerEnt* timers_ = nullptr;
    std::uint32_t timer_count_ = 0;
    std::uint32_t timer_cap_ = 0;
};

}  // namespace lbrm::sim
