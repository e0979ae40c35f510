#include "sim/sim_host.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>

#include "sim/network.hpp"

namespace lbrm::sim {

SimHost::SimHost(Network& network, NodeId self)
    : network_(network), protocol_(*this, *this), self_(self) {
    protocol_.bind_metrics(network.metrics());
}

Simulator& SimHost::simulator() const { return network_.simulator(); }

SimHost::~SimHost() { ::operator delete(timers_); }

void SimHost::grow_timers() {
    static_assert(std::is_trivially_copyable_v<TimerEnt>,
                  "raw timer table relies on memcpy relocation");
    const std::uint32_t cap = timer_cap_ == 0 ? 1 : timer_cap_ * 2;
    auto* fresh = static_cast<TimerEnt*>(::operator new(cap * sizeof(TimerEnt)));
    if (timer_count_ > 0)
        std::memcpy(fresh, timers_, timer_count_ * sizeof(TimerEnt));
    ::operator delete(timers_);
    timers_ = fresh;
    timer_cap_ = cap;
}

void SimHost::deliver(TimePoint now, const Packet& packet) {
    protocol_.on_packet(now, packet);
}

void SimHost::send_unicast(NodeId to, const Packet& packet) {
    network_.unicast(self_, to, packet);
}

void SimHost::send_multicast(const Packet& packet, McastScope scope) {
    network_.multicast(self_, packet, scope);
}

void SimHost::join_group(GroupId group) { network_.join(group, self_); }

void SimHost::leave_group(GroupId group) { network_.leave(group, self_); }

std::size_t SimHost::find_timer(std::uint32_t tag, TimerId id) const {
    for (std::size_t i = 0; i < timer_count_; ++i) {
        const TimerEnt& t = timers_[i];
        if (t.tag == tag && t.kind == id.kind && t.arg == id.arg) return i;
    }
    return timer_count_;
}

std::uint64_t SimHost::schedule_fire(std::uint32_t tag, TimerId id, TimePoint at) {
    // Pack the closure into std::function's 16-byte small buffer when the
    // timer fits: [this (8) | arg32 (4) | tag24|kind8 (4)].  The naive
    // [this, core_tag, id] capture is 28 bytes and heap-allocates -- at
    // 10M armed idle watchdogs that is one malloc per host.  Every shipped
    // timer has arg < 2^32 (sequence numbers) and tag < 2^24, but the fat
    // fallback keeps exotic values correct.  The closure's shape cannot
    // affect simulation order: same schedule call, same deadline.
    if (id.arg <= 0xFFFFFFFFull && tag < (1u << 24)) {
        const auto arg32 = static_cast<std::uint32_t>(id.arg);
        const std::uint32_t tk = (tag << 8) | static_cast<std::uint32_t>(id.kind);
        return simulator().schedule_at(at, [this, arg32, tk] {
            fire(tk >> 8, TimerId{static_cast<TimerKind>(tk & 0xFFu), arg32});
        });
    }
    return simulator().schedule_at(at, [this, tag, id] { fire(tag, id); });
}

void SimHost::fire(std::uint32_t tag, TimerId id) {
    // Every armed entry owns exactly one live event, so the entry is here.
    const std::size_t i = find_timer(tag, id);
    // The firing host is the actor for whatever the handler schedules,
    // including the re-queued event of a moved deadline.
    Simulator::ActorScope scope(simulator(),
                                static_cast<std::uint32_t>(self_.value() - 1));
    TimerEnt& t = timers_[i];
    if (t.deadline > t.fire_at) {
        // Fired early: a lazy re-arm moved the deadline later.
        t.fire_at = t.deadline;
        t.event = schedule_fire(tag, id, t.deadline);
        return;
    }
    timers_[i] = timers_[--timer_count_];
    protocol_.on_timer(simulator().now(), tag, id);
}

void SimHost::arm(std::uint32_t core_tag, TimerId id, TimePoint deadline) {
    std::size_t i = find_timer(core_tag, id);
    if (i != timer_count_) {
        if (deadline >= timers_[i].fire_at) {
            // Lazy move: the queued event fires first and re-queues itself.
            timers_[i].deadline = deadline;
            return;
        }
        simulator().cancel(timers_[i].event);  // earlier: replace the event
    } else {
        if (timer_count_ == timer_cap_) grow_timers();
        i = timer_count_++;
    }
    // schedule_at clamps a past deadline to now.
    timers_[i] = TimerEnt{id.arg, schedule_fire(core_tag, id, deadline),
                          std::max(deadline, simulator().now()), deadline, core_tag, id.kind};
}

void SimHost::cancel(std::uint32_t core_tag, TimerId id) {
    const std::size_t i = find_timer(core_tag, id);
    if (i == timer_count_) return;
    simulator().cancel(timers_[i].event);
    timers_[i] = timers_[--timer_count_];
}

}  // namespace lbrm::sim
