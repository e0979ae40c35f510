// The simulation executive: a virtual clock over an EventQueue whose
// equal-time events tie-break by actor keys (shard-invariant; see below).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace lbrm::sim {

class Simulator {
public:
    [[nodiscard]] TimePoint now() const { return now_; }

    // --- actor-keyed event ordering ----------------------------------------
    // Equal-time events tie-break by (actor << 32 | per-actor sequence),
    // where the actor is the node whose event body is executing (DESIGN.md
    // "Sharded execution").  Both facts are local to the scheduling node, so
    // the key an event gets is identical no matter how the simulation is
    // partitioned into shards -- a key reserved on one shard can cross a
    // shard boundary and reproduce the exact heap position the event has in
    // a single-process run.  Events scheduled outside any actor scope share
    // the scenario actor, so among themselves they fire in insertion order.
    //
    // Reserved actors for scenario-level machinery (dormant sweep, sampler
    // ticks, chaos arms): each gets its own sequence counter so per-shard
    // differences in one category can never skew the keys of another.
    static constexpr std::uint32_t kChaosActor = 0xFFFFFFFCu;
    static constexpr std::uint32_t kSamplerActor = 0xFFFFFFFDu;
    static constexpr std::uint32_t kSweepActor = 0xFFFFFFFEu;
    static constexpr std::uint32_t kScenarioActor = 0xFFFFFFFFu;

    /// RAII actor context: Network arrival dispatch, SimHost timer firings
    /// and scenario entry points scope the executing node so everything the
    /// event body schedules is keyed to it (an int save/restore).
    class ActorScope {
    public:
        ActorScope(Simulator& sim, std::uint32_t actor)
            : sim_(sim), prev_(sim.current_actor_) {
            sim_.current_actor_ = actor;
        }
        ~ActorScope() { sim_.current_actor_ = prev_; }
        ActorScope(const ActorScope&) = delete;
        ActorScope& operator=(const ActorScope&) = delete;

    private:
        Simulator& sim_;
        std::uint32_t prev_;
    };

    std::uint64_t schedule_at(TimePoint at, EventQueue::Callback fn) {
        if (at < now_) at = now_;  // clamp: never schedule into the past
        return queue_.schedule_key(at, next_key(), std::move(fn));
    }

    /// Schedule with an explicit key reserved elsewhere -- the cross-shard
    /// injection path and batched multicast runs (Network).
    std::uint64_t schedule_at_key(TimePoint at, std::uint64_t key,
                                  EventQueue::Callback fn) {
        if (at < now_) at = now_;
        return queue_.schedule_key(at, key, std::move(fn));
    }

    std::uint64_t schedule_in(Duration delay, EventQueue::Callback fn) {
        return schedule_at(now_ + delay, std::move(fn));
    }

    void cancel(std::uint64_t id) { queue_.cancel(id); }

    /// Reserve the tiebreak an immediate schedule_at() would have used (the
    /// current actor's next key), for a later schedule_at_key() -- possibly
    /// on another shard.
    [[nodiscard]] std::uint64_t reserve_tiebreak() { return next_key(); }

    /// Run one event; returns false when the queue is empty.
    bool step() {
        if (queue_.empty()) return false;
        auto [at, fn] = queue_.pop();
        now_ = at;
        ++events_;
        fn();
        return true;
    }

    /// Run every event with timestamp <= deadline; the clock ends at
    /// `deadline` even if the queue drains early.
    void run_until(TimePoint deadline) {
        if (!queue_.empty() && queue_.next_time() <= deadline) {
            LBRM_TRACE_SPAN("event_drain");
            while (!queue_.empty() && queue_.next_time() <= deadline) step();
        }
        if (now_ < deadline) now_ = deadline;
    }

    void run_for(Duration d) { run_until(now_ + d); }

    /// Run every event with timestamp strictly before `bound`, then advance
    /// the clock to `bound`.  This is the shard window step (DESIGN.md
    /// "Sharded execution"): events exactly AT the boundary are left for
    /// the next window, after the cross-shard exchange, so a remote arrival
    /// landing exactly on the lookahead horizon still orders by key against
    /// same-instant local events.
    void run_before(TimePoint bound) {
        if (!queue_.empty() && queue_.next_time() < bound) {
            LBRM_TRACE_SPAN("event_drain");
            while (!queue_.empty() && queue_.next_time() < bound) step();
        }
        if (now_ < bound) now_ = bound;
    }

    /// Drain the queue completely (tests with naturally finite event sets).
    void run_to_completion(std::uint64_t max_events = 50'000'000) {
        while (step()) {
            if (events_ > max_events)
                throw std::runtime_error("Simulator: event budget exhausted (livelock?)");
        }
    }

    [[nodiscard]] std::uint64_t events_processed() const { return events_; }
    [[nodiscard]] std::size_t pending() const { return queue_.size(); }
    /// Events ever scheduled (cancelled ones included).
    [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
    /// Peak-pending proxy: heap capacity never shrinks (bench observability).
    [[nodiscard]] std::size_t slab_slots() const { return queue_.slab_slots(); }

private:
    /// Next key for the current actor: (actor << 32) | its own sequence.
    /// Node-indexed actors share a dense table; the four reserved actors
    /// get dedicated counters (kChaosActor is the lowest reserved id).
    std::uint64_t next_key() {
        std::uint32_t* seq;
        if (current_actor_ >= kChaosActor) {
            seq = &reserved_seq_[current_actor_ - kChaosActor];
        } else {
            if (current_actor_ >= actor_seq_.size())
                actor_seq_.resize(current_actor_ + 1, 0);
            seq = &actor_seq_[current_actor_];
        }
        return (static_cast<std::uint64_t>(current_actor_) << 32) | (*seq)++;
    }

    EventQueue queue_;
    TimePoint now_ = time_zero();
    std::uint64_t events_ = 0;
    std::uint32_t current_actor_ = kScenarioActor;
    std::vector<std::uint32_t> actor_seq_;
    std::array<std::uint32_t, 4> reserved_seq_{};
};

}  // namespace lbrm::sim
