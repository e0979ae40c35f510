// Deterministic discrete-event queue.
//
// Events at equal timestamps fire in tiebreak order -- insertion order for
// schedule(), the caller's key for schedule_key() (the Simulator's actor
// keys, see simulator.hpp) -- which makes whole-network simulations
// bit-reproducible for a given seed: essential for regression tests that
// assert exact packet counts.
//
// Layout is allocation-light: the heap itself is a flat binary heap of
// small POD entries (timestamp, tiebreak, slot), while the callbacks live
// in a slab recycled through a free list, so steady-state scheduling does
// no per-event container allocation (std::function may still heap-allocate
// large captures; hot-path callers keep captures within the small-buffer
// size).
//
// Cancellation is O(1) and bounded: an event id encodes its slab slot plus
// a per-slot generation counter.  Cancelling marks the slot; an id whose
// generation no longer matches (the event already fired, or the slot was
// recycled) is a no-op, so there is no ever-growing cancelled-id set.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"

namespace lbrm::sim {

class EventQueue {
public:
    using Callback = std::function<void()>;

    /// Enqueue `fn` to run at absolute time `at`; returns a cancellable id.
    /// Ids are never zero, so 0 can serve as callers' "no event" sentinel.
    std::uint64_t schedule(TimePoint at, Callback fn) {
        const std::uint32_t slot = acquire_slot();
        Slot& s = slots_[slot];
        s.fn = std::move(fn);
        s.cancelled = false;
        ++scheduled_;
        heap_.push_back(Entry{at, next_seq_++, slot});
        sift_up(heap_.size() - 1);
        return make_id(s.generation, slot);
    }

    /// Enqueue `fn` at `at` with an explicit tiebreak instead of the global
    /// insertion counter.  The Simulator schedules everything this way, with
    /// actor keys (simulator.hpp): the caller owns key uniqueness,
    /// and a key reserved on one shard and carried across a shard boundary
    /// reproduces the exact heap position the event would have had in a
    /// single-process run.  Counted like schedule().
    std::uint64_t schedule_key(TimePoint at, std::uint64_t seq, Callback fn) {
        const std::uint32_t slot = acquire_slot();
        Slot& s = slots_[slot];
        s.fn = std::move(fn);
        s.cancelled = false;
        ++scheduled_;
        heap_.push_back(Entry{at, seq, slot});
        sift_up(heap_.size() - 1);
        return make_id(s.generation, slot);
    }

    /// Cancel a scheduled event.  Ids of events that already fired (or were
    /// already cancelled) are ignored; repeated cancels are harmless.
    void cancel(std::uint64_t id) {
        const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
        const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
        if (slot < slots_.size() && slots_[slot].generation == generation)
            slots_[slot].cancelled = true;
    }

    [[nodiscard]] bool empty() {
        purge();
        return heap_.empty();
    }

    /// Time of the next runnable event.  Pre: !empty().
    [[nodiscard]] TimePoint next_time() {
        purge();
        return heap_.front().at;
    }

    struct Popped {
        TimePoint at;
        Callback fn;
    };

    /// Pop the next runnable event.  Pre: !empty().
    Popped pop() {
        purge();
        const Entry top = heap_.front();
        Popped out{top.at, std::move(slots_[top.slot].fn)};
        release_slot(top.slot);
        pop_heap();
        return out;
    }

    /// Scheduled (possibly cancelled) entries still in the heap.
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    /// Events ever scheduled (cancelled ones included).
    [[nodiscard]] std::uint64_t scheduled_total() const { return scheduled_; }

    /// Callback slots ever allocated (bounded by the peak number of
    /// simultaneously pending events, NOT by the total scheduled or
    /// cancelled over the queue's lifetime).  Exposed for tests.
    [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }

private:
    struct Entry {
        TimePoint at;
        std::uint64_t seq;   ///< insertion-order tiebreak for equal timestamps
        std::uint32_t slot;  ///< index into slots_
    };

    struct Slot {
        Callback fn;
        std::uint32_t generation = 0;  ///< bumped on release; 0 is never live
        bool cancelled = false;
    };

    [[nodiscard]] static std::uint64_t make_id(std::uint32_t generation, std::uint32_t slot) {
        return (static_cast<std::uint64_t>(generation) << 32) | slot;
    }

    [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
        if (a.at != b.at) return a.at < b.at;
        return a.seq < b.seq;
    }

    std::uint32_t acquire_slot() {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        slots_.emplace_back();
        slots_.back().generation = 1;
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    void release_slot(std::uint32_t slot) {
        Slot& s = slots_[slot];
        s.fn = nullptr;
        s.cancelled = false;
        ++s.generation;  // invalidates any outstanding id for this slot
        free_.push_back(slot);
    }

    /// Drop cancelled events from the top so empty()/next_time()/pop() only
    /// ever see runnable work.
    void purge() {
        while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
            release_slot(heap_.front().slot);
            pop_heap();
        }
    }

    void pop_heap() {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) sift_down(0);
    }

    void sift_up(std::size_t i) {
        const Entry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(e, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    void sift_down(std::size_t i) {
        const Entry e = heap_[i];
        const std::size_t n = heap_.size();
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
            if (!earlier(heap_[child], e)) break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = e;
    }

    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t scheduled_ = 0;
};

}  // namespace lbrm::sim
