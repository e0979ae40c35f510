// The packet log backing every logging server (Section 2).
//
// "The length of time that the logging server must store a packet is
// application-specific" -- so retention is a policy object: bound by entry
// count, by total payload bytes, by age, or unbounded.  Eviction is always
// oldest-first, mirroring a TCP-style send buffer from which acknowledged
// data has been flushed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/config.hpp"

namespace lbrm {

class LogStore {
public:
    struct Entry {
        SeqNum seq;
        EpochId epoch;
        Payload payload;  ///< shared with the packets and deliveries that carry it
        TimePoint stored_at{};
    };

    LogStore() = default;
    explicit LogStore(RetentionPolicy policy) : policy_(policy) {}

    /// Insert (idempotently) a packet.  Returns true if newly stored.  The
    /// entry shares `payload`'s buffer rather than copying it.
    bool insert(TimePoint now, SeqNum seq, EpochId epoch, Payload payload);

    [[nodiscard]] const Entry* find(SeqNum seq) const;
    [[nodiscard]] bool contains(SeqNum seq) const { return entries_.contains(seq); }

    /// Drop entries older than the age bound (count/byte bounds are enforced
    /// eagerly on insert).  Returns the number evicted.
    std::size_t expire(TimePoint now);

    /// Remove everything at or below `seq` (e.g. source buffer flush after a
    /// replica acknowledgement).
    void release_through(SeqNum seq);

    /// Remove exactly one entry; returns true if it existed.
    bool remove(SeqNum seq);

    /// Sequence numbers in (`from`, `to`] that are *not* in the log.  Used by
    /// a secondary logger to work out what to fetch from the primary.
    [[nodiscard]] std::vector<SeqNum> gaps(SeqNum from, SeqNum to) const;

    [[nodiscard]] std::optional<SeqNum> lowest() const;
    [[nodiscard]] std::optional<SeqNum> highest() const;

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    /// Sum of every entry's own payload size: what this log would hold on
    /// a node of its own, however many entries share one buffer in-process.
    [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] const RetentionPolicy& policy() const { return policy_; }

    /// Total entries ever evicted by policy (observability).
    [[nodiscard]] std::size_t evicted() const { return evicted_; }

private:
    void evict_oldest();
    void enforce_bounds();

    RetentionPolicy policy_{};
    /// Wire-ordered (see seqnum.hpp); oldest-first walks use serial_begin().
    std::map<SeqNum, Entry, SeqNum::WireOrder> entries_;
    std::size_t payload_bytes_ = 0;
    std::size_t evicted_ = 0;
};

}  // namespace lbrm
