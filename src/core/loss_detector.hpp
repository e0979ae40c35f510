// Receiver-side loss detection (Section 2).
//
// A receiver recognizes loss in two ways:
//   1. a gap in the sequence numbers of received packets (data, heartbeat
//      repeating last_seq, or retransmission), and
//   2. silence: no packet of any kind for MaxIT (handled by the receiver's
//      idle timer; this class only tracks the last-heard time).
//
// The detector tolerates reordering: a sequence number is only *reported*
// missing once something later has been seen, and an out-of-order arrival
// of a previously-missing number retracts it.
//
// Robustness: a single corrupted or far-future sequence number must not be
// able to open an unbounded gap (naively, up to 2^31 - 1 missing entries
// from one observation).  Gaps wider than `max_gap` are truncated to the
// most recent `max_gap` numbers -- anything older is unrecoverable at that
// point anyway -- the overflow is counted, and the stream position resyncs
// to the observed number.
//
// State is the stream position plus the missing set; received numbers are
// never stored.  A number at or below `highest_seen()` that is not missing
// was received, abandoned, or predates the first packet, so data carrying
// it is a duplicate; nothing above `highest_seen()` can have been received
// yet.  An in-order packet costs a comparison and no allocation.  The
// missing set lives behind a pointer, allocated when the first gap opens
// and kept from then on: a detector that never sees a gap (nearly every
// receiver of a large, mostly lossless group) holds 8 bytes for it, not an
// empty map's 48, and no read of an empty detector allocates.
//
// Each missing number has one Gap record: its detection time plus the
// retry counters of whoever repairs it.  ReceiverCore keeps its per-gap
// recovery state there, through gaps(), so a receiver holds exactly one
// record per lost packet, and that record is also the loss's open
// recovery episode (obs/episode.hpp): observe() hands a filled gap's
// record back so the episode can close from it.  A secondary logger leaves
// the counters at zero.  The detector never reads them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace lbrm {

class LossDetector {
public:
    /// Widest gap (in sequence numbers) a single observation may open; see
    /// file comment.  Far larger than any plausible burst in the paper's
    /// scenarios, far smaller than a corrupted header's 2^31 - 1.
    static constexpr std::int32_t kDefaultMaxGap = 1024;

    LossDetector() = default;
    explicit LossDetector(std::int32_t max_gap)
        : max_gap_(max_gap > 0 ? max_gap : kDefaultMaxGap) {}

    /// One missing sequence number.
    struct Gap {
        TimePoint detected_at{};
        std::uint32_t attempts = 0;     ///< receiver: NACK rounds at the current tier
        std::uint32_t cold_cycles = 0;  ///< receiver: escalation walks survived
        std::uint32_t nacks = 0;        ///< receiver: NACKs that named it, all tiers
        std::uint8_t tier = 0;          ///< receiver: highest escalation tier reached
    };

    /// Outcome of observing one sequence number.
    struct Observation {
        /// Sequence numbers that just became missing (gap opened).
        std::vector<SeqNum> newly_missing;
        /// True when `seq` itself fills a known gap (it was missing).
        bool fills_gap = false;
        /// True when `seq` is data at or below highest_seen() that is not
        /// missing (see file comment).
        bool duplicate = false;
        /// When fills_gap: the gap's record, already erased from gaps().
        Gap filled{};
    };

    /// Record that a packet carrying `seq` was received at `now`.
    /// For heartbeats pass the repeated last_seq with `is_heartbeat = true`:
    /// the heartbeat proves `seq` was transmitted but carries no payload, so
    /// if we have not received that data packet it becomes missing too.
    Observation observe(TimePoint now, SeqNum seq, bool is_heartbeat = false);
    /// Missing numbers in WireOrder (numeric, not serial: see seqnum.hpp).
    using Gaps = std::map<SeqNum, Gap, SeqNum::WireOrder>;

    /// The open gaps, for the owner's retry bookkeeping.  Erasing an entry
    /// abandons that sequence number; callers never insert.  Before the
    /// first gap this is one shared empty map, so walking an empty
    /// detector allocates nothing.
    [[nodiscard]] Gaps& gaps() { return missing_ ? *missing_ : no_gaps_; }

    /// Sequence numbers currently known missing, oldest first.
    [[nodiscard]] std::vector<SeqNum> missing() const;

    [[nodiscard]] bool is_missing(SeqNum seq) const {
        return missing_ && missing_->contains(seq);
    }

    /// When the gap containing `seq` was first detected (for latency stats).
    [[nodiscard]] std::optional<TimePoint> detected_at(SeqNum seq) const;

    /// Give up on a sequence number (recovery failed / application declined).
    void abandon(SeqNum seq) {
        if (missing_) missing_->erase(seq);
    }

    /// Highest sequence number proven transmitted, if any packet was seen.
    [[nodiscard]] std::optional<SeqNum> highest_seen() const {
        return started_ ? std::optional<SeqNum>(highest_) : std::nullopt;
    }

    /// Time the last packet (of any kind) was heard.
    [[nodiscard]] std::optional<TimePoint> last_heard() const {
        return started_ ? std::optional<TimePoint>(last_heard_) : std::nullopt;
    }

    [[nodiscard]] std::size_t missing_count() const { return missing_ ? missing_->size() : 0; }

    /// Observations whose gap exceeded `max_gap` and was truncated.
    [[nodiscard]] std::uint64_t gap_overflows() const { return gap_overflows_; }

    [[nodiscard]] std::int32_t max_gap() const { return max_gap_; }

    /// Point the detector at a family-aggregate telemetry block (see
    /// obs/metrics.hpp).  The per-instance gap_overflows() accessor is
    /// unaffected; the block aggregates across every bound detector.
    void bind_metrics(const obs::LossDetectorMetrics& m) { obs_ = &m; }

private:
    bool started_ = false;
    SeqNum highest_{};  ///< highest seq proven transmitted
    TimePoint last_heard_{};
    std::int32_t max_gap_ = kDefaultMaxGap;
    std::uint64_t gap_overflows_ = 0;
    const obs::LossDetectorMetrics* obs_ = &obs::LossDetectorMetrics::disabled();
    std::unique_ptr<Gaps> missing_;  ///< null until the first gap opens
    /// What gaps() hands out before then.  Never written: it stays empty.
    inline static Gaps no_gaps_;
};

}  // namespace lbrm
