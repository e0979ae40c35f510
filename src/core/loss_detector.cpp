#include "core/loss_detector.hpp"

namespace lbrm {

LossDetector::Observation LossDetector::observe(TimePoint now, SeqNum seq,
                                                bool is_heartbeat) {
    Observation obs;
    last_heard_ = now;

    if (!started_) {
        // First packet defines the stream position.  A heartbeat repeating
        // last_seq proves `seq` was transmitted, but we joined late; treat
        // it as the starting point rather than retroactively missing.
        started_ = true;
        highest_ = seq;
        return obs;
    }

    if (seq > highest_) {
        // Gap: everything in (highest_, seq) is now known lost or reordered.
        // Bound the gap so one corrupted or far-future number cannot open
        // up to 2^31 - 1 missing entries; keep only the most recent max_gap_
        // of them (older ones are unrecoverable at that width anyway).
        SeqNum gap_start = highest_.next();
        if (highest_.distance_to(seq) - 1 > max_gap_) {
            ++gap_overflows_;
            obs_->gap_overflows->inc();
            gap_start = seq.plus(-max_gap_);
        }
        for (SeqNum s = gap_start; s < seq; ++s) {
            if (!missing_.contains(s)) {
                missing_.emplace(s, now);
                obs.newly_missing.push_back(s);
            }
        }
        highest_ = seq;
        if (is_heartbeat) {
            // The heartbeat proves `seq` itself was transmitted as data but
            // carries no payload; if we never received the data packet it is
            // missing as well.
            if (!missing_.contains(seq)) {
                missing_.emplace(seq, now);
                obs.newly_missing.push_back(seq);
            }
        }
        obs_->gaps_opened->inc(obs.newly_missing.size());
        return obs;
    }

    // seq <= highest_: retransmission, reordered arrival, or duplicate.
    if (is_heartbeat) return obs;  // heartbeat for an old seq adds nothing new

    if (auto it = missing_.find(seq); it != missing_.end()) {
        missing_.erase(it);
        obs.fills_gap = true;
        return obs;
    }

    // Not missing: received, abandoned, or older than the first packet.
    obs.duplicate = true;
    return obs;
}

std::vector<SeqNum> LossDetector::missing() const {
    std::vector<SeqNum> out;
    out.reserve(missing_.size());
    // Wire order is numeric; walk from the serially oldest entry and wrap.
    auto start = serial_begin(missing_);
    for (auto it = start; it != missing_.end(); ++it) out.push_back(it->first);
    for (auto it = missing_.begin(); it != start; ++it) out.push_back(it->first);
    return out;
}

std::optional<TimePoint> LossDetector::detected_at(SeqNum seq) const {
    auto it = missing_.find(seq);
    if (it == missing_.end()) return std::nullopt;
    return it->second;
}

}  // namespace lbrm
