// Test-only loss-detector reference: the map-based algorithm LossDetector
// used before it dropped its received set.  Besides the missing map it
// records every received data number in a second wire-ordered map, trimmed
// to kReceivedWindow numbers behind the stream position, and consults it
// before marking a number missing or calling an old arrival a duplicate.
// Tests drive it and LossDetector with the same observations and require
// identical results, so the library keeps the lean detector only.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/loss_detector.hpp"

namespace lbrm::test {

class LossDetectorOracle {
public:
    explicit LossDetectorOracle(std::int32_t max_gap = LossDetector::kDefaultMaxGap)
        : max_gap_(max_gap > 0 ? max_gap : LossDetector::kDefaultMaxGap) {}

    LossDetector::Observation observe(TimePoint now, SeqNum seq, bool is_heartbeat = false) {
        LossDetector::Observation obs;
        if (!started_) {
            started_ = true;
            highest_ = seq;
            if (!is_heartbeat) received_[seq] = true;
            return obs;
        }
        if (seq > highest_) {
            SeqNum gap_start = highest_.next();
            if (highest_.distance_to(seq) - 1 > max_gap_) {
                ++gap_overflows_;
                gap_start = seq.plus(-max_gap_);
            }
            for (SeqNum s = gap_start; s < seq; ++s) {
                if (!received_.contains(s) && !missing_.contains(s)) {
                    missing_.emplace(s, now);
                    obs.newly_missing.push_back(s);
                }
            }
            highest_ = seq;
            if (is_heartbeat) {
                if (!received_.contains(seq) && !missing_.contains(seq)) {
                    missing_.emplace(seq, now);
                    obs.newly_missing.push_back(seq);
                }
            } else {
                received_[seq] = true;
            }
            trim_received();
            return obs;
        }
        if (is_heartbeat) return obs;
        if (auto it = missing_.find(seq); it != missing_.end()) {
            missing_.erase(it);
            received_[seq] = true;
            obs.fills_gap = true;
            return obs;
        }
        obs.duplicate = true;  // received, or beyond the reorder window
        return obs;
    }

    [[nodiscard]] std::vector<SeqNum> missing() const {
        std::vector<SeqNum> out;
        auto start = serial_begin(missing_);
        for (auto it = start; it != missing_.end(); ++it) out.push_back(it->first);
        for (auto it = missing_.begin(); it != start; ++it) out.push_back(it->first);
        return out;
    }

    [[nodiscard]] std::optional<TimePoint> detected_at(SeqNum seq) const {
        auto it = missing_.find(seq);
        if (it == missing_.end()) return std::nullopt;
        return it->second;
    }

    void abandon(SeqNum seq) { missing_.erase(seq); }

    [[nodiscard]] std::size_t missing_count() const { return missing_.size(); }

    [[nodiscard]] std::optional<SeqNum> highest_seen() const {
        return started_ ? std::optional<SeqNum>(highest_) : std::nullopt;
    }

    [[nodiscard]] std::uint64_t gap_overflows() const { return gap_overflows_; }

private:
    static constexpr std::int32_t kReceivedWindow = 4096;

    void trim_received() {
        while (!received_.empty()) {
            auto oldest = serial_begin(received_);
            if (oldest->first.distance_to(highest_) > kReceivedWindow)
                received_.erase(oldest);
            else
                break;
        }
    }

    bool started_ = false;
    SeqNum highest_{};
    std::int32_t max_gap_;
    std::uint64_t gap_overflows_ = 0;
    std::map<SeqNum, TimePoint, SeqNum::WireOrder> missing_;
    std::map<SeqNum, bool, SeqNum::WireOrder> received_;
};

}  // namespace lbrm::test
