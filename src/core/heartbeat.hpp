// Variable-heartbeat scheduler (Section 2.1).
//
// The sender maintains an inter-heartbeat time h.  When a data packet is
// sent, h resets to h_min; after each heartbeat it multiplies by `backoff`
// until it saturates at h_max.  The effect (Figure 3) is a burst of
// heartbeats right after each data packet -- exactly when a receiver that
// lost the packet most needs a gap signal -- thinning out exponentially
// while the channel stays idle.
//
// Setting backoff = 1 degenerates to the fixed-rate heartbeat baseline of
// Section 2.1.2.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/time.hpp"
#include "core/config.hpp"

namespace lbrm {

class HeartbeatScheduler {
public:
    explicit HeartbeatScheduler(const HeartbeatConfig& config) : config_(config) {
        if (config.h_min <= Duration::zero() || config.h_max < config.h_min)
            throw std::invalid_argument("HeartbeatScheduler: need 0 < h_min <= h_max");
        if (config.backoff < 1.0)
            throw std::invalid_argument("HeartbeatScheduler: backoff must be >= 1");
        reset_to_min();
    }

    /// The application transmitted a data packet at `now`.
    /// Returns the deadline for the next heartbeat (now + h_min).
    TimePoint on_data_sent(TimePoint now) {
        reset_to_min();
        heartbeat_index_ = 0;
        return now + current_;
    }

    /// A heartbeat fired at `now` (and is being transmitted).
    /// Grows h and returns the next heartbeat deadline.
    TimePoint on_heartbeat_sent(TimePoint now) {
        ++heartbeat_index_;
        grow();
        return now + current_;
    }

    /// Interval that will separate the most recent transmission from the
    /// next heartbeat.
    [[nodiscard]] Duration current_interval() const { return current_; }

    /// Heartbeats emitted since the last data packet (wire diagnostic field).
    [[nodiscard]] std::uint32_t heartbeat_index() const { return heartbeat_index_; }

    [[nodiscard]] const HeartbeatConfig& config() const { return config_; }

private:
    void reset_to_min() { current_ = config_.h_min; }

    void grow() {
        Duration next = scale(current_, config_.backoff);
        current_ = next > config_.h_max ? config_.h_max : next;
    }

    HeartbeatConfig config_;
    Duration current_{};
    std::uint32_t heartbeat_index_ = 0;
};

}  // namespace lbrm
