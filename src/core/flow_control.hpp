// Sender-side flow control from statistical-acknowledgement feedback --
// the Section 5 future-work item: "we are looking into use [of] statistical
// acknowledgement information to slow down the sender during periods of
// high loss."
//
// The paper only sketches the idea, so this implementation keeps it
// minimal and conventional: an AIMD governor over the *recommended minimum
// spacing* between application sends.
//
//   * Every packet whose designated-acker accounting ends incomplete (the
//     engine decided to re-multicast, or gave up waiting) is one loss
//     signal: the recommended spacing doubles (multiplicative backoff,
//     saturating at max_backoff).
//   * Each completed streak of `recovery_streak` fully-acknowledged packets
//     is a health signal and halves the spacing, snapping to zero once
//     below 1 ms -- fast recovery toward "no limit", since LBRM sources are
//     low-rate by design and there is no steady-state probing like TCP's.
//
// The governor is advisory: LBRM remains receiver-reliable and never
// blocks a send.  The application reads recommended_spacing() (or watches
// the kCongestionSlowdown / kCongestionCleared notices) and paces itself;
// jittered_spacing() additionally randomizes the advice per caller so a
// population of senders backing off from the same loss burst does not
// resume in lockstep (see PROTOCOL.md §7).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace lbrm {

struct FlowControlConfig {
    bool enabled = false;
    /// Spacing applied on the first loss signal (then doubled per signal).
    Duration initial_backoff = millis(250);
    Duration max_backoff = secs(8.0);
    /// Consecutive fully-acked packets required before halving the spacing.
    std::uint32_t recovery_streak = 3;
    /// Fractional jitter applied by jittered_spacing(): the advisory spacing
    /// is scaled by a uniform draw from [1, 1 + backoff_jitter).  Zero =
    /// jittered_spacing() returns recommended_spacing() without drawing.
    double backoff_jitter = 0.0;
};

class FlowController {
public:
    explicit FlowController(const FlowControlConfig& config) : config_(config) {}

    /// Statistical-ack accounting for one packet ended incomplete.
    /// Returns true if the recommended spacing just *increased* (the
    /// caller should surface a kCongestionSlowdown notice).
    bool on_loss_signal() {
        streak_ = 0;
        const Duration before = spacing_;
        spacing_ = spacing_ == Duration::zero()
                       ? config_.initial_backoff
                       : std::min(config_.max_backoff, 2 * spacing_);
        return spacing_ > before;
    }

    /// A packet completed with every designated ACK received.
    /// Returns true if the spacing just dropped back to zero (surface a
    /// kCongestionCleared notice).
    bool on_clean_packet() {
        if (spacing_ == Duration::zero()) return false;
        if (++streak_ < config_.recovery_streak) return false;
        streak_ = 0;
        spacing_ = spacing_ / 2;
        if (spacing_ < millis(1)) spacing_ = Duration::zero();
        return spacing_ == Duration::zero();
    }

    /// Advisory minimum spacing between sends right now (zero = no limit).
    [[nodiscard]] Duration recommended_spacing() const { return spacing_; }

    /// The advisory spacing, randomized per call: scaled by a uniform draw
    /// from [1, 1 + backoff_jitter) taken from the *caller's* rng, so each
    /// pacing sender de-correlates its resume time from its peers'.  The
    /// controller itself stays deterministic -- it never owns randomness --
    /// and a zero spacing or zero jitter consumes no draw at all.
    [[nodiscard]] Duration jittered_spacing(Rng& rng) const {
        if (spacing_ == Duration::zero() || config_.backoff_jitter <= 0.0)
            return spacing_;
        return scale(spacing_, rng.uniform(1.0, 1.0 + config_.backoff_jitter));
    }

    [[nodiscard]] bool congested() const { return spacing_ > Duration::zero(); }
    [[nodiscard]] const FlowControlConfig& config() const { return config_; }

private:
    FlowControlConfig config_;
    Duration spacing_ = Duration::zero();
    std::uint32_t streak_ = 0;
};

}  // namespace lbrm
