// Secondary-logger population estimation (Section 2.3.3).
//
// Two phases:
//
//  1. Probing (Bolot/Turletti/Wakeman style): the source multicasts probe
//     rounds with an increasing response probability p; each secondary
//     logger replies with probability p.  Once a round gathers enough
//     replies for a confident estimate, the *same* p is repeated several
//     more times and the estimates averaged -- each repetition shrinks the
//     standard deviation by 1/sqrt(n) (Table 2).
//
//  2. Continuous refresh: after probing, every data packet's ACK count k'
//     under the epoch's p_ack refines the estimate with the Jacobson-style
//     EWMA   N'_sl = (1 - alpha) * N_sl + alpha * k'/p_ack.
//
// The class is sans-IO: the StatAckEngine asks it which probe to send and
// feeds replies/round-closings back in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ewma.hpp"
#include "core/config.hpp"

namespace lbrm {

class GroupSizeEstimator {
public:
    explicit GroupSizeEstimator(const StatAckConfig& config);

    /// True until probing has converged; the engine keeps sending probe
    /// rounds while this holds.
    [[nodiscard]] bool probing() const { return phase_ != Phase::kDone; }

    struct ProbeSpec {
        std::uint32_t round;
        double p;
    };

    /// Parameters for the probe round to transmit now.
    [[nodiscard]] ProbeSpec current_round() const { return {round_, p_}; }

    /// A ProbeReply arrived for round `round` (stale rounds are ignored).
    void on_probe_reply(std::uint32_t round);

    /// The response window for the current round closed.  Advances to the
    /// next round (escalating p), to a repeat of the converged p, or to the
    /// continuous phase.
    void finish_round();

    /// Best current estimate of the number of secondary loggers.  Returns
    /// std::nullopt until at least one informative round has completed.
    [[nodiscard]] std::optional<double> estimate() const;

    /// Continuous refresh from a data packet that gathered k' ACKs under
    /// acknowledgement probability p_ack.
    void update_continuous(std::uint32_t k_acks, double p_ack);

    /// Force a known size (static configuration / tests).
    void set_estimate(double n);

private:
    enum class Phase { kEscalating, kRepeating, kDone };

    StatAckConfig config_;
    Phase phase_ = Phase::kEscalating;
    std::uint32_t round_ = 1;
    double p_;
    std::uint32_t replies_this_round_ = 0;
    std::uint32_t repeats_done_ = 0;
    std::vector<double> repeat_estimates_;
    Ewma smoothed_;
    bool have_estimate_ = false;
};

}  // namespace lbrm
