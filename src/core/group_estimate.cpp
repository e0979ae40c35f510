#include "core/group_estimate.hpp"

#include <algorithm>
#include <numeric>

namespace lbrm {

GroupSizeEstimator::GroupSizeEstimator(const StatAckConfig& config)
    : config_(config), p_(std::clamp(config.initial_probe_p, 1e-6, 1.0)),
      smoothed_(config.alpha) {}

void GroupSizeEstimator::on_probe_reply(std::uint32_t round) {
    if (round == round_ && phase_ != Phase::kDone) ++replies_this_round_;
}

void GroupSizeEstimator::finish_round() {
    if (phase_ == Phase::kDone) return;

    const double round_estimate =
        static_cast<double>(replies_this_round_) / p_;

    switch (phase_) {
        case Phase::kEscalating:
            if (replies_this_round_ >= config_.probe_target_replies || p_ >= 1.0) {
                // Converged on a usable p; begin the repetition phase at the
                // same probability (Table 2: each repeat divides sigma by
                // sqrt(n)).
                repeat_estimates_.clear();
                repeat_estimates_.push_back(round_estimate);
                repeats_done_ = 1;
                have_estimate_ = true;
                if (repeats_done_ >= config_.probe_repeats) {
                    phase_ = Phase::kDone;
                    smoothed_.reset(round_estimate);
                } else {
                    phase_ = Phase::kRepeating;
                }
            } else {
                // Not enough replies: escalate the probability and retry.
                p_ = std::min(1.0, p_ * 2.0);
            }
            break;

        case Phase::kRepeating: {
            repeat_estimates_.push_back(round_estimate);
            ++repeats_done_;
            if (repeats_done_ >= config_.probe_repeats) {
                const double mean =
                    std::accumulate(repeat_estimates_.begin(), repeat_estimates_.end(), 0.0) /
                    static_cast<double>(repeat_estimates_.size());
                smoothed_.reset(mean);
                phase_ = Phase::kDone;
            }
            break;
        }

        case Phase::kDone:
            break;
    }

    ++round_;
    replies_this_round_ = 0;
}

std::optional<double> GroupSizeEstimator::estimate() const {
    if (!have_estimate_) return std::nullopt;
    if (phase_ == Phase::kDone) return std::max(1.0, smoothed_.value());
    // Mid-repetition: average what we have so far.
    const double mean =
        std::accumulate(repeat_estimates_.begin(), repeat_estimates_.end(), 0.0) /
        static_cast<double>(repeat_estimates_.size());
    return std::max(1.0, mean);
}

void GroupSizeEstimator::update_continuous(std::uint32_t k_acks, double p_ack) {
    if (p_ack <= 0.0) return;
    const double sample = static_cast<double>(k_acks) / p_ack;
    smoothed_.update(sample);
    have_estimate_ = true;
}

void GroupSizeEstimator::set_estimate(double n) {
    smoothed_.reset(std::max(1.0, n));
    have_estimate_ = true;
    phase_ = Phase::kDone;
}

}  // namespace lbrm
