// Per-link packet-loss models.
//
// The paper analyses two regimes: isolated single-packet loss and "burst"
// congestion periods during which a host receives nothing (Section 2.1.1).
// BurstSchedule reproduces that model exactly (deterministic loss windows);
// Bernoulli and Gilbert-Elliott cover random and bursty stochastic loss for
// the wider experiments.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace lbrm::sim {

class LossModel {
public:
    virtual ~LossModel() = default;
    /// True if the packet crossing the link at `now` should be dropped.
    virtual bool drop(Rng& rng, TimePoint now) = 0;
};

/// Never drops.
class NoLoss final : public LossModel {
public:
    bool drop(Rng&, TimePoint) override { return false; }
};

/// Independent loss with fixed probability.
class BernoulliLoss final : public LossModel {
public:
    explicit BernoulliLoss(double p) : p_(p) {}
    bool drop(Rng& rng, TimePoint) override { return rng.bernoulli(p_); }

private:
    double p_;
};

/// Two-state Markov (Gilbert-Elliott) loss: a "good" state with low loss and
/// a "bad" state with high loss; state transitions are evaluated per packet.
class GilbertElliottLoss final : public LossModel {
public:
    GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good, double loss_good,
                       double loss_bad)
        : p_gb_(p_good_to_bad), p_bg_(p_bad_to_good), loss_good_(loss_good),
          loss_bad_(loss_bad) {}

    bool drop(Rng& rng, TimePoint) override {
        if (bad_) {
            if (rng.bernoulli(p_bg_)) bad_ = false;
        } else {
            if (rng.bernoulli(p_gb_)) bad_ = true;
        }
        return rng.bernoulli(bad_ ? loss_bad_ : loss_good_);
    }

private:
    double p_gb_, p_bg_, loss_good_, loss_bad_;
    bool bad_ = false;
};

/// Deterministic burst windows: every packet inside [start, end) is lost.
/// This is the Section 2.1.1 "burst model of congestion, parameterized in
/// terms of its duration".
class BurstSchedule final : public LossModel {
public:
    struct Window {
        TimePoint start;
        TimePoint end;
    };

    explicit BurstSchedule(std::vector<Window> windows) : windows_(std::move(windows)) {}

    bool drop(Rng&, TimePoint now) override {
        for (const Window& w : windows_)
            if (now >= w.start && now < w.end) return true;
        return false;
    }

private:
    std::vector<Window> windows_;
};

}  // namespace lbrm::sim
