// Small statistics toolkit used by benches, the simulator's trace module
// and the group-size-estimation experiments (Table 2 reproduces a standard
// deviation, so we need numerically stable moments).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lbrm {

/// Streaming mean/variance via Welford's algorithm plus min/max.
class RunningStats {
public:
    void add(double x) {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = n_ == 1 ? x : std::min(min_, x);
        max_ = n_ == 1 ? x : std::max(max_, x);
    }

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] double mean() const { return mean_; }
    [[nodiscard]] double min() const { return min_; }
    [[nodiscard]] double max() const { return max_; }

    /// Population variance (divide by n).
    [[nodiscard]] double variance() const {
        return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /// Sample variance (divide by n-1).
    [[nodiscard]] double sample_variance() const {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
    [[nodiscard]] double sample_stddev() const { return std::sqrt(sample_variance()); }

    void clear() { *this = RunningStats{}; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Stores samples for exact quantiles; suited to bench-sized data sets.
class SampleSet {
public:
    void add(double x) {
        samples_.push_back(x);
        sorted_ = false;
    }

    [[nodiscard]] std::size_t count() const { return samples_.size(); }

    [[nodiscard]] double mean() const {
        if (samples_.empty()) return 0.0;
        double sum = 0.0;
        for (double s : samples_) sum += s;
        return sum / static_cast<double>(samples_.size());
    }

    /// Linear-interpolated quantile, q in [0, 1].
    [[nodiscard]] double quantile(double q);

    [[nodiscard]] double median() { return quantile(0.5); }
    [[nodiscard]] double p99() { return quantile(0.99); }
    [[nodiscard]] double min() { return quantile(0.0); }
    [[nodiscard]] double max() { return quantile(1.0); }

    [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
    void clear() { samples_.clear(); sorted_ = false; }

private:
    void sort_if_needed();

    std::vector<double> samples_;
    bool sorted_ = false;
};

}  // namespace lbrm
