#include "common/stats.hpp"

#include <stdexcept>

namespace lbrm {

void SampleSet::sort_if_needed() {
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double SampleSet::quantile(double q) {
    if (samples_.empty()) return 0.0;
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("SampleSet::quantile: q outside [0,1]");
    sort_if_needed();
    double idx = q * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace lbrm
