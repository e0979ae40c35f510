#include "workload/web_invalidation.hpp"

#include "apps/html_invalidation.hpp"
#include "common/seqnum.hpp"

namespace lbrm::workload {

namespace {

/// Zipf skew over page popularity (rank 0 hottest).
constexpr double kZipfS = 0.9;

}  // namespace

WwwInvalidationWorkload::WwwInvalidationWorkload(WwwInvalidationConfig config)
    : config_(std::move(config)), zipf_(config_.pages, kZipfS),
      updates_per_key_(config_.pages, 0) {}

WorkloadItem WwwInvalidationWorkload::next(Rng& rng) {
    // Locate the active flash crowd (if any) at the current planned time.
    const FlashCrowd* crowd = nullptr;
    for (const FlashCrowd& fc : config_.flash_crowds)
        if (elapsed_ >= fc.at && elapsed_ < fc.at + fc.duration) {
            crowd = &fc;
            break;
        }

    WorkloadItem item;
    Duration gap = rng.exponential(config_.mean_gap);
    if (crowd != nullptr && crowd->rate_multiplier > 1.0)
        gap = scale(gap, 1.0 / crowd->rate_multiplier);
    item.gap = gap;
    elapsed_ += gap;

    if (crowd != nullptr && crowd->focus_pages > 0) {
        // Crowd focus: the hottest pages are the lowest Zipf ranks.
        const std::uint32_t n = std::min(crowd->focus_pages, config_.pages);
        item.key = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    } else {
        item.key = zipf_.draw(rng);
    }
    item.update = updates_per_key_[item.key]++;
    return item;
}

std::string WwwInvalidationWorkload::url(std::uint32_t key) const {
    return "http://" + config_.host + "/page" + std::to_string(key) + ".html";
}

std::vector<std::uint8_t> WwwInvalidationWorkload::render(
    const WorkloadItem& item) const {
    // Appendix-A wire line; seq = the per-page update index (pure).
    const std::string line = apps::render_update(SeqNum{item.update}, url(item.key));
    return {line.begin(), line.end()};
}

}  // namespace lbrm::workload
