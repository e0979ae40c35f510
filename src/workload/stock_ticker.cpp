#include "workload/stock_ticker.hpp"

#include <cstdio>

namespace lbrm::workload {

namespace {

/// Zipf skew over symbols (rank 0 hottest).
constexpr double kZipfS = 1.1;
/// Minimum payload bytes per tick (padded; real feeds are small).
constexpr std::size_t kPayloadSize = 48;

}  // namespace

StockTickerWorkload::StockTickerWorkload(StockTickerConfig config)
    : config_(config), zipf_(config_.symbols, kZipfS),
      updates_per_key_(config_.symbols, 0) {}

WorkloadItem StockTickerWorkload::next(Rng& rng) {
    WorkloadItem item;
    if (burst_remaining_ > 0) {
        --burst_remaining_;
        item.gap = config_.burst_gap;
    } else {
        item.gap = rng.exponential(config_.mean_gap);
        if (rng.bernoulli(config_.burst_probability) && config_.burst_length > 1)
            burst_remaining_ = config_.burst_length - 1;
    }
    item.key = zipf_.draw(rng);
    item.update = updates_per_key_[item.key]++;
    return item;
}

std::vector<std::uint8_t> StockTickerWorkload::render(const WorkloadItem& item) const {
    // Pseudo-quote in cents, a pure hash of (key, update): re-paced sends
    // of the same item carry identical bytes.
    const std::uint64_t cents =
        splitmix64((static_cast<std::uint64_t>(item.key) << 32) | item.update) % 1000000;
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "TICK:%u:%u:px=%llu.%02llu",
                                item.key, item.update,
                                static_cast<unsigned long long>(cents / 100),
                                static_cast<unsigned long long>(cents % 100));
    std::vector<std::uint8_t> payload(buf, buf + n);
    while (payload.size() < kPayloadSize)
        payload.push_back(static_cast<std::uint8_t>('.'));
    return payload;
}

}  // namespace lbrm::workload
