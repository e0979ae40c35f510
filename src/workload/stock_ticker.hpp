// Stock-ticker workload: many small updates over Zipf-distributed hot
// symbols with bursty fan-in -- the freshness-critical market-data use
// that "SRM at 30" (PAPERS.md) argues outlived DIS.
//
// Calm traffic draws exponential inter-update gaps; with a small per-draw
// probability a fan-in burst starts (many exchanges quoting the same move)
// and the next burst_length updates arrive back to back at burst_gap.
// Keys are Zipf(s): a handful of symbols take most of the updates, so
// per-key staleness under congestion concentrates where it matters.
#pragma once

#include "workload/workload.hpp"

namespace lbrm::workload {

struct StockTickerConfig {
    std::uint32_t symbols = 500;
    /// Mean exponential gap between updates outside bursts.
    Duration mean_gap = millis(10);
    /// Per-draw probability that a fan-in burst starts.
    double burst_probability = 0.02;
    /// Updates per burst, spaced burst_gap apart.
    std::uint32_t burst_length = 12;
    Duration burst_gap = millis(1);
};

class StockTickerWorkload final : public Workload {
public:
    explicit StockTickerWorkload(StockTickerConfig config);

    [[nodiscard]] std::string name() const override { return "ticker"; }
    WorkloadItem next(Rng& rng) override;
    [[nodiscard]] std::vector<std::uint8_t> render(
        const WorkloadItem& item) const override;

private:
    StockTickerConfig config_;
    ZipfSampler zipf_;
    std::vector<std::uint32_t> updates_per_key_;
    std::uint32_t burst_remaining_ = 0;
};

}  // namespace lbrm::workload
