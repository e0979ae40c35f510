// Appendix-A WWW page-invalidation workload: an HTTP server multicasting
// TRANS:<seq>.0:UPDATE:<url> lines (src/apps/html_invalidation) as pages
// change.  Page popularity is Zipf -- the hottest pages get most of the
// edits -- and scripted flash crowds multiply the update rate over a
// window while focusing on the few hottest pages (breaking news: one story
// page re-edited continuously while the world reloads it).
//
// The Appendix-A seq field carries the *per-page update index*, not the
// protocol sequence number, so payloads stay a pure function of the drawn
// item and re-paced runs render identical bytes (see workload.hpp).
#pragma once

#include "workload/workload.hpp"

namespace lbrm::workload {

/// One scripted flash-crowd window, relative to the stream start.
struct FlashCrowd {
    Duration at{};            ///< window start (planned stream time)
    Duration duration{};      ///< window length
    double rate_multiplier = 10.0;  ///< gaps divided by this inside the window
    std::uint32_t focus_pages = 8;  ///< updates target the hottest N pages
};

struct WwwInvalidationConfig {
    std::uint32_t pages = 2000;
    /// Mean exponential gap between invalidations outside crowds.
    Duration mean_gap = millis(20);
    std::vector<FlashCrowd> flash_crowds;
    std::string host = "www.example.com";
};

class WwwInvalidationWorkload final : public Workload {
public:
    explicit WwwInvalidationWorkload(WwwInvalidationConfig config);

    [[nodiscard]] std::string name() const override { return "www"; }
    WorkloadItem next(Rng& rng) override;
    [[nodiscard]] std::vector<std::uint8_t> render(
        const WorkloadItem& item) const override;

    /// The page URL an item's key maps to (also what render() embeds).
    [[nodiscard]] std::string url(std::uint32_t key) const;

private:
    WwwInvalidationConfig config_;
    ZipfSampler zipf_;
    std::vector<std::uint32_t> updates_per_key_;
    Duration elapsed_{};  ///< planned stream time consumed so far
};

}  // namespace lbrm::workload
