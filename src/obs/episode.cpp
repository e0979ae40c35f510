#include "obs/episode.hpp"

#include <cstdio>

namespace lbrm::obs {

namespace {

/// Latency buckets in seconds, shared by the tier and fetch histograms:
/// NACK-path repairs land around the nack_delay + RTT scale (milliseconds);
/// the tail covers retry escalation.
std::vector<double> tier_latency_bounds() {
    return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};
}

constexpr const char* kTierNames[3] = {"local", "fallback", "primary"};

}  // namespace

EpisodeTracker::EpisodeTracker(Metrics& m) {
    c_opened_ = &m.counter("recovery.episodes_opened");
    c_repaired_ = &m.counter("recovery.episodes_repaired");
    c_abandoned_ = &m.counter("recovery.episodes_abandoned");
    c_nacks_ = &m.counter("recovery.nack_sends");
    c_escalations_ = &m.counter("recovery.escalations");
    c_cold_restarts_ = &m.counter("recovery.cold_restarts");
    c_fetch_opened_ = &m.counter("recovery.fetch_opened");
    c_fetch_served_ = &m.counter("recovery.fetch_served");
    c_fetch_abandoned_ = &m.counter("recovery.fetch_abandoned");
    c_fetch_attempts_ = &m.counter("recovery.fetch_attempts");
    c_fetch_cold_restarts_ = &m.counter("recovery.fetch_cold_restarts");
    c_records_dropped_ = &m.counter("recovery.episode_records_dropped");
    for (std::size_t t = 0; t < 3; ++t)
        h_latency_[t] = &m.histogram(
            std::string("recovery.latency_s.") + kTierNames[t], tier_latency_bounds());
    h_fetch_latency_ = &m.histogram("recovery.fetch_latency_s", tier_latency_bounds());
    m.gauge_fn("recovery.episodes_open", [this] { return open_count(); });
    m.gauge_fn("recovery.fetch_open", [this] { return fetch_open_count(); });
}

EpisodeTracker::EpisodeTracker() : enabled_(false) {
    auto* c = &Counter::sink();
    c_opened_ = c_repaired_ = c_abandoned_ = c_nacks_ = c_escalations_ =
        c_cold_restarts_ = c_fetch_opened_ = c_fetch_served_ = c_fetch_abandoned_ =
            c_fetch_attempts_ = c_fetch_cold_restarts_ = c_records_dropped_ = c;
    h_latency_[0] = h_latency_[1] = h_latency_[2] = h_fetch_latency_ =
        &Histogram::sink();
}

EpisodeTracker& EpisodeTracker::disabled() {
    static EpisodeTracker tracker;
    return tracker;
}

void EpisodeTracker::close(const Record& rec) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    const bool repaired = rec.reason == Reason::kRepaired;
    if (rec.kind == Kind::kRecovery) {
        if (repaired) h_latency_[rec.tier]->observe(rec.closed_s - rec.opened_s);
        (repaired ? c_repaired_ : c_abandoned_)->inc();
    } else {
        if (repaired) h_fetch_latency_->observe(rec.closed_s - rec.opened_s);
        (repaired ? c_fetch_served_ : c_fetch_abandoned_)->inc();
    }
    if (records_.size() >= record_capacity_) {
        c_records_dropped_->inc();
        return;
    }
    records_.push_back(rec);
#else
    (void)rec;
#endif
}

void append_episode_span(std::string& out, const EpisodeTracker::Record& rec,
                         std::uint64_t id, std::uint32_t pid, bool& first) {
    char buf[320];
    const bool fetch = rec.kind == EpisodeTracker::Kind::kFetch;
    const char* cat = fetch ? "fetch" : "recovery";
    const char* tier = kTierNames[rec.tier <= 2 ? rec.tier : 2];
    const char* reason =
        rec.reason == EpisodeTracker::Reason::kRepaired ? "repaired" : "abandoned";
    char name[64];
    std::snprintf(name, sizeof name, "%s seq %u", fetch ? "fetch" : "recover",
                  rec.seq);
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"b\",\"cat\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                  "\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"args\":{\"tier\":\"%s\","
                  "\"reason\":\"%s\",\"nacks\":%u,\"cold_restarts\":%u}}",
                  cat, name, static_cast<unsigned long long>(id), pid, rec.node,
                  rec.opened_s * 1e6, tier, reason, rec.nacks, rec.cold_restarts);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ",{\"ph\":\"e\",\"cat\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                  "\"pid\":%u,\"tid\":%u,\"ts\":%.3f}",
                  cat, name, static_cast<unsigned long long>(id), pid, rec.node,
                  rec.closed_s * 1e6);
    out += buf;
}

}  // namespace lbrm::obs
