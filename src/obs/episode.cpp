#include "obs/episode.hpp"

#include <algorithm>
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
    m.gauge_fn("recovery.episodes_open",
               [this] { return static_cast<std::uint64_t>(open_.size()); });
    m.gauge_fn("recovery.fetch_open",
               [this] { return static_cast<std::uint64_t>(fetch_open_.size()); });
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

void EpisodeTracker::record_close(std::uint64_t k, const OpenEpisode& ep,
                                  double closed_s, Kind kind, Reason reason) {
    if (records_.size() >= record_capacity_) {
        c_records_dropped_->inc();
        return;
    }
    Record rec;
    rec.node = static_cast<std::uint32_t>(k >> 32);
    rec.seq = static_cast<std::uint32_t>(k & 0xffffffffu);
    rec.opened_s = ep.opened_s;
    rec.closed_s = closed_s;
    rec.nacks = ep.nacks;
    rec.cold_restarts = ep.cold_restarts;
    rec.kind = kind;
    rec.tier = ep.tier;
    rec.reason = reason;
    records_.push_back(rec);
}

void EpisodeTracker::open(TimePoint now, NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto [it, inserted] = open_.try_emplace(key(node, seq));
    if (!inserted) return;
    it->second.opened_s = to_seconds(now);
    c_opened_->inc();
#else
    (void)now; (void)node; (void)seq;
#endif
}

void EpisodeTracker::nack(NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = open_.find(key(node, seq));
    if (it == open_.end()) return;
    ++it->second.nacks;
    c_nacks_->inc();
#else
    (void)node; (void)seq;
#endif
}

void EpisodeTracker::escalate(NodeId node, SeqNum seq, std::uint8_t tier) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = open_.find(key(node, seq));
    if (it == open_.end()) return;
    it->second.tier = std::max(it->second.tier, tier);
    c_escalations_->inc();
#else
    (void)node; (void)seq; (void)tier;
#endif
}

void EpisodeTracker::cold_restart(NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = open_.find(key(node, seq));
    if (it == open_.end()) return;
    ++it->second.cold_restarts;
    c_cold_restarts_->inc();
#else
    (void)node; (void)seq;
#endif
}

void EpisodeTracker::close_repaired(TimePoint now, NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = open_.find(key(node, seq));
    if (it == open_.end()) return;
    const double closed_s = to_seconds(now);
    h_latency_[it->second.tier]->observe(closed_s - it->second.opened_s);
    record_close(it->first, it->second, closed_s, Kind::kRecovery, Reason::kRepaired);
    open_.erase(it);
    c_repaired_->inc();
#else
    (void)now; (void)node; (void)seq;
#endif
}

void EpisodeTracker::close_abandoned(TimePoint now, NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = open_.find(key(node, seq));
    if (it == open_.end()) return;
    record_close(it->first, it->second, to_seconds(now), Kind::kRecovery,
                 Reason::kAbandoned);
    open_.erase(it);
    c_abandoned_->inc();
#else
    (void)now; (void)node; (void)seq;
#endif
}

void EpisodeTracker::fetch_open(TimePoint now, NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto [it, inserted] = fetch_open_.try_emplace(key(node, seq));
    if (!inserted) return;
    it->second.opened_s = to_seconds(now);
    it->second.tier = kTierPrimary;  // fetches always target the primary log
    c_fetch_opened_->inc();
#else
    (void)now; (void)node; (void)seq;
#endif
}

void EpisodeTracker::fetch_attempt(NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = fetch_open_.find(key(node, seq));
    if (it == fetch_open_.end()) return;
    ++it->second.nacks;
    c_fetch_attempts_->inc();
#else
    (void)node; (void)seq;
#endif
}

void EpisodeTracker::fetch_cold_restart(NodeId node, SeqNum seq) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = fetch_open_.find(key(node, seq));
    if (it == fetch_open_.end()) return;
    ++it->second.cold_restarts;
    c_fetch_cold_restarts_->inc();
#else
    (void)node; (void)seq;
#endif
}

void EpisodeTracker::fetch_close(TimePoint now, NodeId node, SeqNum seq, bool served) {
#if !defined(LBRM_NO_TELEMETRY)
    if (!enabled_) return;
    auto it = fetch_open_.find(key(node, seq));
    if (it == fetch_open_.end()) return;
    const double closed_s = to_seconds(now);
    if (served) h_fetch_latency_->observe(closed_s - it->second.opened_s);
    record_close(it->first, it->second, closed_s, Kind::kFetch,
                 served ? Reason::kRepaired : Reason::kAbandoned);
    fetch_open_.erase(it);
    (served ? c_fetch_served_ : c_fetch_abandoned_)->inc();
#else
    (void)now; (void)node; (void)seq; (void)served;
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

std::string EpisodeTracker::to_chrome_json(std::uint32_t pid) const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    std::uint64_t id = 0;
    for (const Record& rec : records_) append_episode_span(out, rec, id++, pid, first);
    out += "]}";
    return out;
}

}  // namespace lbrm::obs
