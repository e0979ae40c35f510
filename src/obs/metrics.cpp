#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/episode.hpp"
#include "packet/packet.hpp"

namespace lbrm::obs {

Counter& Counter::sink() {
    static Counter sink;
    return sink;
}

Gauge& Gauge::sink() {
    static Gauge sink;
    return sink;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

Histogram& Histogram::sink() {
    static Histogram sink{std::vector<double>{}};
    return sink;
}

Metrics::~Metrics() = default;

Counter& Metrics::counter(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(std::string{name}, Counter{}).first;
    return it->second;
}

Gauge& Metrics::gauge(std::string_view name) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) it = gauges_.emplace(std::string{name}, Gauge{}).first;
    return it->second;
}

Histogram& Metrics::histogram(std::string_view name, std::vector<double> upper_bounds) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(std::string{name}, Histogram{std::move(upper_bounds)})
                 .first;
    return it->second;
}

void Metrics::gauge_fn(std::string_view name, std::function<std::uint64_t()> fn) {
    pull_gauges_.insert_or_assign(std::string{name}, std::move(fn));
}

void Metrics::remove_gauge_fn(std::string_view name) {
    auto it = pull_gauges_.find(name);
    if (it != pull_gauges_.end()) pull_gauges_.erase(it);
}

std::uint64_t Metrics::value(std::string_view name) const {
    if (auto it = counters_.find(name); it != counters_.end()) return it->second.value();
    if (auto it = gauges_.find(name); it != gauges_.end()) return it->second.value();
    if (auto it = pull_gauges_.find(name); it != pull_gauges_.end())
        return it->second ? it->second() : 0;
    return 0;
}

bool Metrics::has(std::string_view name) const {
    return counters_.contains(name) || gauges_.contains(name) ||
           pull_gauges_.contains(name) || histograms_.contains(name);
}

namespace {

/// Bucket label: trailing zeros trimmed so "0.005" stays readable.
std::string bound_label(double b) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", b);
    return buf;
}

}  // namespace

RegistrySnapshot Metrics::export_snapshot() const {
    RegistrySnapshot snap;
    for (const auto& [name, c] : counters_)
        snap.scalars.emplace(name, static_cast<double>(c.value()));
    for (const auto& [name, g] : gauges_)
        snap.scalars.emplace(name, static_cast<double>(g.value()));
    for (const auto& [name, fn] : pull_gauges_)
        snap.scalars.emplace(name, fn ? static_cast<double>(fn()) : 0.0);
    for (const auto& [name, h] : histograms_) {
        RegistrySnapshot::Hist hist;
        hist.bounds = h.bounds();
        hist.counts = h.counts();
        hist.count = h.count();
        hist.sum = h.sum();
        snap.histograms.emplace(name, std::move(hist));
    }
    return snap;
}

std::vector<Metrics::Sample> Metrics::snapshot() const {
    return export_snapshot().flatten();
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
    for (const auto& [name, v] : other.scalars) scalars[name] += v;
    for (const auto& [name, h] : other.histograms) {
        auto it = histograms.find(name);
        if (it == histograms.end()) {
            histograms.emplace(name, h);
            continue;
        }
        Hist& mine = it->second;
        if (mine.bounds != h.bounds || mine.counts.size() != h.counts.size())
            throw std::logic_error("RegistrySnapshot::merge: bucket layout mismatch for " +
                                   name);
        for (std::size_t i = 0; i < h.counts.size(); ++i) mine.counts[i] += h.counts[i];
        mine.count += h.count;
        mine.sum += h.sum;
    }
}

double RegistrySnapshot::scalar(const std::string& name) const {
    const auto it = scalars.find(name);
    return it == scalars.end() ? 0.0 : it->second;
}

std::vector<Metrics::Sample> RegistrySnapshot::flatten() const {
    std::vector<Metrics::Sample> out;
    out.reserve(scalars.size() + histograms.size() * 4);
    for (const auto& [name, v] : scalars) out.push_back({name, v});
    for (const auto& [name, h] : histograms) {
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
            out.push_back({name + ".le_" + bound_label(h.bounds[i]),
                           static_cast<double>(h.counts[i])});
        out.push_back({name + ".le_inf", static_cast<double>(h.counts.back())});
        out.push_back({name + ".count", static_cast<double>(h.count)});
        out.push_back({name + ".sum", h.sum});
    }
    std::sort(out.begin(), out.end(),
              [](const Metrics::Sample& a, const Metrics::Sample& b) {
                  return a.name < b.name;
              });
    return out;
}

void append_json_number(std::string& json, double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<std::int64_t>(v)))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.9g", v);
    json += buf;
}

std::string RegistrySnapshot::to_json() const {
    std::string json = "{\"scalars\":{";
    bool first = true;
    for (const auto& [name, v] : scalars) {
        if (!first) json += ",";
        first = false;
        json += "\"" + name + "\":";
        append_json_number(json, v);
    }
    json += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms) {
        if (!first) json += ",";
        first = false;
        json += "\"" + name + "\":{\"bounds\":[";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i) json += ",";
            append_json_number(json, h.bounds[i]);
        }
        json += "],\"counts\":[";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i) json += ",";
            append_json_number(json, static_cast<double>(h.counts[i]));
        }
        json += "],\"count\":";
        append_json_number(json, static_cast<double>(h.count));
        json += ",\"sum\":";
        append_json_number(json, h.sum);
        json += "}";
    }
    json += "}}";
    return json;
}

// ---------------------------------------------------------------------------
// Protocol handle blocks
// ---------------------------------------------------------------------------

namespace {

template <typename Block>
const Block& disabled_block() {
    static const Block block = [] {
        Block b;
        auto* c = &Counter::sink();
        // Every Counter* member points at the sink; the Gauge* likewise.
        if constexpr (std::is_same_v<Block, SenderMetrics>)
            b = {c, c, c, c, c, c, &Gauge::sink(), c, c};
        else if constexpr (std::is_same_v<Block, ReceiverMetrics>)
            b = {c, c, c};
        else if constexpr (std::is_same_v<Block, LoggerMetrics>)
            b = {c, c, c, c, c};
        else if constexpr (std::is_same_v<Block, StatAckMetrics>)
            b = {c, c, c, c, c};
        else if constexpr (std::is_same_v<Block, HostMetrics>) {
            b.send_by_type.fill(c);
            b.timers_armed = b.timers_cancelled = b.notices = c;
        } else
            b = {c, c};
        return b;
    }();
    return block;
}

}  // namespace

const SenderMetrics& SenderMetrics::disabled() {
    return disabled_block<SenderMetrics>();
}
const ReceiverMetrics& ReceiverMetrics::disabled() {
    return disabled_block<ReceiverMetrics>();
}
const LoggerMetrics& LoggerMetrics::disabled() {
    return disabled_block<LoggerMetrics>();
}
const StatAckMetrics& StatAckMetrics::disabled() {
    return disabled_block<StatAckMetrics>();
}
const LossDetectorMetrics& LossDetectorMetrics::disabled() {
    return disabled_block<LossDetectorMetrics>();
}
const HostMetrics& HostMetrics::disabled() { return disabled_block<HostMetrics>(); }

const ProtocolMetrics& ProtocolMetrics::disabled() {
    static const ProtocolMetrics block{
        SenderMetrics::disabled(),   ReceiverMetrics::disabled(),
        LoggerMetrics::disabled(),   StatAckMetrics::disabled(),
        LossDetectorMetrics::disabled(), HostMetrics::disabled(),
        &EpisodeTracker::disabled()};
    return block;
}

EpisodeTracker& Metrics::episodes() {
    if (!episodes_) episodes_ = std::make_unique<EpisodeTracker>(*this);
    return *episodes_;
}

const ProtocolMetrics& Metrics::protocol() {
    if (!protocol_) {
        auto pm = std::make_unique<ProtocolMetrics>();
        pm->sender = {&counter("proto.sender.data_sent"),
                      &counter("proto.sender.heartbeats_sent"),
                      &counter("proto.sender.remulticasts"),
                      &counter("proto.sender.log_store_retries"),
                      &counter("proto.sender.failovers"),
                      &counter("proto.sender.failover_exhausted"),
                      &gauge("proto.sender.flow.spacing_us"),
                      &counter("proto.sender.flow.slowdowns"),
                      &counter("proto.sender.flow.cleared")};
        pm->receiver = {&counter("proto.receiver.delivered"),
                        &counter("proto.receiver.nacks_sent"),
                        &counter("proto.receiver.duplicates")};
        pm->logger = {&counter("proto.logger.nacks_received"),
                      &counter("proto.logger.served_unicast"),
                      &counter("proto.logger.served_multicast"),
                      &counter("proto.logger.upstream_fetches"),
                      &counter("proto.logger.acks_sent")};
        pm->stat_ack = {&counter("proto.stat_ack.epochs_opened"),
                        &counter("proto.stat_ack.remulticast_decisions"),
                        &counter("proto.stat_ack.empty_epoch_resolicits"),
                        &counter("proto.stat_ack.packets_completed"),
                        &counter("proto.stat_ack.packets_incomplete")};
        pm->loss = {&counter("proto.loss.gaps_opened"),
                    &counter("proto.loss.gap_overflows")};
        pm->host.send_by_type[0] = &Counter::sink();
        static_assert(std::tuple_size_v<decltype(pm->host.send_by_type)> ==
                      std::variant_size_v<Body> + 1);
        for (std::size_t t = 1; t < pm->host.send_by_type.size(); ++t)
            pm->host.send_by_type[t] = &counter(std::string("host.send.") +
                                                to_string(static_cast<PacketType>(t)));
        pm->host.timers_armed = &counter("host.timers_armed");
        pm->host.timers_cancelled = &counter("host.timers_cancelled");
        pm->host.notices = &counter("host.notices");
        pm->episodes = &episodes();
        protocol_ = std::move(pm);
    }
    return *protocol_;
}

}  // namespace lbrm::obs
