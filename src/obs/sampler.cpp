#include "obs/sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace lbrm::obs {

void Sampler::add_rate(std::string name) {
    series_.push_back(Series{std::move(name), /*rate=*/true, 0, {}});
}

void Sampler::add_level(std::string name) {
    series_.push_back(Series{std::move(name), /*rate=*/false, 0, {}});
}

void Sampler::tick(TimePoint now) {
    times_.push_back(to_seconds(now));
    for (Series& s : series_) {
        const std::uint64_t v = metrics_.value(s.name);
        if (s.rate) {
            // Counters are monotonic; guard anyway so a reset source can
            // never underflow the delta.
            s.values.push_back(v >= s.last ? v - s.last : 0);
            s.last = v;
        } else {
            s.values.push_back(v);
        }
    }
}

const std::vector<std::uint64_t>* Sampler::series(const std::string& name) const {
    const auto it = std::find_if(series_.begin(), series_.end(),
                                 [&](const Series& s) { return s.name == name; });
    return it != series_.end() ? &it->values : nullptr;
}

SamplerSnapshot Sampler::export_snapshot() const {
    SamplerSnapshot snap;
    snap.interval_s = to_seconds(interval_);
    snap.t = times_;
    snap.series.reserve(series_.size());
    for (const Series& s : series_)
        snap.series.push_back({s.name, s.rate, s.values});
    return snap;
}

void SamplerSnapshot::merge(const SamplerSnapshot& other) {
    if (other.empty()) return;
    if (empty()) {
        *this = other;
        return;
    }
    if (t != other.t || series.size() != other.series.size())
        throw std::logic_error("SamplerSnapshot::merge: shards sampled different rows");
    for (std::size_t i = 0; i < series.size(); ++i) {
        Series& mine = series[i];
        const Series& theirs = other.series[i];
        if (mine.name != theirs.name || mine.rate != theirs.rate ||
            mine.values.size() != theirs.values.size())
            throw std::logic_error("SamplerSnapshot::merge: series layout mismatch at " +
                                   mine.name);
        for (std::size_t r = 0; r < mine.values.size(); ++r)
            mine.values[r] += theirs.values[r];
    }
}

std::string SamplerSnapshot::to_json() const {
    char buf[64];
    std::string json = "{\"interval_s\":";
    std::snprintf(buf, sizeof buf, "%.9g", interval_s);
    json += buf;
    json += ",\"t\":[";
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i != 0) json += ",";
        std::snprintf(buf, sizeof buf, "%.9g", t[i]);
        json += buf;
    }
    json += "],\"series\":{";
    bool first = true;
    for (const Series& s : series) {
        if (!first) json += ",";
        first = false;
        json += "\"" + s.name + "\":{\"kind\":\"";
        json += s.rate ? "rate" : "level";
        json += "\",\"values\":[";
        for (std::size_t i = 0; i < s.values.size(); ++i) {
            if (i != 0) json += ",";
            std::snprintf(buf, sizeof buf, "%llu",
                          static_cast<unsigned long long>(s.values[i]));
            json += buf;
        }
        json += "]}";
    }
    json += "}}";
    return json;
}

}  // namespace lbrm::obs
