// Small helpers shared by the reproduction benches: formatting and peak
// RSS (the packet-trace hash lives in trace_hash.hpp).  Each bench binary
// prints the paper artifact it regenerates (figure series or table rows)
// in a fixed-width layout plus a machine-readable CSV block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace lbrm::bench {

/// Peak resident set size of this process so far, in bytes (0 when the
/// platform offers no getrusage).  ru_maxrss is kilobytes on Linux and
/// bytes on macOS.
inline std::size_t peak_rss_bytes() {
#if defined(__APPLE__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<std::size_t>(usage.ru_maxrss);
#elif defined(__unix__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#else
    return 0;
#endif
}

inline void title(const std::string& text) {
    std::printf("\n=== %s ===\n\n", text.c_str());
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Fixed-width table writer: columns sized by the header labels.
class Table {
public:
    explicit Table(std::vector<std::string> headers, int width = 14)
        : headers_(std::move(headers)), width_(width) {
        for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < headers_.size(); ++i)
            std::printf("%*s", width_, std::string(static_cast<std::size_t>(width_) - 2, '-').c_str());
        std::printf("\n");
    }

    void row(const std::vector<std::string>& cells) {
        for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
        std::printf("\n");
    }

private:
    std::vector<std::string> headers_;
    int width_;
};

inline std::string fmt(double v, int precision = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string fmt_int(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return buf;
}

// --- machine-readable bench output ------------------------------------------
//
// Perf-tracking benches (bench_simcore_throughput and future ones) record
// their headline numbers as a JSON array so the perf trajectory can be
// diffed across PRs.  The timestamp is passed in by the caller rather than
// read from the clock, keeping bench output reproducible under a fixed
// invocation.

struct JsonMetric {
    std::string name;    ///< bench / scenario identifier
    std::string metric;  ///< what is measured, e.g. "delivered_packets_per_sec"
    double value = 0.0;
    std::string timestamp;  ///< ISO-8601, supplied by the invoker
    /// Execution configuration, e.g. "shards=8,driver=threads" -- sharded
    /// and single-process runs of the same scenario record distinct rows.
    /// Empty keeps the legacy three-field line format (existing history
    /// rows keep matching byte-for-byte).  The default initializer lets a
    /// row leave it out without a missing-initializer warning.
    std::string config{};
};

/// Serialize one metric as a JSON object (no trailing newline).
inline std::string json_metric_line(const JsonMetric& m) {
    char buf[320];
    if (m.config.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
                      "\"timestamp\": \"%s\"}",
                      m.name.c_str(), m.metric.c_str(), m.value,
                      m.timestamp.c_str());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
                      "\"timestamp\": \"%s\", \"config\": \"%s\"}",
                      m.name.c_str(), m.metric.c_str(), m.value,
                      m.timestamp.c_str(), m.config.c_str());
    }
    return buf;
}

/// Write `metrics` to `path` as a JSON array (e.g. BENCH_simcore.json),
/// merging with the file's existing entries: an existing entry survives
/// unless a new metric has the same ("name", "metric", "timestamp",
/// "config") tuple.  Re-running a bench with a fresh timestamp therefore
/// *appends* a row, preserving the perf trajectory across PRs; re-running
/// with the same timestamp overwrites in place (idempotent CI retries).
/// Returns false (and prints a note) if the file cannot be opened.
inline bool write_bench_json(const std::string& path, const std::vector<JsonMetric>& metrics) {
    // Entries this file writes one per line, so merge at line granularity:
    // keep prior lines whose identifying tuple is not being rewritten.
    std::vector<std::string> kept;
    if (std::FILE* in = std::fopen(path.c_str(), "r")) {
        char line[512];
        while (std::fgets(line, sizeof(line), in) != nullptr) {
            std::string s(line);
            if (s.find("\"name\"") == std::string::npos) continue;  // brackets
            const bool replaced = std::any_of(
                metrics.begin(), metrics.end(), [&](const JsonMetric& m) {
                    if (s.find("\"name\": \"" + m.name + "\"") == std::string::npos ||
                        s.find("\"metric\": \"" + m.metric + "\"") == std::string::npos ||
                        s.find("\"timestamp\": \"" + m.timestamp + "\"") ==
                            std::string::npos)
                        return false;
                    // Config must match too: a legacy line (no config key)
                    // only collides with a config-less metric.
                    if (m.config.empty())
                        return s.find("\"config\"") == std::string::npos;
                    return s.find("\"config\": \"" + m.config + "\"") !=
                           std::string::npos;
                });
            if (replaced) continue;
            while (!s.empty() && (s.back() == '\n' || s.back() == ',' || s.back() == ' '))
                s.pop_back();
            kept.push_back(s);
        }
        std::fclose(in);
    }

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::printf("warning: could not open %s for writing\n", path.c_str());
        return false;
    }
    std::fprintf(f, "[\n");
    const std::size_t total = kept.size() + metrics.size();
    std::size_t written = 0;
    for (const auto& line : kept)
        std::fprintf(f, "%s%s\n", line.c_str(), ++written < total ? "," : "");
    for (const auto& m : metrics)
        std::fprintf(f, "  %s%s\n", json_metric_line(m).c_str(),
                     ++written < total ? "," : "");
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
}

}  // namespace lbrm::bench
