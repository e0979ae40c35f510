// Scoped-span trace recorder (see DESIGN.md "Observability").
//
// Spans measure *wall* time of simulator machinery -- finalize site builds,
// tree builds, event-loop drains, log-store recoveries -- so a million-node
// finalize can be opened in chrome://tracing or Perfetto (the run artifact,
// sim::observability_json, writes them as Chrome `trace_event` JSON in its
// `wall.trace` section).  Each thread writes into its own bounded ring
// buffer: recording is two steady_clock reads plus one ring store, with no
// locking after the thread's first span.  When the ring wraps the oldest
// spans are overwritten and the loss is counted, never silently.
//
// Recording is opt-in per process: a TraceRecorder must be install()ed as
// the current recorder.  With none installed, LBRM_TRACE_SPAN costs one
// relaxed atomic load and a branch; under LBRM_NO_TELEMETRY it compiles
// away entirely.  Span names must be string literals (the ring stores the
// pointer).  The recorder must outlive every span and every thread that
// recorded into it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace lbrm::obs {

class TraceRecorder {
public:
    struct Span {
        const char* name;
        std::uint32_t tid;       ///< ring index (0 = first thread seen)
        std::uint64_t start_ns;  ///< relative to the recorder's epoch
        std::uint64_t dur_ns;
    };

    /// `capacity_per_thread` bounds each thread's ring (spans kept; older
    /// ones are overwritten once the ring wraps).
    explicit TraceRecorder(std::size_t capacity_per_thread = 1 << 16);
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;
    ~TraceRecorder();

    /// Make this the process-wide recorder new spans report to.
    void install();
    /// Detach (only if this recorder is the current one).
    void uninstall();
    [[nodiscard]] static TraceRecorder* current();

    /// Record one closed span (called by ScopedSpan's destructor).
    void record(const char* name, std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1);

    /// All retained spans, merged across threads, sorted by start time.
    [[nodiscard]] std::vector<Span> spans() const;
    /// Spans lost to ring wraparound, across all threads.
    [[nodiscard]] std::uint64_t dropped() const;

private:
    struct Ring {
        explicit Ring(std::size_t cap) : buf(cap) {}
        std::vector<Span> buf;
        std::uint64_t count = 0;  ///< spans ever recorded; index = count % size
    };

    [[nodiscard]] Ring& ring_for_this_thread();

    const std::size_t capacity_;
    const std::uint64_t id_;  ///< process-unique, keyed by thread-local caches
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;   ///< guards rings_ growth (first span per thread)
    std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: records [construction, destruction) into the installed
/// recorder.  `name` must be a string literal.
class ScopedSpan {
public:
#if !defined(LBRM_NO_TELEMETRY)
    explicit ScopedSpan(const char* name)
        : name_(name), rec_(TraceRecorder::current()) {
        if (rec_ != nullptr) t0_ = std::chrono::steady_clock::now();
    }
    ~ScopedSpan() {
        if (rec_ != nullptr) rec_->record(name_, t0_, std::chrono::steady_clock::now());
    }
#else
    explicit ScopedSpan(const char*) {}
#endif
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
#if !defined(LBRM_NO_TELEMETRY)
    const char* name_;
    TraceRecorder* rec_;
    std::chrono::steady_clock::time_point t0_{};
#endif
};

#define LBRM_TRACE_CONCAT2(a, b) a##b
#define LBRM_TRACE_CONCAT(a, b) LBRM_TRACE_CONCAT2(a, b)
/// Span covering the rest of the enclosing scope.
#define LBRM_TRACE_SPAN(name) \
    ::lbrm::obs::ScopedSpan LBRM_TRACE_CONCAT(lbrm_span_, __LINE__)(name)

}  // namespace lbrm::obs
