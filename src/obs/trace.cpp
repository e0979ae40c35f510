#include "obs/trace.hpp"

#include <algorithm>

namespace lbrm::obs {

namespace {

std::atomic<TraceRecorder*> g_current{nullptr};
std::atomic<std::uint64_t> g_next_id{1};

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() { uninstall(); }

void TraceRecorder::install() {
    // Warm the installing thread's ring now: the lazy first-record path
    // allocates the whole ring (mutex + a multi-MB vector), and that cost
    // would otherwise land *between* the first span's close and the second
    // span's open -- a phantom gap in the exported timeline.  Worker threads
    // still pay it lazily, but inside their own first span.
    (void)ring_for_this_thread();
    g_current.store(this, std::memory_order_release);
}

void TraceRecorder::uninstall() {
    TraceRecorder* expected = this;
    g_current.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

TraceRecorder* TraceRecorder::current() {
    return g_current.load(std::memory_order_acquire);
}

TraceRecorder::Ring& TraceRecorder::ring_for_this_thread() {
    // Per-thread cache keyed by the recorder's process-unique id, so a
    // recorder reallocated at a previous recorder's address never aliases a
    // stale ring pointer.
    thread_local std::uint64_t cached_id = 0;
    thread_local Ring* cached_ring = nullptr;
    if (cached_id != id_) {
        std::lock_guard<std::mutex> lock(mu_);
        rings_.push_back(std::make_unique<Ring>(capacity_));
        cached_ring = rings_.back().get();
        cached_id = id_;
    }
    return *cached_ring;
}

void TraceRecorder::record(const char* name, std::chrono::steady_clock::time_point t0,
                           std::chrono::steady_clock::time_point t1) {
    Ring& ring = ring_for_this_thread();
    Span& slot = ring.buf[ring.count % ring.buf.size()];
    slot.name = name;
    slot.start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_).count());
    slot.dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++ring.count;
}

std::vector<TraceRecorder::Span> TraceRecorder::spans() const {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
        const Ring& ring = *rings_[tid];
        const std::uint64_t kept =
            std::min<std::uint64_t>(ring.count, ring.buf.size());
        const std::uint64_t begin = ring.count - kept;
        for (std::uint64_t i = begin; i < ring.count; ++i) {
            Span s = ring.buf[i % ring.buf.size()];
            s.tid = static_cast<std::uint32_t>(tid);
            out.push_back(s);
        }
    }
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                        : a.dur_ns > b.dur_ns;
    });
    return out;
}

std::uint64_t TraceRecorder::dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& ring : rings_)
        if (ring->count > ring->buf.size()) total += ring->count - ring->buf.size();
    return total;
}

}  // namespace lbrm::obs
