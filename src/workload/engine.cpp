#include "workload/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lbrm::workload {

namespace {

// Staleness histogram geometry: log-spaced bucket upper bounds from 10 us,
// 8 buckets per decade (64 buckets reach ~750 s; slower is overflow).
constexpr double kStaleFloor = 1e-5;
constexpr double kStalePerDecade = 8.0;

double bucket_bound(std::size_t i) {
    return kStaleFloor * std::pow(10.0, static_cast<double>(i) / kStalePerDecade);
}

}  // namespace

WorkloadEngine::WorkloadEngine(sim::DisScenario& scenario, EngineConfig config)
    : scenario_(scenario), config_(config) {
    auto& m = scenario_.metrics();
    obs_sends_ = &m.counter("workload.sends");
    obs_bytes_ = &m.counter("workload.bytes_sent");
    obs_deferrals_ = &m.counter("workload.deferrals");
    obs_stale_samples_ = &m.counter("workload.staleness_samples");
    obs_superseded_ = &m.counter("workload.superseded");
    m.gauge_fn("workload.fairness_jain_milli", [this] {
        return static_cast<std::uint64_t>(std::llround(fairness_jain() * 1000.0));
    });
    m.gauge_fn("workload.staleness_p50_us", [this] {
        return static_cast<std::uint64_t>(std::llround(staleness_quantile(0.5) * 1e6));
    });
    m.gauge_fn("workload.staleness_p99_us", [this] {
        return static_cast<std::uint64_t>(std::llround(staleness_quantile(0.99) * 1e6));
    });
    gauges_registered_ = true;
}

WorkloadEngine::~WorkloadEngine() {
    if (gauges_registered_) {
        auto& m = scenario_.metrics();
        m.remove_gauge_fn("workload.fairness_jain_milli");
        m.remove_gauge_fn("workload.staleness_p50_us");
        m.remove_gauge_fn("workload.staleness_p99_us");
    }
    if (started_) scenario_.remove_observer(this);
}

void WorkloadEngine::add_stream(std::unique_ptr<Workload> stream) {
    if (started_)
        throw std::logic_error("WorkloadEngine: add_stream after start()");
    const std::size_t index = streams_.size();
    StreamState st{std::move(stream), {}, stream_rng(config_.seed, index)};
    stats_.push_back(StreamStats{st.workload->name()});
    streams_.push_back(std::move(st));
}

std::vector<WorkloadItem> WorkloadEngine::plan_stream(Workload& w, Rng& rng,
                                                      Duration horizon) {
    std::vector<WorkloadItem> items;
    Duration elapsed{};
    for (;;) {
        WorkloadItem item = w.next(rng);
        elapsed += item.gap;
        if (elapsed > horizon) break;
        items.push_back(item);
    }
    return items;
}

void WorkloadEngine::start() {
    if (started_) throw std::logic_error("WorkloadEngine: start() called twice");
    started_ = true;

    // Draw every stream's open-loop plan up front.  The draws happen on
    // every shard (the engine is a pure function of config + seed), so a
    // sharded run and the unsharded baseline consume identical rng streams.
    const TimePoint t0 = scenario_.simulator().now() + config_.start_delay;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        StreamState& st = streams_[i];
        const std::vector<WorkloadItem> items =
            plan_stream(*st.workload, st.rng, config_.horizon);
        TimePoint at = t0;
        st.plan.reserve(items.size());
        for (const WorkloadItem& item : items) {
            at += item.gap;
            st.plan.push_back(Planned{at, item});
        }
        stats_[i].planned = items.size();
    }

    // Observation is installed on every shard: each shard records staleness
    // for the receivers it owns (lookups miss harmlessly off the source
    // shard, where nothing was sent).
    scenario_.add_observer(this);

    // Scheduling and sending happen only where the source lives.
    if (!scenario_.owns(scenario_.topology().source)) return;

    if (!config_.governed) {
        // Open loop: pre-schedule everything, stream-major -- the exact
        // calls (order, times, payload bytes) a driver with no engine
        // would make, so the packet trace is bit-identical to a no-engine
        // baseline.  on_send only maps protocol seqs back to items.
        for (std::size_t i = 0; i < streams_.size(); ++i)
            for (const Planned& p : streams_[i].plan)
                scenario_.schedule_update(p.at, streams_[i].workload->render(p.item));
        for (std::uint32_t i = 0; i < streams_.size(); ++i)
            for (std::uint32_t j = 0; j < streams_[i].plan.size(); ++j)
                exec_order_.emplace_back(i, j);
        std::stable_sort(exec_order_.begin(), exec_order_.end(),
                         [this](const auto& a, const auto& b) {
                             return streams_[a.first].plan[a.second].at <
                                    streams_[b.first].plan[b.second].at;
                         });
    } else {
        for (std::size_t i = 0; i < streams_.size(); ++i)
            if (!streams_[i].plan.empty()) schedule_fire(i, streams_[i].plan[0].at);
    }
}

void WorkloadEngine::schedule_fire(std::size_t stream, TimePoint at) {
    sim::Simulator::ActorScope scope(scenario_.simulator(),
                                     sim::Simulator::kScenarioActor);
    scenario_.simulator().schedule_at(at, [this, stream] { fire(stream); });
}

void WorkloadEngine::fire(std::size_t stream) {
    StreamState& st = streams_[stream];
    const Planned& p = st.plan[st.cursor];
    std::vector<std::uint8_t> payload = st.workload->render(p.item);
    const std::size_t bytes = payload.size();
    const TimePoint now = scenario_.simulator().now();
    scenario_.send_update(std::move(payload));
    record_send(stream, p.item, scenario_.sender().last_seq(), now, bytes);
    ++st.cursor;
    if (st.cursor >= st.plan.size()) return;

    // The closed loop: the next planned send may only fire once the
    // sender's AIMD advisory spacing has elapsed since this one.  Deferral
    // shifts the plan, it never drops from it -- LBRM stays
    // receiver-reliable, the workload just slows down.
    const TimePoint planned = st.plan[st.cursor].at;
    const Duration spacing =
        scenario_.sender().flow_control().jittered_spacing(st.rng);
    TimePoint next = now + spacing;
    if (next <= planned) {
        next = planned;
    } else {
        ++stats_[stream].deferrals;
        stats_[stream].total_deferral += next - planned;
        obs_deferrals_->inc();
    }
    schedule_fire(stream, next);
}

void WorkloadEngine::record_send(std::size_t stream, const WorkloadItem& item,
                                 SeqNum seq, TimePoint at, std::size_t bytes) {
    StreamStats& s = stats_[stream];
    ++s.sent;
    s.bytes += bytes;
    obs_sends_->inc();
    obs_bytes_->inc(bytes);
    sent_[seq.value()] = SentRec{static_cast<std::uint32_t>(stream), item.key,
                                 item.update, at};
    const std::uint64_t key =
        (static_cast<std::uint64_t>(stream) << 32) | item.key;
    auto [it, inserted] = newest_sent_.try_emplace(key, item.update);
    if (!inserted && item.update > it->second) it->second = item.update;
    streams_[stream].last_send = at;
}

void WorkloadEngine::on_send(TimePoint at, SeqNum seq) {
    // Governed sends are recorded by fire(); exec_order_ stays empty then.
    if (exec_cursor_ >= exec_order_.size()) return;
    const auto [si, pi] = exec_order_[exec_cursor_++];
    const Planned& p = streams_[si].plan[pi];
    record_send(si, p.item, seq, at, streams_[si].workload->render(p.item).size());
}

void WorkloadEngine::on_delivery(TimePoint at, NodeId, const DeliverData& data) {
    const auto it = sent_.find(data.seq.value());
    if (it == sent_.end()) return;  // not ours (or sent on another shard)
    const SentRec& rec = it->second;
    observe_staleness(to_seconds(at - rec.at));
    obs_stale_samples_->inc();
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rec.stream) << 32) | rec.key;
    const auto newest = newest_sent_.find(key);
    if (newest != newest_sent_.end() && newest->second > rec.update) {
        ++superseded_;
        obs_superseded_->inc();
    }
}

void WorkloadEngine::observe_staleness(double seconds) {
    ++stale_count_;
    stale_max_ = std::max(stale_max_, seconds);
    std::size_t i = 0;
    if (seconds > kStaleFloor) {
        const double exact = std::ceil(kStalePerDecade * std::log10(seconds / kStaleFloor));
        i = exact >= static_cast<double>(kStaleBuckets)
                ? kStaleBuckets
                : static_cast<std::size_t>(exact);
    }
    ++stale_counts_[i];
}

double WorkloadEngine::staleness_quantile(double q) const {
    if (stale_count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(stale_count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i <= kStaleBuckets; ++i) {
        seen += stale_counts_[i];
        if (seen >= rank) {
            if (i == kStaleBuckets) return stale_max_;
            // Geometric midpoint of the bucket (bounds are log-spaced).
            const double hi = bucket_bound(i);
            const double lo = i == 0 ? 0.0 : bucket_bound(i - 1);
            return i == 0 ? hi / 2.0 : std::sqrt(lo * hi);
        }
    }
    return stale_max_;
}

std::uint64_t WorkloadEngine::sends() const {
    std::uint64_t n = 0;
    for (const StreamStats& s : stats_) n += s.sent;
    return n;
}

std::uint64_t WorkloadEngine::bytes_sent() const {
    std::uint64_t n = 0;
    for (const StreamStats& s : stats_) n += s.bytes;
    return n;
}

std::uint64_t WorkloadEngine::deferrals() const {
    std::uint64_t n = 0;
    for (const StreamStats& s : stats_) n += s.deferrals;
    return n;
}

Duration WorkloadEngine::total_deferral() const {
    Duration d{};
    for (const StreamStats& s : stats_) d += s.total_deferral;
    return d;
}

double WorkloadEngine::fairness_jain() const {
    double sum = 0.0;
    double sumsq = 0.0;
    for (const StreamStats& s : stats_) {
        const auto x = static_cast<double>(s.bytes);
        sum += x;
        sumsq += x * x;
    }
    if (stats_.empty() || sum == 0.0) return 1.0;
    return (sum * sum) / (static_cast<double>(stats_.size()) * sumsq);
}

void WorkloadEngine::add_sampler_series() {
    obs::Sampler& s = scenario_.sampler();
    s.add_rate("workload.sends");
    s.add_rate("workload.bytes_sent");
    s.add_rate("workload.deferrals");
    s.add_rate("workload.staleness_samples");
    s.add_level("workload.fairness_jain_milli");
    s.add_level("workload.staleness_p99_us");
}

}  // namespace lbrm::workload
