// Pluggable scenario observation (DESIGN.md "Scale engineering").
//
// DisScenario reports every application-visible event -- data deliveries,
// protocol notices, source sends -- to its configured ScenarioObserver, then
// to every observer attached with DisScenario::add_observer (the chaos and
// workload engines), in attach order.  The default RecordingObserver keeps
// the full per-event record vectors the integration tests and benches
// introspect (payloads included, as shared references to each update's one
// buffer), which is O(events) memory: exactly right at test scale and fatal
// at a million receivers.
// CountingObserver is the scale-mode alternative: O(1) memory per node (a
// per-node delivery counter plus global tallies), so a million-node
// scenario can run real protocol traffic without the observation dwarfing
// the simulation itself.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/actions.hpp"

namespace lbrm::sim {

struct DeliveryRecord {
    NodeId node;
    SeqNum seq;
    TimePoint at{};
    bool recovered = false;
    Payload payload;  ///< shares the delivered update's buffer
};
struct NoticeRecord {
    NodeId node;
    NoticeKind kind{};
    std::uint64_t arg = 0;
    TimePoint at{};
};
struct SendRecord {
    SeqNum seq;
    TimePoint at{};
};

/// Receives every application-visible scenario event.  Reports run inside
/// core action execution.  An observer may change simulator state (node
/// liveness, link loss, routing), as ChaosEngine does when a fault
/// triggers; it must not send through the scenario, and must not add or
/// remove observers from inside a report.  Every method does nothing by
/// default, so an observer overrides only the events it uses.
class ScenarioObserver {
public:
    virtual ~ScenarioObserver() = default;
    virtual void on_delivery(TimePoint /*at*/, NodeId /*node*/, const DeliverData& /*data*/) {}
    virtual void on_notice(TimePoint /*at*/, NodeId /*node*/, const Notice& /*notice*/) {}
    virtual void on_send(TimePoint /*at*/, SeqNum /*seq*/) {}
    /// Forget everything observed so far (DisScenario::clear_records, which
    /// clears the configured observer only).
    virtual void clear() {}
};

/// The default observer: full per-event records, payloads included.
class RecordingObserver final : public ScenarioObserver {
public:
    void on_delivery(TimePoint at, NodeId node, const DeliverData& data) override {
        deliveries_.push_back({node, data.seq, at, data.recovered, data.payload});
    }
    void on_notice(TimePoint at, NodeId node, const Notice& notice) override {
        notices_.push_back({node, notice.kind, notice.arg, at});
    }
    void on_send(TimePoint at, SeqNum seq) override { sends_.push_back({seq, at}); }
    void clear() override {
        deliveries_.clear();
        notices_.clear();
        sends_.clear();
    }

    [[nodiscard]] const std::vector<DeliveryRecord>& deliveries() const {
        return deliveries_;
    }
    [[nodiscard]] const std::vector<NoticeRecord>& notices() const { return notices_; }
    [[nodiscard]] const std::vector<SendRecord>& sends() const { return sends_; }

private:
    std::vector<DeliveryRecord> deliveries_;
    std::vector<NoticeRecord> notices_;
    std::vector<SendRecord> sends_;
};

/// Constant-memory observer for scale runs: per-node delivery counters and
/// global tallies only; payload bytes are counted, never stored.
class CountingObserver final : public ScenarioObserver {
public:
    void on_delivery(TimePoint at, NodeId node, const DeliverData& data) override {
        const std::size_t i = node.value() - 1;
        if (per_node_deliveries_.size() <= i) per_node_deliveries_.resize(i + 1, 0);
        ++per_node_deliveries_[i];
        ++deliveries_;
        if (data.recovered) ++recovered_;
        payload_bytes_ += data.payload.size();
        last_delivery_at_ = at;
    }
    void on_notice(TimePoint, NodeId, const Notice& notice) override {
        const auto k = static_cast<std::size_t>(notice.kind);
        if (k < notice_counts_.size()) ++notice_counts_[k];
        ++notices_;
    }
    void on_send(TimePoint, SeqNum) override { ++sends_; }
    void clear() override {
        std::fill(per_node_deliveries_.begin(), per_node_deliveries_.end(), 0u);
        notice_counts_.fill(0);
        deliveries_ = recovered_ = notices_ = sends_ = payload_bytes_ = 0;
        last_delivery_at_ = TimePoint{};
    }

    [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
    [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
    [[nodiscard]] std::uint64_t notices() const { return notices_; }
    [[nodiscard]] std::uint64_t sends() const { return sends_; }
    [[nodiscard]] std::uint64_t payload_bytes() const { return payload_bytes_; }
    [[nodiscard]] TimePoint last_delivery_at() const { return last_delivery_at_; }
    [[nodiscard]] std::uint64_t notice_count(NoticeKind kind) const {
        const auto k = static_cast<std::size_t>(kind);
        return k < notice_counts_.size() ? notice_counts_[k] : 0;
    }
    /// Deliveries seen by `node` (0 for nodes never delivered to).
    [[nodiscard]] std::uint32_t deliveries_at(NodeId node) const {
        const std::size_t i = node.value() - 1;
        return i < per_node_deliveries_.size() ? per_node_deliveries_[i] : 0;
    }
    /// Nodes with at least `min` deliveries (scale-run coverage checks).
    [[nodiscard]] std::size_t nodes_with_at_least(std::uint32_t min) const {
        std::size_t n = 0;
        for (const std::uint32_t c : per_node_deliveries_)
            if (c >= min) ++n;
        return n;
    }

private:
    std::vector<std::uint32_t> per_node_deliveries_;
    std::array<std::uint64_t, 32> notice_counts_{};
    std::uint64_t deliveries_ = 0;
    std::uint64_t recovered_ = 0;
    std::uint64_t notices_ = 0;
    std::uint64_t sends_ = 0;
    std::uint64_t payload_bytes_ = 0;
    TimePoint last_delivery_at_{};
};

}  // namespace lbrm::sim
