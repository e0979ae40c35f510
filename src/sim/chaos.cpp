#include "sim/chaos.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace lbrm::sim {

ChaosSchedule ChaosSchedule::correlated_blackouts(Rng& rng, std::size_t sites,
                                                  std::size_t count, Duration window,
                                                  Duration min_outage,
                                                  Duration max_outage) {
    if (sites == 0) throw std::invalid_argument("correlated_blackouts: no sites");
    ChaosSchedule schedule;
    schedule.events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        SiteBlackout b;
        b.site = static_cast<std::size_t>(rng.uniform_int(0, sites - 1));
        b.at = rng.uniform_duration(Duration::zero(), window);
        b.duration = rng.uniform_duration(min_outage, max_outage);
        schedule.events.push_back(b);
    }
    return schedule;
}

ChaosEngine::ChaosEngine(DisScenario& scenario, ChaosSchedule schedule)
    : scenario_(scenario), schedule_(std::move(schedule)) {
    obs::Metrics& m = scenario_.metrics();
    c_blackouts_ = &m.counter("chaos.site_blackouts");
    c_partitions_ = &m.counter("chaos.partitions");
    c_primary_crashes_ = &m.counter("chaos.primary_crashes");
    c_replica_crashes_ = &m.counter("chaos.replica_crashes");
    c_crash_on_receive_ = &m.counter("chaos.crash_on_receive");
    c_send_and_crash_ = &m.counter("chaos.send_and_crash");
    c_revivals_ = &m.counter("chaos.revivals");
    c_refinalizes_ = &m.counter("chaos.refinalizes");
}

ChaosEngine::~ChaosEngine() {
    // Detach so a scenario outliving the engine never calls into freed state.
    if (observing_) scenario_.remove_observer(this);
}

void ChaosEngine::arm() {
    if (armed_) throw std::logic_error("ChaosEngine: arm() called twice");
    armed_ = true;
    if (schedule_.empty()) return;  // idle engine: leave the scenario untouched

    Simulator& sim = scenario_.simulator();
    t0_ = sim.now();

    // Fault events are scenario machinery: keyed to the reserved chaos
    // actor so an armed schedule never skews protocol event keys (the
    // determinism contract of DESIGN.md "Sharded execution").
    Simulator::ActorScope scope(sim, Simulator::kChaosActor);
    for (const FaultEvent& event : schedule_.events) {
        std::visit(
            [&](const auto& f) {
                using F = std::decay_t<decltype(f)>;
                if constexpr (std::is_same_v<F, SiteBlackout>) {
                    sim.schedule_at(t0_ + f.at,
                                    [this, f] { apply_site(f.site, true, true); });
                    if (f.duration > Duration::zero()) {
                        sim.schedule_at(t0_ + f.at + f.duration,
                                        [this, f] { apply_site(f.site, false, true); });
                        windows_.push_back({t0_ + f.at, t0_ + f.at + f.duration});
                    }
                } else if constexpr (std::is_same_v<F, SitePartition>) {
                    sim.schedule_at(t0_ + f.at,
                                    [this, f] { apply_site(f.site, true, false); });
                    if (f.duration > Duration::zero()) {
                        sim.schedule_at(t0_ + f.at + f.duration,
                                        [this, f] { apply_site(f.site, false, false); });
                        windows_.push_back({t0_ + f.at, t0_ + f.at + f.duration});
                    }
                } else if constexpr (std::is_same_v<F, PrimaryCrash>) {
                    sim.schedule_at(t0_ + f.at, [this, f] {
                        c_primary_crashes_->inc();
                        crash_node(scenario_.topology().primary, f.revive_after,
                                   "primary-crash");
                    });
                } else if constexpr (std::is_same_v<F, ReplicaCrash>) {
                    const NodeId node = scenario_.topology().replicas.at(f.replica);
                    sim.schedule_at(t0_ + f.at, [this, f, node] {
                        c_replica_crashes_->inc();
                        crash_node(node, f.revive_after, "replica-crash");
                    });
                } else if constexpr (std::is_same_v<F, CrashOnReceive>) {
                    receive_triggers_.push_back(f);
                } else if constexpr (std::is_same_v<F, SendAndCrash>) {
                    send_triggers_.push_back(f);
                }
            },
            event);
    }

    if (!receive_triggers_.empty() || !send_triggers_.empty()) {
        observing_ = true;
        scenario_.add_observer(this);
    }
}

void ChaosEngine::apply_site(std::size_t site_index, bool down, bool blackout) {
    const DisTopology::Site& site = scenario_.topology().sites.at(site_index);
    Network& net = scenario_.network();
    net.set_node_down(site.router, down);
    if (blackout) {
        if (site.secondary != kNoNode) net.set_node_down(site.secondary, down);
        for (NodeId r : site.receivers) net.set_node_down(r, down);
    }
    // The router's liveness changed: re-finalize so routing (relaying,
    // border liveness) reflects it -- routes are a pure function of the
    // last finalize() (see network.hpp).
    net.finalize();
    c_refinalizes_->inc();

    const TimePoint now = scenario_.simulator().now();
    if (down) {
        ++faults_applied_;
        (blackout ? c_blackouts_ : c_partitions_)->inc();
        record(now, std::string(blackout ? "blackout site=" : "partition site=") +
                        std::to_string(site_index));
    } else {
        ++revivals_;
        c_revivals_->inc();
        record(now, std::string(blackout ? "heal site=" : "rejoin site=") +
                        std::to_string(site_index));
    }
}

void ChaosEngine::crash_node(NodeId node, Duration revive_after, const char* what) {
    Simulator& sim = scenario_.simulator();
    Simulator::ActorScope scope(sim, Simulator::kChaosActor);  // revival keying
    const TimePoint now = sim.now();
    set_node(node, true, /*refinalize=*/false);  // leaf hosts never relay
    ++faults_applied_;
    record(now, std::string(what) + " node=" + std::to_string(node.value()));
    if (revive_after > Duration::zero()) {
        windows_.push_back({now, now + revive_after});
        sim.schedule_at(now + revive_after, [this, node, what] {
            set_node(node, false, false);
            ++revivals_;
            c_revivals_->inc();
            record(scenario_.simulator().now(),
                   std::string("revive after ") + what + " node=" +
                       std::to_string(node.value()));
        });
    }
}

void ChaosEngine::set_node(NodeId node, bool down, bool refinalize) {
    scenario_.network().set_node_down(node, down);
    if (refinalize) {
        scenario_.network().finalize();
        c_refinalizes_->inc();
    }
}

void ChaosEngine::record(TimePoint at, std::string what) {
    log_.push_back({at, std::move(what)});
}

void ChaosEngine::on_delivery(TimePoint, NodeId node, const DeliverData& data) {
    for (std::size_t i = 0; i < receive_triggers_.size(); ++i) {
        if (receive_triggers_[i].node != node || receive_triggers_[i].seq != data.seq)
            continue;
        const CrashOnReceive trig = receive_triggers_[i];
        receive_triggers_.erase(receive_triggers_.begin() +
                                static_cast<std::ptrdiff_t>(i));
        c_crash_on_receive_->inc();
        crash_node(node, trig.revive_after, "crash-on-receive");
        return;
    }
}

void ChaosEngine::on_send(TimePoint, SeqNum seq) {
    for (std::size_t i = 0; i < send_triggers_.size(); ++i) {
        if (send_triggers_[i].seq != seq) continue;
        const SendAndCrash trig = send_triggers_[i];
        send_triggers_.erase(send_triggers_.begin() + static_cast<std::ptrdiff_t>(i));
        c_send_and_crash_->inc();
        crash_node(scenario_.topology().source, trig.revive_after, "send-and-crash");
        return;
    }
}

// --- receiver-reliability accounting ---------------------------------------

namespace {

/// Pack a (node, seq) pair for set membership.
std::uint64_t pair_key(NodeId node, SeqNum seq) {
    return (static_cast<std::uint64_t>(node.value()) << 32) | seq.value();
}

}  // namespace

ReliabilityAudit audit_reliability(const DisScenario& scenario) {
    ReliabilityAudit audit;
    const std::vector<NodeId> receivers = scenario.topology().all_receivers();

    std::unordered_set<std::uint32_t> sent;
    sent.reserve(scenario.sends().size());
    for (const SendRecord& s : scenario.sends()) sent.insert(s.seq.value());

    std::unordered_set<std::uint64_t> delivered;
    delivered.reserve(scenario.deliveries().size());
    for (const DeliveryRecord& d : scenario.deliveries())
        if (sent.contains(d.seq.value())) delivered.insert(pair_key(d.node, d.seq));

    audit.expected =
        static_cast<std::uint64_t>(receivers.size()) * sent.size();
    for (NodeId node : receivers)
        for (std::uint32_t seq : sent)
            if (delivered.contains(pair_key(node, SeqNum{seq}))) ++audit.delivered;
    audit.lost_forever = audit.expected - audit.delivered;
    return audit;
}

RecoveryStats settle_latency(const DisScenario& scenario, TimePoint win_start,
                             TimePoint win_end) {
    const std::size_t n_receivers = scenario.topology().all_receivers().size();

    // Send times for sequences inside the window.
    std::unordered_map<std::uint32_t, TimePoint> sent_at;
    for (const SendRecord& s : scenario.sends())
        if (s.at >= win_start && s.at <= win_end) sent_at.emplace(s.seq.value(), s.at);

    // First delivery per (receiver, seq); settle = the latest of them.
    std::unordered_map<std::uint32_t, TimePoint> latest_first;
    std::unordered_map<std::uint32_t, std::size_t> coverage;
    std::unordered_set<std::uint64_t> seen;
    for (const DeliveryRecord& d : scenario.deliveries()) {
        const auto it = sent_at.find(d.seq.value());
        if (it == sent_at.end()) continue;
        if (!seen.insert(pair_key(d.node, d.seq)).second) continue;  // not first
        ++coverage[d.seq.value()];
        auto [lt, inserted] = latest_first.emplace(d.seq.value(), d.at);
        if (!inserted && d.at > lt->second) lt->second = d.at;
    }

    std::vector<double> settle;
    settle.reserve(sent_at.size());
    for (const auto& [seq, at] : sent_at) {
        const auto cov = coverage.find(seq);
        if (cov == coverage.end() || cov->second < n_receivers) continue;  // lost
        settle.push_back(to_seconds(latest_first.at(seq) - at));
    }
    std::sort(settle.begin(), settle.end());

    RecoveryStats stats;
    stats.samples = settle.size();
    if (settle.empty()) return stats;
    const auto rank = [&](double q) {
        const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(
                                                               settle.size() - 1));
        return settle[i];
    };
    stats.p50_s = rank(0.50);
    stats.p99_s = rank(0.99);
    stats.max_s = settle.back();
    return stats;
}

}  // namespace lbrm::sim
