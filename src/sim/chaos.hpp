// Scripted fault injection over DisScenario (see DESIGN.md "Chaos suite").
//
// The protocol's claims are about *recovery* (Section 2.2): the log
// hierarchy must survive primary crashes, logger rotation and site outages
// without any receiver permanently losing a packet.  ChaosEngine stresses
// exactly that: a declarative ChaosSchedule names faults and when they
// strike; arm() turns each into ordinary simulator events (node down/up,
// re-finalize) plus packet-triggered crashes, which the engine applies as
// one of the scenario's added observers (DisScenario::add_observer).
//
// Determinism rules:
//   * Injection draws no randomness.  Applying a fault is set_node_down()
//     plus (for routers) finalize() -- neither touches the network RNG, so
//     the same schedule on the same seed replays bit-identically.
//   * Randomized *schedules* (correlated_blackouts) consume only the Rng
//     the caller passes in -- never the scenario's stream -- so generating
//     a schedule cannot perturb non-fault packet outcomes.
//   * An idle engine (empty schedule) attaches no observer and schedules
//     no events: fault-free runs are bit-identical with the chaos layer
//     compiled in (chaos_test pins this with a packet-trace hash).  Nor
//     does an engine without packet-triggered faults attach one.
//
// Crash semantics: a "crashed" node is network-silent -- it neither sends
// nor receives -- but keeps its core state and timers, modelling a
// fail-recover process whose log survives (the paper's loggers persist
// their logs; MPI message-logging makes the same assumption).  Receiver
// reliability must close every gap the silence opened once the node heals.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "sim/scenario.hpp"

namespace lbrm::sim {

// --- fault classes ---------------------------------------------------------
// Times are offsets from the arm() instant.  A zero duration / revive_after
// means the fault is permanent (no heal is scheduled).

/// Correlated site blackout: the site's router, secondary logger and every
/// receiver go down together, and relaying through the site stops from the
/// accompanying re-finalize.
struct SiteBlackout {
    std::size_t site = 0;
    Duration at{};
    Duration duration{};
};

/// Primary-logger crash (Section 2.2.3): the sender's LogStore handoff
/// starts timing out, eventually promoting a replica.  Stack several of
/// these plus ReplicaCrash entries to script a failover storm.
struct PrimaryCrash {
    Duration at{};
    Duration revive_after{};
};

/// Crash of replica `replica` (index into the topology's replica list).
struct ReplicaCrash {
    std::size_t replica = 0;
    Duration at{};
    Duration revive_after{};
};

/// Partition-and-rejoin: the site's *router* goes down (plus re-finalize),
/// isolating the site while its hosts stay alive -- they keep detecting
/// loss, retrying NACKs and losing freshness, and must reconverge (group
/// re-estimation included) after the rejoin re-finalize.
struct SitePartition {
    std::size_t site = 0;
    Duration at{};
    Duration duration{};
};

/// Crash-on-receive (the classic reliable-broadcast harness fault): `node`
/// crashes at the instant it delivers sequence `seq` -- after the delivery
/// reaches the application, before it can process anything further.
struct CrashOnReceive {
    NodeId node;
    SeqNum seq;
    Duration revive_after{};
};

/// Send-and-crash: the source crashes immediately after multicasting `seq`.
/// Packets already on the wire still arrive; heartbeats, LogStore retries
/// and ACK machinery go dark until the revival.
struct SendAndCrash {
    SeqNum seq;
    Duration revive_after{};
};

using FaultEvent = std::variant<SiteBlackout, PrimaryCrash, ReplicaCrash,
                                SitePartition, CrashOnReceive, SendAndCrash>;

struct ChaosSchedule {
    std::vector<FaultEvent> events;

    [[nodiscard]] bool empty() const { return events.empty(); }

    /// Randomized correlated blackouts: `count` outages over sites drawn
    /// from [0, sites), starting uniformly within [0, window) and lasting
    /// uniformly [min_outage, max_outage).  Consumes only `rng` -- pass a
    /// dedicated stream (e.g. Rng{seed}.fork()) so schedule generation
    /// never perturbs the scenario's packet outcomes.
    static ChaosSchedule correlated_blackouts(Rng& rng, std::size_t sites,
                                              std::size_t count, Duration window,
                                              Duration min_outage,
                                              Duration max_outage);
};

/// Applies a ChaosSchedule to a running DisScenario.  Construct after the
/// scenario, arm() after scenario.start() (or at any later sim time); keep
/// the engine alive for the run -- it owns the scheduled closures' state
/// and, with packet-triggered faults, observes the scenario.
class ChaosEngine : private ScenarioObserver {
public:
    ChaosEngine(DisScenario& scenario, ChaosSchedule schedule);
    ~ChaosEngine();

    ChaosEngine(const ChaosEngine&) = delete;
    ChaosEngine& operator=(const ChaosEngine&) = delete;

    /// Anchor the schedule at the current simulation time and queue every
    /// fault.  Packet-triggered faults attach the engine as a scenario
    /// observer.  May be called once; an empty schedule arms nothing at all.
    void arm();

    // --- applied-fault log (the evidence trail) -------------------------
    struct Applied {
        TimePoint at{};
        std::string what;
    };
    [[nodiscard]] const std::vector<Applied>& log() const { return log_; }
    [[nodiscard]] std::uint64_t faults_applied() const { return faults_applied_; }
    [[nodiscard]] std::uint64_t revivals() const { return revivals_; }

    /// Fault-active windows [start, heal] for every fault whose heal is
    /// known (scheduled faults at arm time; triggered faults when they
    /// fire).  Benches window their recovery-latency percentiles on these.
    struct Window {
        TimePoint start{};
        TimePoint heal{};
    };
    [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }

private:
    void apply_site(std::size_t site, bool down, bool blackout);
    void set_node(NodeId node, bool down, bool refinalize);
    void record(TimePoint at, std::string what);
    void crash_node(NodeId node, Duration revive_after, const char* what);
    void on_delivery(TimePoint at, NodeId node, const DeliverData& data) override;
    void on_send(TimePoint at, SeqNum seq) override;

    DisScenario& scenario_;
    ChaosSchedule schedule_;
    bool armed_ = false;
    TimePoint t0_{};

    /// Pending packet triggers; consumed (erased) when they fire.
    std::vector<CrashOnReceive> receive_triggers_;
    std::vector<SendAndCrash> send_triggers_;
    bool observing_ = false;

    std::vector<Applied> log_;
    std::vector<Window> windows_;
    std::uint64_t faults_applied_ = 0;
    std::uint64_t revivals_ = 0;

    // Per-fault-class health counters ("chaos.*", resolved at construction
    // from the scenario registry).  Observation only -- counters never feed
    // back into behaviour.
    obs::Counter* c_blackouts_;
    obs::Counter* c_partitions_;
    obs::Counter* c_primary_crashes_;
    obs::Counter* c_replica_crashes_;
    obs::Counter* c_crash_on_receive_;
    obs::Counter* c_send_and_crash_;
    obs::Counter* c_revivals_;
    obs::Counter* c_refinalizes_;
};

// --- receiver-reliability accounting (tests + bench_chaos) -----------------

/// Receiver-reliability audit over the scenario's recorded observations:
/// every receiver in the topology is expected to deliver every sequence the
/// source sent.  Requires the default RecordingObserver and all receivers
/// subscribed (active_receivers_per_site == 0).
struct ReliabilityAudit {
    std::uint64_t expected = 0;   ///< receivers x sequences sent
    std::uint64_t delivered = 0;  ///< distinct (receiver, seq) pairs seen
    std::uint64_t lost_forever = 0;  ///< expected - delivered
};
[[nodiscard]] ReliabilityAudit audit_reliability(const DisScenario& scenario);

/// Per-sequence settle latency -- max over receivers of (first delivery -
/// send time) -- for sequences sent inside [win_start, win_end].  Sequences
/// not yet delivered everywhere are excluded (audit_reliability catches
/// them).  Percentiles use nearest-rank on the sorted sample.
struct RecoveryStats {
    std::size_t samples = 0;
    double p50_s = 0.0;
    double p99_s = 0.0;
    double max_s = 0.0;
};
[[nodiscard]] RecoveryStats settle_latency(const DisScenario& scenario,
                                           TimePoint win_start, TimePoint win_end);

}  // namespace lbrm::sim
