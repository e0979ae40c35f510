// A fully wired LBRM deployment on the Figure-1 DIS topology.
//
// DisScenario builds the network, attaches a SenderCore at the source, a
// primary LoggerCore (plus replicas), one secondary LoggerCore per site and
// a ReceiverCore per receiver host, joins the right nodes to the right
// multicast groups, and reports every delivery, notice and send to a
// pluggable ScenarioObserver (see observer.hpp).  The default observer
// records full per-event vectors -- what the integration tests and benches
// introspect -- while scale runs plug in CountingObserver to keep
// observation at O(1) memory per node.  Integration tests, benches and
// examples all run on top of it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "obs/sampler.hpp"
#include "sim/network.hpp"
#include "sim/observer.hpp"
#include "sim/sim_host.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace lbrm::sim {

struct ScenarioConfig {
    DisTopologySpec topology;
    GroupId group{1};
    std::uint64_t seed = 42;

    /// Simulator-substrate knobs (the delivery-tree cache bound, a shared
    /// telemetry registry).  Purely a memory/speed trade-off: results are
    /// identical for every setting.
    SimConfig sim;

    /// Where scenario events go.  Null = a private RecordingObserver (the
    /// full-record default every existing test and bench relies on).  Scale
    /// runs install a CountingObserver; the record accessors below then
    /// throw, since nothing stores per-event records.
    std::shared_ptr<ScenarioObserver> observer;

    HeartbeatConfig heartbeat;
    StatAckConfig stat_ack;
    /// Section 5 AIMD send-spacing governor (core/flow_control.hpp).
    /// Advisory: enabling it only makes the sender emit congestion notices
    /// and maintain recommended_spacing(); a driver that *obeys* the
    /// advice (workload::WorkloadEngine in governed mode) closes the loop.
    FlowControlConfig flow_control;

    /// First sequence number of the stream (propagated to the sender and to
    /// every logger's contiguity anchor).  Tests set this near 2^32 to
    /// exercise wraparound end to end.
    SeqNum initial_seq{1};

    /// Point receivers at their site's secondary logger (distributed
    /// logging, Section 2.2).  When false every receiver NACKs the primary
    /// directly (the centralized baseline of Figure 7a).
    bool use_secondary_loggers = true;

    /// Let receivers discover their logger via expanding-ring multicast
    /// instead of static configuration (Section 2.2.1).
    bool discover_loggers = false;

    /// Re-multicast threshold for every logger: requests for one packet
    /// within a window before a repair is multicast instead of unicast.
    /// Overrides logger_defaults.remulticast_request_threshold.
    std::uint32_t remulticast_request_threshold = 3;

    /// Section 7 extension: heartbeats repeat the last (small) data packet.
    bool heartbeat_carries_small_data = false;

    /// Section 7 extension: recover via a dedicated retransmission channel
    /// (group id `group.value() + 1`) instead of NACKs.
    bool use_retrans_channel = false;
    std::uint32_t retrans_channel_copies = 3;
    Duration retrans_channel_first_delay = millis(40);

    /// Section 2.2.1 alternative: instead of one dedicated secondary per
    /// site, every receiver host doubles as a secondary logger and receivers
    /// rotate their NACK target among them each
    /// `receiver_defaults.rotation_slot`.
    bool rotate_site_loggers = false;

    /// Section 7 extension: when the topology has a regional tier
    /// (topology.sites_per_region > 0), run a logging server per region:
    /// site secondaries fetch from their regional logger, which fetches
    /// from the primary -- a three-level hierarchy.
    bool use_regional_loggers = false;

    /// Memory diet (DESIGN.md "Memory engineering"): attach receivers as
    /// dormant ~48-byte records that materialise into full ReceiverCores on
    /// their first group packet.  Bit-identical to eager cores (the wake
    /// rules live in ProtocolHost::add_dormant_receiver; memory_diet_test
    /// A/Bs the two modes) but requires statically configured loggers, so
    /// the flag is ignored when discover_loggers or rotate_site_loggers is
    /// set.
    bool dormant_receivers = false;

    /// 0 = every receiver joins the multicast group (the default).  N > 0 =
    /// only the first N receivers of each site join; the rest are wired and
    /// reachable but never see group traffic (interest management: a
    /// 10M-entity battlefield has few *subscribed* entities per site).
    /// CHANGES TRAFFIC -- scale benches only, never A/B comparisons.
    std::uint32_t active_receivers_per_site = 0;

    /// Timing knobs every receiver starts from (NACK delays, the MaxIT
    /// freshness bound max_idle, rotation_slot ...).  The scenario fills in
    /// identities, loggers, channels and the heartbeat schedule.
    ReceiverConfig receiver_defaults;
    /// Retention and fetch timing every logger starts from; the scenario
    /// fills in identities and roles, and overrides initial_seq and
    /// remulticast_request_threshold with the fields above.
    LoggerConfig logger_defaults;

    /// Sharded execution (DESIGN.md "Sharded execution"): when non-empty,
    /// site_shard[s] names the shard that owns site s's nodes; the
    /// source/primary/replica complex and the backbone hub follow site 0's
    /// shard, and a region's router + logger follow the region's first
    /// site.  This scenario instance then wires protocol hosts only for
    /// nodes owned by `shard_self` -- topology, routing and group
    /// membership stay global so every shard resolves identical routes and
    /// delivery trees.  Empty = the ordinary single-domain scenario.
    std::vector<std::uint32_t> site_shard;
    std::uint32_t shard_self = 0;
};

class DisScenario {
public:
    explicit DisScenario(ScenarioConfig config);

    DisScenario(const DisScenario&) = delete;
    DisScenario& operator=(const DisScenario&) = delete;

    /// Start every endpoint at the current simulation time.
    void start();

    /// Multicast one application payload from the source.
    void send_update(std::vector<std::uint8_t> payload);
    /// Convenience: send a `size`-byte patterned payload.
    void send_update(std::size_t size);
    /// Pre-schedule a patterned send at absolute time `at`.  Sharded runs
    /// need the workload inside the event stream (a send must execute on
    /// the source's shard, inside its window, with a key identical to the
    /// single-process run's); a no-op on shards that do not own the source.
    void schedule_update(TimePoint at, std::size_t size);
    /// Same, with an explicit payload (workload engines render payloads as
    /// pure functions of their items, so re-paced and pre-scheduled runs
    /// put identical bytes on the wire).
    void schedule_update(TimePoint at, std::vector<std::uint8_t> payload);

    void run_for(Duration d) { simulator_.run_for(d); }
    void run_until(TimePoint t) { simulator_.run_until(t); }

    [[nodiscard]] Simulator& simulator() { return simulator_; }
    [[nodiscard]] Network& network() { return network_; }
    [[nodiscard]] const DisTopology& topology() const { return topology_; }
    [[nodiscard]] const ScenarioConfig& config() const { return config_; }

    // --- telemetry -------------------------------------------------------
    /// The network's metrics registry ("sim.*", "proto.*", "host.*" rows).
    [[nodiscard]] obs::Metrics& metrics() { return network_.metrics(); }
    /// The time-series sampler driven by start_sampling(); empty until then.
    [[nodiscard]] obs::Sampler& sampler() { return sampler_; }

    /// Sample the default protocol-health series (delivered / heartbeats /
    /// NACKs / retransmits / drops...) every `interval` of sim time via a
    /// self-rescheduling simulator event.  The sampler only *reads*
    /// counters, and its tick events interleave with protocol events
    /// without reordering them, so sampling never changes simulation
    /// results (telemetry_test asserts this).  Idempotent restart: calling
    /// again just changes the interval.
    void start_sampling(Duration interval);
    void stop_sampling();

    [[nodiscard]] SenderCore& sender();
    [[nodiscard]] LoggerCore& primary_logger() { return *primary_core_; }
    [[nodiscard]] LoggerCore& secondary_logger(std::size_t site);
    /// The receiver core on `node`.  Under dormant_receivers this wakes the
    /// core if it is still dormant (a pure materialisation -- no actions
    /// run, the simulation is unaffected).
    [[nodiscard]] ReceiverCore& receiver(NodeId node);
    /// Receivers attached dormant and not yet woken (0 in eager mode).
    [[nodiscard]] std::size_t dormant_receiver_count() const;
    /// The retransmission-channel group id (valid when enabled).
    [[nodiscard]] GroupId retrans_group() const {
        return GroupId{config_.group.value() + 1};
    }

    // --- sharding --------------------------------------------------------
    /// Whether this scenario instance wires (and simulates) `node`: the
    /// network's shard view, which the constructor derives from
    /// ScenarioConfig::site_shard.
    [[nodiscard]] bool owns(NodeId node) const {
        return network_.owns_node(node.value() - 1);
    }

    // --- added observers -------------------------------------------------
    /// Report every event to `observer` too, after the configured observer
    /// and every observer added before it (the chaos and workload engines
    /// attach here, so any number of them compose).  Not owned: remove it
    /// before it dies.  Neither call may be made from inside a report.
    void add_observer(ScenarioObserver* observer);
    void remove_observer(ScenarioObserver* observer);

    // --- recorded observations -------------------------------------------
    // Record types live in observer.hpp; the aliases keep existing
    // `DisScenario::DeliveryRecord` spellings working.
    using DeliveryRecord = sim::DeliveryRecord;
    using NoticeRecord = sim::NoticeRecord;
    using SendRecord = sim::SendRecord;

    /// The observer events are reported to (default or user-installed).
    [[nodiscard]] ScenarioObserver& observer() { return *observer_; }

    /// Keep `obj` alive for the scenario's lifetime, destroyed *before* the
    /// scenario's own members (simulator, network, metrics).  Lets a driver
    /// layer (e.g. workload::WorkloadEngine) that adds an observer and pull
    /// gauges against this scenario be owned by it -- required inside
    /// ShardRunConfig::setup, where nothing else outlives the run.
    void retain(std::shared_ptr<void> obj) { retained_.push_back(std::move(obj)); }

    // Record accessors: require the default RecordingObserver (they throw
    // std::logic_error under a custom observer -- the records don't exist).
    [[nodiscard]] const std::vector<DeliveryRecord>& deliveries() const;
    [[nodiscard]] const std::vector<NoticeRecord>& notices() const;
    [[nodiscard]] const std::vector<SendRecord>& sends() const;

    /// Deliveries of `seq`, keyed by receiver node.
    [[nodiscard]] std::map<NodeId, TimePoint> delivery_times(SeqNum seq) const;
    /// When `seq` was multicast by the source.
    [[nodiscard]] std::optional<TimePoint> sent_at(SeqNum seq) const;
    [[nodiscard]] std::size_t notice_count(NoticeKind kind) const;

    void clear_records();

private:
    void wire_source();
    void wire_site(const DisTopology::Site& site, std::size_t site_index);
    void wire_region(const DisTopology::Region& region, std::size_t region_index);
    [[nodiscard]] const RecordingObserver& recorder() const;

    ScenarioConfig config_;
    Simulator simulator_;
    Network network_;
    std::shared_ptr<ScenarioObserver> observer_;
    RecordingObserver* recorder_;  ///< observer_ when it records; else null
    DisTopology topology_;

    SenderCore* sender_core_ = nullptr;
    LoggerCore* primary_core_ = nullptr;
    std::vector<LoggerCore*> secondary_cores_;
    std::vector<SimHost*> hosts_;
    SharedHandlers handlers_;  ///< the one handler object every core reports through
    /// The one receiver blueprint: dormant receivers attach with it, and
    /// eager ones share its config (rotation builds one per site) and its
    /// handlers.
    std::shared_ptr<const ProtocolHost::DormantReceiverTemplate> receiver_template_;
    bool dormant_attached_ = false;  ///< start() schedules the watchdog sweep

    /// Every event goes to observer_ first, then to each of these in order.
    void report_delivery(TimePoint at, NodeId node, const DeliverData& data);
    void report_notice(TimePoint at, NodeId node, const Notice& notice);
    void report_send(TimePoint at, SeqNum seq);
    std::vector<ScenarioObserver*> added_observers_;

    void schedule_sample_tick();
    obs::Sampler sampler_;           ///< initialised over network_.metrics()
    Duration sample_interval_{};     ///< zero = sampling off
    std::uint64_t sample_epoch_ = 0; ///< invalidates in-flight tick events
    bool sample_series_added_ = false;

    /// Declared last so retained objects are destroyed first, while the
    /// members their observers/gauges reference are still alive (see
    /// retain()).
    std::vector<std::shared_ptr<void>> retained_;
};

}  // namespace lbrm::sim
