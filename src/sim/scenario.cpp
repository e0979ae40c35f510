#include "sim/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbrm::sim {

namespace {

/// `defaults` (which carry the group, its source and the stream anchor) as
/// the `role` logger on `self`, fetching from `upstream`.
LoggerConfig logger_config(const LoggerConfig& defaults, NodeId self, LoggerRole role,
                           NodeId upstream) {
    LoggerConfig config = defaults;
    config.self = self;
    config.role = role;
    config.upstream = upstream;
    return config;
}

}  // namespace

DisScenario::DisScenario(ScenarioConfig config)
    : config_(std::move(config)), simulator_(),
      network_(simulator_, config_.seed, config_.sim),
      observer_(config_.observer ? config_.observer
                                 : std::make_shared<RecordingObserver>()),
      recorder_(dynamic_cast<RecordingObserver*>(observer_.get())),
      topology_(make_dis_topology(network_, config_.topology)),
      sampler_(network_.metrics()) {
    network_.finalize();
    // Every logger copy made below inherits the group, its source, the
    // stream's sequence anchor and the re-multicast threshold, whatever
    // role it plays.
    config_.logger_defaults.group = config_.group;
    config_.logger_defaults.source = topology_.source;
    config_.logger_defaults.initial_seq = config_.initial_seq;
    config_.logger_defaults.remulticast_request_threshold =
        config_.remulticast_request_threshold;

    if (!config_.site_shard.empty()) {
        if (config_.site_shard.size() != topology_.sites.size())
            throw std::invalid_argument("scenario: site_shard size != site count");
        if (config_.shard_self >=
            *std::max_element(config_.site_shard.begin(), config_.site_shard.end()) + 1)
            throw std::invalid_argument("scenario: shard_self outside the plan");
        // Node -> shard: the source/primary/replica complex and the
        // backbone hub ride with site 0; regional routers/loggers ride with
        // their region's first site.  Everything else is per-site.
        std::vector<std::uint32_t> node_shard(network_.node_count(), config_.site_shard[0]);
        auto assign = [&node_shard](NodeId n, std::uint32_t shard) {
            node_shard[n.value() - 1] = shard;
        };
        for (std::size_t s = 0; s < topology_.sites.size(); ++s) {
            const std::uint32_t shard = config_.site_shard[s];
            const DisTopology::Site& site = topology_.sites[s];
            assign(site.router, shard);
            if (site.secondary != kNoNode) assign(site.secondary, shard);
            for (NodeId r : site.receivers) assign(r, shard);
        }
        for (const DisTopology::Region& region : topology_.regions) {
            const std::uint32_t shard =
                config_.site_shard[region.site_indices.front()];
            assign(region.router, shard);
            assign(region.logger, shard);
        }
        network_.set_shard_view(config_.shard_self, std::move(node_shard), nullptr);
    }

    secondary_cores_.reserve(config_.topology.sites);

    // One handler object serves every core (each call names the core that
    // reports).  One blueprint serves every receiver: receiver_defaults with
    // the group, source, heartbeat and retransmission channel filled in;
    // the ids are per receiver.
    auto handlers = std::make_shared<AppHandlers>();
    handlers->on_data = [this](TimePoint at, NodeId self, const DeliverData& d) {
        report_delivery(at, self, d);
    };
    handlers->on_notice = [this](TimePoint at, NodeId self, const Notice& n) {
        report_notice(at, self, n);
    };
    auto blueprint = std::make_shared<ProtocolHost::DormantReceiverTemplate>();
    blueprint->config = config_.receiver_defaults;
    blueprint->config.group = config_.group;
    blueprint->config.source = topology_.source;
    blueprint->config.heartbeat = config_.heartbeat;
    if (config_.use_retrans_channel) blueprint->config.retrans_channel = retrans_group();
    blueprint->handlers = handlers_ = std::move(handlers);
    receiver_template_ = std::move(blueprint);

    wire_source();
    if (config_.use_regional_loggers)
        for (std::size_t r = 0; r < topology_.regions.size(); ++r)
            wire_region(topology_.regions[r], r);
    for (std::size_t s = 0; s < topology_.sites.size(); ++s)
        wire_site(topology_.sites[s], s);
}

void DisScenario::wire_region(const DisTopology::Region& region, std::size_t region_index) {
    network_.join(config_.group, region.logger);
    if (!owns(region.logger)) return;
    SimHost& host = network_.attach_host(region.logger);

    // The recursion: the same role as a site secondary, one tier higher.
    LoggerConfig regional = logger_config(config_.logger_defaults, region.logger,
                                          LoggerRole::kSecondary, topology_.primary);
    regional.participate_in_acking = false;  // site secondaries handle acking
    // Its clients are site secondaries at other sites: repairs must unicast.
    regional.site_multicast_repairs = false;
    host.protocol().add_logger(std::move(regional), config_.seed * 433 + region_index,
                               handlers_);
}

void DisScenario::wire_source() {
    const GroupId group = config_.group;

    // Ownership guards (sharded runs): hosts wire only on the owning
    // shard, but group joins are unconditional -- membership shapes the
    // delivery trees every shard must agree on.
    // --- sender -----------------------------------------------------------
    if (owns(topology_.source)) {
        SimHost& source_host = network_.attach_host(topology_.source);

        SenderConfig sender_config;
        sender_config.self = topology_.source;
        sender_config.group = group;
        sender_config.primary_logger = topology_.primary;
        sender_config.replicas = topology_.replicas;
        sender_config.heartbeat = config_.heartbeat;
        sender_config.stat_ack = config_.stat_ack;
        sender_config.flow_control = config_.flow_control;
        sender_config.initial_seq = config_.initial_seq;
        sender_config.heartbeat_carries_small_data = config_.heartbeat_carries_small_data;
        if (config_.use_retrans_channel) {
            sender_config.retrans_channel = retrans_group();
            sender_config.retrans_channel_copies = config_.retrans_channel_copies;
            sender_config.retrans_channel_first_delay = config_.retrans_channel_first_delay;
        }
        sender_core_ = &source_host.protocol().add_sender(std::move(sender_config), handlers_);
    }

    // --- primary logger -----------------------------------------------------
    if (owns(topology_.primary)) {
        SimHost& primary_host = network_.attach_host(topology_.primary);

        LoggerConfig primary_config = logger_config(config_.logger_defaults, topology_.primary,
                                                    LoggerRole::kPrimary, kNoNode);
        primary_config.replicas = topology_.replicas;
        primary_core_ = &primary_host.protocol().add_logger(
            std::move(primary_config), config_.seed * 7919 + 1, handlers_);
    }
    // The primary listens to the group stream too (it is reachable by
    // multicast), but its log authority comes from LogStore handoff.
    network_.join(group, topology_.primary);

    // --- replicas -------------------------------------------------------------
    std::uint64_t salt = 101;
    for (NodeId replica : topology_.replicas) {
        const std::uint64_t replica_salt = salt++;
        if (!owns(replica)) continue;
        SimHost& host = network_.attach_host(replica);

        host.protocol().add_logger(logger_config(config_.logger_defaults, replica,
                                                 LoggerRole::kReplica, topology_.primary),
                                   config_.seed * 104729 + replica_salt, handlers_);
    }
}

void DisScenario::wire_site(const DisTopology::Site& site, std::size_t site_index) {
    const GroupId group = config_.group;
    const SiteLogging mode = config_.site_logging;

    // Every mode but the centralized one runs the site's dedicated
    // secondary; rotation keeps it as the receivers' configured logger.
    const NodeId local_logger = mode != SiteLogging::kCentralized ? site.secondary : kNoNode;
    LoggerCore* secondary = nullptr;  // stays null on another shard's site
    if (local_logger != kNoNode) {
        network_.join(group, local_logger);
        if (owns(local_logger)) {
            SimHost& host = network_.attach_host(local_logger);

            NodeId upstream = topology_.primary;
            if (config_.use_regional_loggers) {
                // Three-level hierarchy: the site fetches from its region.
                if (const auto* region = topology_.region_of_site(site_index))
                    upstream = region->logger;
            }
            secondary = &host.protocol().add_logger(
                logger_config(config_.logger_defaults, local_logger, LoggerRole::kSecondary,
                              upstream),
                config_.seed * 31 + site_index, handlers_);
        }
    }
    secondary_cores_.push_back(secondary);

    // Eager receivers share the blueprint's config and NACK the site logger,
    // or the primary when there is none.  Dormancy needs that logger known
    // at attach time, so the modes that find or rotate it run live cores.
    std::shared_ptr<const ReceiverConfig> policy(receiver_template_,
                                                 &receiver_template_->config);
    NodeId receiver_logger = local_logger != kNoNode ? local_logger : topology_.primary;
    bool dormant_mode = config_.dormant_receivers;
    switch (mode) {
        case SiteLogging::kDedicated:
        case SiteLogging::kCentralized:
            break;
        case SiteLogging::kDiscovered:
            // Discovery finds a logger by multicasting probes at start().
            receiver_logger = kNoNode;
            dormant_mode = false;
            break;
        case SiteLogging::kRotating: {
            // The site's receivers share one policy that lists the site's
            // rotating loggers, each run beside a receiver below.
            ReceiverConfig site_policy = receiver_template_->config;
            site_policy.rotating_loggers = site.receivers;
            policy = std::make_shared<const ReceiverConfig>(std::move(site_policy));
            dormant_mode = false;
            break;
        }
    }
    std::uint32_t receiver_index = 0;
    for (NodeId node : site.receivers) {
        const bool joins_group =
            config_.active_receivers_per_site == 0 ||
            receiver_index < config_.active_receivers_per_site;
        ++receiver_index;

        if (!owns(node)) {
            if (joins_group) network_.join(group, node);
            continue;
        }
        if (dormant_mode) {
            // No host until a packet wakes it, and no armed timer: one
            // sweep event serves every dormant receiver's watchdog.
            network_.add_dormant_receiver(node, {receiver_template_, receiver_logger,
                                                 topology_.primary});
            if (joins_group) network_.join(group, node);
            continue;
        }

        SimHost& host = network_.attach_host(node);
        host.protocol().add_receiver(policy, node, receiver_logger, topology_.primary,
                                     handlers_);
        if (mode == SiteLogging::kRotating) {
            // Rotating-logger mode (Section 2.2.1 alternative): this host
            // also runs a secondary logger that passively logs the stream
            // and serves NACKs whenever the rotation points here.  Attached
            // after the receiver, so the receiver sees each packet first.
            LoggerConfig rotating = logger_config(config_.logger_defaults, node,
                                                  LoggerRole::kSecondary, topology_.primary);
            rotating.participate_in_acking = false;  // dedicated loggers ack
            rotating.answer_discovery = false;
            host.protocol().add_logger(std::move(rotating),
                                       config_.seed * 57 + node.value(), handlers_);
        }
        if (joins_group) network_.join(group, node);
    }
}

void DisScenario::start() {
    const TimePoint now = simulator_.now();
    // One template, hence one idle deadline and one sweep (in the order
    // eager cores' idle timers fire); first, so later wakes count as started.
    network_.start_dormant(now);
    for (SimHost& host : network_.hosts()) {
        // Each host's startup (timer arms, probe sends) is keyed to the
        // host itself -- scenario-level iteration order must not leak into
        // event keys, or per-shard host subsets would diverge.
        Simulator::ActorScope scope(
            simulator_, static_cast<std::uint32_t>(host.id().value() - 1));
        host.protocol().start(now);
    }
}

void DisScenario::send_update(std::vector<std::uint8_t> payload) {
    SimHost* host = network_.host(topology_.source);
    if (host == nullptr)
        throw std::logic_error("scenario: this shard does not own the source");
    Simulator::ActorScope scope(
        simulator_, static_cast<std::uint32_t>(topology_.source.value() - 1));
    const TimePoint now = simulator_.now();
    host->protocol().inject(now, *sender_core_, sender_core_->send(now, payload));
    ++updates_sent_;
    report_send(now, sender_core_->last_seq());
}

void DisScenario::schedule_update(TimePoint at, std::size_t size) {
    if (!owns(topology_.source)) return;  // executes on the source's shard only
    Simulator::ActorScope scope(simulator_, Simulator::kScenarioActor);
    simulator_.schedule_at(at, [this, size] { send_update(size); });
}

void DisScenario::schedule_update(TimePoint at, std::vector<std::uint8_t> payload) {
    if (!owns(topology_.source)) return;  // executes on the source's shard only
    Simulator::ActorScope scope(simulator_, Simulator::kScenarioActor);
    simulator_.schedule_at(at, [this, payload = std::move(payload)]() mutable {
        send_update(std::move(payload));
    });
}

void DisScenario::send_update(std::size_t size) {
    // Salted by the scenario's own count, so the bytes do not depend on
    // which observer is installed.
    std::vector<std::uint8_t> payload(size);
    const std::uint64_t salt = updates_sent_;
    for (std::size_t i = 0; i < size; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31 + salt);
    send_update(std::move(payload));
}

SenderCore& DisScenario::sender() {
    if (sender_core_ == nullptr) throw std::logic_error("scenario: no sender");
    return *sender_core_;
}

LoggerCore& DisScenario::secondary_logger(std::size_t site) {
    LoggerCore* core = secondary_cores_.at(site);
    if (core == nullptr) throw std::logic_error("scenario: site has no secondary logger");
    return *core;
}

ReceiverCore& DisScenario::receiver(NodeId node) {
    // The node's host answers, attached and woken first for a dormant one.
    if (SimHost* host = network_.dormant(node) ? &network_.wake(node) : network_.host(node))
        if (ReceiverCore* core = host->protocol().receiver_for(node)) return *core;
    throw std::logic_error("scenario: unknown receiver");
}

std::size_t DisScenario::dormant_receiver_count() const { return network_.dormant_count(); }

const RecordingObserver& DisScenario::recorder() const {
    if (recorder_ == nullptr)
        throw std::logic_error(
            "scenario: record accessors need the default RecordingObserver");
    return *recorder_;
}

const std::vector<DeliveryRecord>& DisScenario::deliveries() const {
    return recorder().deliveries();
}

const std::vector<NoticeRecord>& DisScenario::notices() const {
    return recorder().notices();
}

const std::vector<SendRecord>& DisScenario::sends() const { return recorder().sends(); }

std::map<NodeId, TimePoint> DisScenario::delivery_times(SeqNum seq) const {
    std::map<NodeId, TimePoint> out;
    for (const DeliveryRecord& d : recorder().deliveries())
        if (d.seq == seq && !out.contains(d.node)) out.emplace(d.node, d.at);
    return out;
}

std::optional<TimePoint> DisScenario::sent_at(SeqNum seq) const {
    for (const SendRecord& s : recorder().sends())
        if (s.seq == seq) return s.at;
    return std::nullopt;
}

std::size_t DisScenario::notice_count(NoticeKind kind) const {
    std::size_t n = 0;
    for (const NoticeRecord& r : recorder().notices())
        if (r.kind == kind) ++n;
    return n;
}

void DisScenario::start_sampling(Duration interval) {
    if (interval <= Duration::zero())
        throw std::invalid_argument("scenario: sampling interval must be positive");
    if (!sample_series_added_) {
        sample_series_added_ = true;
        // The paper's health curves: delivered pps (Figure 8), heartbeat
        // bandwidth (Figure 4), NACK/repair rate (Figure 5)...
        sampler_.add_rate("proto.receiver.delivered");
        sampler_.add_rate("proto.receiver.nacks_sent");
        sampler_.add_rate("proto.sender.data_sent");
        sampler_.add_rate("proto.sender.heartbeats_sent");
        sampler_.add_rate("proto.logger.served_unicast");
        sampler_.add_rate("proto.logger.served_multicast");
        sampler_.add_level("proto.sender.flow.spacing_us");
        sampler_.add_rate("proto.sender.flow.slowdowns");
        sampler_.add_rate("proto.sender.flow.cleared");
        sampler_.add_rate("host.send.HEARTBEAT");
        sampler_.add_rate("host.send.NACK");
        sampler_.add_rate("recovery.episodes_opened");
        sampler_.add_rate("recovery.episodes_repaired");
        sampler_.add_rate("recovery.episodes_abandoned");
        sampler_.add_rate("recovery.escalations");
        sampler_.add_rate("recovery.cold_restarts");
        sampler_.add_level("recovery.episodes_open");
        sampler_.add_rate("sim.deliveries");
        sampler_.add_rate("sim.drops_loss");
        sampler_.add_rate("sim.drops_queue");
        sampler_.add_level("sim.queue_pending");
    }
    // Bump the epoch so a tick already in the queue becomes a no-op instead
    // of a second competing rescheduling chain.
    ++sample_epoch_;
    sample_interval_ = interval;
    sampler_.set_interval(interval);
    schedule_sample_tick();
}

void DisScenario::stop_sampling() {
    ++sample_epoch_;  // orphan the in-flight tick event
    sample_interval_ = Duration::zero();
}

void DisScenario::schedule_sample_tick() {
    // Sampler ticks are scenario machinery: keyed to the reserved sampler
    // actor so per-shard sampling can never skew protocol event keys.
    Simulator::ActorScope scope(simulator_, Simulator::kSamplerActor);
    simulator_.schedule_in(
        sample_interval_, [this, epoch = sample_epoch_] {
            if (epoch != sample_epoch_) return;  // stopped or restarted
            sampler_.tick(simulator_.now());
            schedule_sample_tick();
        });
}

void DisScenario::clear_records() { observer_->clear(); }

void DisScenario::add_observer(ScenarioObserver* observer) {
    added_observers_.push_back(observer);
}

void DisScenario::remove_observer(ScenarioObserver* observer) {
    std::erase(added_observers_, observer);
}

void DisScenario::report_delivery(TimePoint at, NodeId node, const DeliverData& data) {
    observer_->on_delivery(at, node, data);
    for (ScenarioObserver* o : added_observers_) o->on_delivery(at, node, data);
}

void DisScenario::report_notice(TimePoint at, NodeId node, const Notice& notice) {
    observer_->on_notice(at, node, notice);
    for (ScenarioObserver* o : added_observers_) o->on_notice(at, node, notice);
}

void DisScenario::report_send(TimePoint at, SeqNum seq) {
    observer_->on_send(at, seq);
    for (ScenarioObserver* o : added_observers_) o->on_send(at, seq);
}

}  // namespace lbrm::sim
