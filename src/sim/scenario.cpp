#include "sim/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbrm::sim {

DisScenario::DisScenario(ScenarioConfig config)
    : config_(std::move(config)), simulator_(),
      network_(simulator_, config_.seed, config_.sim),
      observer_(config_.observer ? config_.observer
                                 : std::make_shared<RecordingObserver>()),
      recorder_(dynamic_cast<RecordingObserver*>(observer_.get())),
      topology_(make_dis_topology(network_, config_.topology)),
      sampler_(network_.metrics()) {
    network_.finalize();
    // Every logger copy made below inherits the stream's sequence anchor.
    config_.logger_defaults.initial_seq = config_.initial_seq;

    if (!config_.site_shard.empty()) {
        if (config_.site_shard.size() != topology_.sites.size())
            throw std::invalid_argument("scenario: site_shard size != site count");
        if (config_.shard_self >=
            *std::max_element(config_.site_shard.begin(), config_.site_shard.end()) + 1)
            throw std::invalid_argument("scenario: shard_self outside the plan");
        // Node -> shard: the source/primary/replica complex and the
        // backbone hub ride with site 0; regional routers/loggers ride with
        // their region's first site.  Everything else is per-site.
        node_shard_.assign(network_.node_count(), config_.site_shard[0]);
        auto assign = [this](NodeId n, std::uint32_t shard) {
            node_shard_[n.value() - 1] = shard;
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
        network_.set_shard_view(config_.shard_self, node_shard_, nullptr);
    }

    const DisTopologySize size = dis_topology_size(config_.topology);
    hosts_.reserve(size.hosts);
    // Dormant mode keeps receiver_cores_ empty (receiver() wakes on demand
    // through ProtocolHost): at 10M nodes the eager index alone would be
    // 160 MB.
    if (!config_.dormant_receivers)
        receiver_cores_.reserve(static_cast<std::size_t>(config_.topology.sites) *
                                config_.topology.receivers_per_site);
    secondary_cores_.reserve(config_.topology.sites);

    wire_source();
    if (config_.use_regional_loggers)
        for (std::size_t r = 0; r < topology_.regions.size(); ++r)
            wire_region(topology_.regions[r], r);
    for (std::size_t s = 0; s < topology_.sites.size(); ++s)
        wire_site(topology_.sites[s], s);
    // Wiring pushes receivers in ascending node order already; sort anyway
    // so receiver() can binary-search unconditionally.
    std::sort(receiver_cores_.begin(), receiver_cores_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
}

void DisScenario::wire_region(const DisTopology::Region& region, std::size_t region_index) {
    network_.join(config_.group, region.logger);
    if (!owns(region.logger)) {
        regional_cores_.push_back(nullptr);  // keep region indexing aligned
        return;
    }
    SimHost& host = network_.attach_host(region.logger);
    hosts_.push_back(&host);

    LoggerConfig logger_config = config_.logger_defaults;
    logger_config.self = region.logger;
    logger_config.group = config_.group;
    logger_config.source = topology_.source;
    logger_config.role = LoggerRole::kSecondary;  // the recursion: same role, higher tier
    logger_config.upstream = topology_.primary;
    logger_config.participate_in_acking = false;  // site secondaries handle acking
    // Its clients are site secondaries at other sites: repairs must unicast.
    logger_config.site_multicast_repairs = false;

    AppHandlers handlers;
    const NodeId id = region.logger;
    handlers.on_notice = [this, id](TimePoint at, const Notice& n) {
        report_notice(at, id, n);
    };
    regional_cores_.push_back(&host.protocol().add_logger(
        std::move(logger_config), config_.seed * 433 + region_index, handlers));
}

void DisScenario::wire_source() {
    const GroupId group = config_.group;

    // Ownership guards (sharded runs): hosts wire only on the owning
    // shard, but group joins are unconditional -- membership shapes the
    // delivery trees every shard must agree on.
    // --- sender -----------------------------------------------------------
    if (owns(topology_.source)) {
        SimHost& source_host = network_.attach_host(topology_.source);
        hosts_.push_back(&source_host);

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

        AppHandlers sender_handlers;
        sender_handlers.on_notice = [this, id = topology_.source](TimePoint at,
                                                                  const Notice& n) {
            report_notice(at, id, n);
        };
        sender_core_ =
            &source_host.protocol().add_sender(std::move(sender_config), sender_handlers);
    }

    // --- primary logger -----------------------------------------------------
    if (owns(topology_.primary)) {
        SimHost& primary_host = network_.attach_host(topology_.primary);
        hosts_.push_back(&primary_host);

        LoggerConfig primary_config = config_.logger_defaults;
        primary_config.self = topology_.primary;
        primary_config.group = group;
        primary_config.source = topology_.source;
        primary_config.role = LoggerRole::kPrimary;
        primary_config.upstream = kNoNode;
        primary_config.replicas = topology_.replicas;
        primary_config.remulticast_request_threshold = config_.remulticast_request_threshold;

        AppHandlers primary_handlers;
        primary_handlers.on_notice = [this, id = topology_.primary](TimePoint at,
                                                                   const Notice& n) {
            report_notice(at, id, n);
        };
        primary_core_ = &primary_host.protocol().add_logger(std::move(primary_config),
                                                            config_.seed * 7919 + 1,
                                                            primary_handlers);
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
        hosts_.push_back(&host);

        LoggerConfig replica_config = config_.logger_defaults;
        replica_config.self = replica;
        replica_config.group = group;
        replica_config.source = topology_.source;
        replica_config.role = LoggerRole::kReplica;
        replica_config.upstream = topology_.primary;

        AppHandlers handlers;
        handlers.on_notice = [this, replica](TimePoint at, const Notice& n) {
            report_notice(at, replica, n);
        };
        host.protocol().add_logger(std::move(replica_config),
                                   config_.seed * 104729 + replica_salt, handlers);
    }
}

void DisScenario::wire_site(const DisTopology::Site& site, std::size_t site_index) {
    const GroupId group = config_.group;

    NodeId local_logger = kNoNode;
    if (config_.use_secondary_loggers && site.secondary != kNoNode) {
        network_.join(group, site.secondary);
        local_logger = site.secondary;
        if (owns(site.secondary)) {
            SimHost& host = network_.attach_host(site.secondary);
            hosts_.push_back(&host);

            LoggerConfig logger_config = config_.logger_defaults;
            logger_config.self = site.secondary;
            logger_config.group = group;
            logger_config.source = topology_.source;
            logger_config.role = LoggerRole::kSecondary;
            logger_config.upstream = topology_.primary;
            if (config_.use_regional_loggers) {
                // Three-level hierarchy: the site fetches from its region.
                if (const auto* region = topology_.region_of_site(site_index))
                    logger_config.upstream = region->logger;
            }
            logger_config.remulticast_request_threshold =
                config_.remulticast_request_threshold;

            AppHandlers handlers;
            const NodeId id = site.secondary;
            handlers.on_notice = [this, id](TimePoint at, const Notice& n) {
                report_notice(at, id, n);
            };
            secondary_cores_.push_back(&host.protocol().add_logger(
                std::move(logger_config), config_.seed * 31 + site_index, handlers));
        } else {
            secondary_cores_.push_back(nullptr);  // owned by another shard
        }
    } else {
        secondary_cores_.push_back(nullptr);
    }

    // Dormancy needs a statically known logger at attach time: discovery
    // would multicast probes at start() and rotation runs a co-located
    // logger core, so both fall back to eager wiring.
    const bool dormant_mode = config_.dormant_receivers &&
                              !config_.discover_loggers &&
                              !config_.rotate_site_loggers;
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
        SimHost& host = network_.attach_host(node);
        hosts_.push_back(&host);

        if (dormant_mode) {
            if (!dormant_template_) {
                auto tmpl = std::make_shared<ProtocolHost::DormantReceiverTemplate>();
                ReceiverConfig cfg = config_.receiver_defaults;
                cfg.group = group;
                cfg.source = topology_.source;
                cfg.max_idle = config_.max_idle;
                cfg.heartbeat = config_.heartbeat;
                if (config_.use_retrans_channel)
                    cfg.retrans_channel = retrans_group();
                tmpl->config = std::move(cfg);
                tmpl->make_handlers = [this](NodeId self) {
                    AppHandlers h;
                    h.on_data = [this, self](TimePoint at, const DeliverData& d) {
                        report_delivery(at, self, d);
                    };
                    h.on_notice = [this, self](TimePoint at, const Notice& n) {
                        report_notice(at, self, n);
                    };
                    return h;
                };
                dormant_template_ = std::move(tmpl);
            }
            // One shared watchdog deadline for every dormant receiver in
            // the scenario: start() schedules a single sweep event in place
            // of one armed timer per record (~100 B each at 10^7).
            host.protocol().add_dormant_receiver(
                dormant_template_, node,
                local_logger != kNoNode ? local_logger : topology_.primary,
                topology_.primary);
            if (joins_group) network_.join(group, node);
            continue;
        }

        if (config_.rotate_site_loggers) {
            // Rotating-logger mode (Section 2.2.1 alternative): this host
            // also runs a secondary logger that passively logs the stream
            // and serves NACKs whenever the rotation points here.
            LoggerConfig rotating = config_.logger_defaults;
            rotating.self = node;
            rotating.group = group;
            rotating.source = topology_.source;
            rotating.role = LoggerRole::kSecondary;
            rotating.upstream = topology_.primary;
            rotating.participate_in_acking = false;  // dedicated loggers ack
            rotating.answer_discovery = false;
            host.protocol().add_logger(std::move(rotating),
                                       config_.seed * 57 + node.value());
        }

        ReceiverConfig receiver_config = config_.receiver_defaults;
        receiver_config.self = node;
        receiver_config.group = group;
        receiver_config.source = topology_.source;
        receiver_config.max_idle = config_.max_idle;
        receiver_config.heartbeat = config_.heartbeat;
        if (config_.discover_loggers) {
            receiver_config.logger = kNoNode;
        } else {
            receiver_config.logger =
                local_logger != kNoNode ? local_logger : topology_.primary;
        }
        receiver_config.fallback_logger = topology_.primary;
        if (config_.rotate_site_loggers) {
            receiver_config.rotating_loggers = site.receivers;
            receiver_config.rotation_slot = config_.rotation_slot;
        }
        if (config_.use_retrans_channel) receiver_config.retrans_channel = retrans_group();

        AppHandlers handlers;
        handlers.on_data = [this, node](TimePoint at, const DeliverData& d) {
            report_delivery(at, node, d);
        };
        handlers.on_notice = [this, node](TimePoint at, const Notice& n) {
            report_notice(at, node, n);
        };
        receiver_cores_.emplace_back(
            node, &host.protocol().add_receiver(std::move(receiver_config), handlers));
        if (joins_group) network_.join(group, node);
    }
}

void DisScenario::start() {
    const TimePoint now = simulator_.now();
    for (SimHost* host : hosts_) {
        // Each host's startup (timer arms, probe sends) is keyed to the
        // host itself -- scenario-level iteration order must not leak into
        // event keys, or per-shard host subsets would diverge.
        Simulator::ActorScope scope(
            simulator_, static_cast<std::uint32_t>(host->id().value() - 1));
        host->protocol().start(now);
    }
    if (dormant_template_) {
        // Dormant idle watchdogs (see fire_dormant_watchdogs): every
        // dormant receiver shares one template, hence one deadline.  One
        // sweep event walks the hosts in start() order, which is exactly
        // the order eager cores' start()-armed idle timers fire in.  The sweep
        // is scenario machinery: it draws its key from the reserved sweep
        // actor, and everything a woken receiver schedules is keyed to
        // that receiver's own node.
        const TimePoint deadline =
            now + ReceiverCore::initial_idle_threshold(dormant_template_->config);
        Simulator::ActorScope sweep_scope(simulator_, Simulator::kSweepActor);
        simulator_.schedule_at(deadline, [this] {
            const TimePoint at = simulator_.now();
            for (SimHost* host : hosts_) {
                Simulator::ActorScope scope(
                    simulator_, static_cast<std::uint32_t>(host->id().value() - 1));
                host->protocol().fire_dormant_watchdogs(at);
            }
        });
    }
}

void DisScenario::send_update(std::vector<std::uint8_t> payload) {
    SimHost* host = network_.host(topology_.source);
    if (host == nullptr)
        throw std::logic_error("scenario: this shard does not own the source");
    Simulator::ActorScope scope(
        simulator_, static_cast<std::uint32_t>(topology_.source.value() - 1));
    host->protocol().send(simulator_.now(), payload);
    report_send(simulator_.now(), sender().last_seq());
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
    std::vector<std::uint8_t> payload(size);
    const std::size_t salt = recorder_ != nullptr ? recorder_->sends().size() : 0;
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

LoggerCore& DisScenario::regional_logger(std::size_t region) {
    return *regional_cores_.at(region);
}

ReceiverCore& DisScenario::receiver(NodeId node) {
    const auto it = std::lower_bound(
        receiver_cores_.begin(), receiver_cores_.end(), node,
        [](const auto& entry, NodeId id) { return entry.first < id; });
    if (it != receiver_cores_.end() && it->first == node) return *it->second;
    // Dormant mode keeps no eager index: ask the host, waking the core if
    // it has not materialised yet.
    if (SimHost* host = network_.host(node))
        if (ReceiverCore* core = host->protocol().receiver_for(node)) return *core;
    throw std::logic_error("scenario: unknown receiver");
}

std::size_t DisScenario::dormant_receiver_count() const {
    std::size_t n = 0;
    for (const SimHost* host : hosts_) n += host->protocol().dormant_count();
    return n;
}

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
        sampler_.add_rate("proto.receiver.recovered");
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
