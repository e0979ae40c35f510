// Helper wiring a wb/SRM-style deployment (baseline) onto the DIS topology
// for the Section 6 comparison benches: one SrmSenderCore at the source and
// one SrmMemberCore per receiver, all repairs flowing over global multicast.
#pragma once

#include <map>
#include <vector>

#include "baseline/srm.hpp"
#include "sim/network.hpp"
#include "sim/sim_host.hpp"
#include "sim/topology.hpp"

namespace lbrm::bench {

struct SrmDeployment {
    GroupId group{1};
    baseline::SrmSenderCore* sender = nullptr;
    std::map<NodeId, baseline::SrmMemberCore*> members;

    struct DeliveryRecord {
        NodeId node;
        SeqNum seq;
        TimePoint at{};
        bool recovered = false;
    };
    struct LossRecord {
        NodeId node;
        SeqNum seq;
        TimePoint at{};
    };
    std::vector<DeliveryRecord> deliveries;
    std::vector<LossRecord> losses;

    sim::Network* net = nullptr;
    NodeId source;

    /// Multicast one payload from the source through the network.
    void send(sim::Simulator& simulator, std::vector<std::uint8_t> payload) {
        Actions actions = sender->send(simulator.now(), std::move(payload));
        net->host(source)->protocol().inject(simulator.now(), *sender,
                                             std::move(actions));
    }
};

/// Attach SRM cores to every receiver in `topo` (no loggers involved).
/// Returned by unique_ptr: the app handlers capture the deployment's
/// address, so it must stay put for the network's lifetime.
inline std::unique_ptr<SrmDeployment> make_srm_deployment(
    sim::Network& net, const sim::DisTopology& topo, Duration rtt_to_source,
    Duration session_interval = secs(0.25), std::uint64_t seed = 1) {
    auto deployment = std::make_unique<SrmDeployment>();
    SrmDeployment& d = *deployment;
    d.net = &net;
    d.source = topo.source;

    baseline::SrmConfig base;
    base.group = d.group;
    base.source = topo.source;
    base.rtt_to_source = rtt_to_source;
    base.session_interval = session_interval;

    baseline::SrmConfig sender_config = base;
    sender_config.self = topo.source;
    auto& source_host = net.attach_host(topo.source);
    d.sender = dynamic_cast<baseline::SrmSenderCore*>(&source_host.protocol().add_core(
        std::make_unique<baseline::SrmSenderCore>(sender_config, seed)));
    net.join(d.group, topo.source);

    auto handlers = std::make_shared<AppHandlers>();
    SrmDeployment* dp = &d;
    handlers->on_data = [dp, &net](TimePoint, NodeId r, const DeliverData& data) {
        dp->deliveries.push_back({r, data.seq, net.simulator().now(), data.recovered});
    };
    handlers->on_notice = [dp, &net](TimePoint, NodeId r, const Notice& n) {
        if (n.kind == NoticeKind::kLossDetected)
            dp->losses.push_back({r, SeqNum{static_cast<std::uint32_t>(n.arg)},
                                  net.simulator().now()});
    };
    for (NodeId r : topo.all_receivers()) {
        baseline::SrmConfig member_config = base;
        member_config.self = r;
        auto& host = net.attach_host(r);
        d.members[r] = dynamic_cast<baseline::SrmMemberCore*>(&host.protocol().add_core(
            std::make_unique<baseline::SrmMemberCore>(member_config, seed * 7919 + r.value()),
            handlers));
        net.join(d.group, r);
    }

    source_host.protocol().start(net.simulator().now());
    for (NodeId r : topo.all_receivers())
        net.host(r)->protocol().start(net.simulator().now());

    return deployment;
}

}  // namespace lbrm::bench
