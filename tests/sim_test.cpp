// Simulator substrate tests: event queue ordering/cancellation, link
// timing/queueing, loss models, routing, multicast trees, TTL scoping and
// traffic accounting.
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/scenario.hpp"
#include "sim/sim_host.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "tests/one_cable.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

using test::at;

// --- event queue -------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(at(3.0), [&] { order.push_back(3); });
    q.schedule(at(1.0), [&] { order.push_back(1); });
    q.schedule(at(2.0), [&] { order.push_back(2); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) q.schedule(at(1.0), [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop().fn();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelledEventsDoNotRun) {
    EventQueue q;
    bool ran = false;
    const auto id = q.schedule(at(1.0), [&] { ran = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsBoundedNoOp) {
    // Regression: cancelling an id whose event already fired used to park
    // the id in a cancelled-set forever.  Bookkeeping must be bounded by
    // peak concurrency, not by lifetime schedule/cancel counts.
    EventQueue q;
    for (int round = 0; round < 10000; ++round) {
        const auto id = q.schedule(at(static_cast<double>(round)), [] {});
        q.pop().fn();
        q.cancel(id);  // already fired: must be a no-op
        q.cancel(id);  // repeated cancel: still a no-op
    }
    EXPECT_TRUE(q.empty());
    EXPECT_LE(q.slab_slots(), 2u);
}

TEST(EventQueue, StaleCancelDoesNotHitRecycledSlot) {
    EventQueue q;
    const auto stale = q.schedule(at(1.0), [] {});
    q.pop().fn();  // fires; its slot is recycled
    bool ran = false;
    q.schedule(at(2.0), [&] { ran = true; });  // reuses the slot
    q.cancel(stale);  // id of the fired event: must not cancel the new one
    while (!q.empty()) q.pop().fn();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelInterleavedWithEqualTimestamps) {
    EventQueue q;
    std::vector<int> order;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(q.schedule(at(1.0), [&order, i] { order.push_back(i); }));
    q.cancel(ids[1]);
    q.cancel(ids[4]);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
}

TEST(Simulator, ClockAdvancesWithEvents) {
    Simulator sim;
    TimePoint seen{};
    sim.schedule_in(secs(5.0), [&] { seen = sim.now(); });
    sim.run_for(secs(10.0));
    EXPECT_EQ(seen, at(5.0));
    EXPECT_EQ(sim.now(), at(10.0));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator sim;
    int count = 0;
    sim.schedule_at(at(1.0), [&] { ++count; });
    sim.schedule_at(at(3.0), [&] { ++count; });
    sim.run_until(at(2.0));
    EXPECT_EQ(count, 1);
    sim.run_until(at(4.0));
    EXPECT_EQ(count, 2);
}

TEST(Simulator, PastSchedulingClampsToNow) {
    Simulator sim;
    sim.schedule_at(at(5.0), [] {});
    sim.run_for(secs(5.0));
    bool ran = false;
    sim.schedule_at(at(1.0), [&] { ran = true; });  // in the past
    sim.run_for(secs(0.1));
    EXPECT_TRUE(ran);
}

// --- link ---------------------------------------------------------------------

TEST(Link, PropagationOnlyForInfiniteBandwidth) {
    const std::uint64_t seed = 1;
    test::OneCable cable{LinkSpec{millis(10), 0.0, Duration::zero()}, seed};
    Link& link = cable.forward();
    auto arrival = link.transmit(at(1.0), 1000, PacketType::kData);
    ASSERT_TRUE(arrival.has_value());
    EXPECT_EQ(*arrival, at(1.0) + millis(10));
}

TEST(Link, SerializationDelayFromBandwidth) {
    // 1000 bytes at 1 Mb/s = 8 ms serialization + 1 ms propagation.
    const std::uint64_t seed = 1;
    test::OneCable cable{LinkSpec{millis(1), 1e6, Duration::zero()}, seed};
    Link& link = cable.forward();
    auto arrival = link.transmit(at(0.0), 1000, PacketType::kData);
    ASSERT_TRUE(arrival.has_value());
    EXPECT_EQ(*arrival, at(0.009));
}

TEST(Link, FifoQueueingAccumulates) {
    const std::uint64_t seed = 1;
    test::OneCable cable{LinkSpec{Duration::zero(), 1e6, Duration::zero()}, seed};
    Link& link = cable.forward();
    auto first = link.transmit(at(0.0), 1000, PacketType::kData);
    auto second = link.transmit(at(0.0), 1000, PacketType::kData);
    EXPECT_EQ(*first, at(0.008));
    EXPECT_EQ(*second, at(0.016));  // waited behind the first
}

TEST(Link, DropTailWhenQueueDelayExceeded) {
    const std::uint64_t seed = 1;
    test::OneCable cable{LinkSpec{Duration::zero(), 1e6, millis(10)}, seed};
    Link& link = cable.forward();
    // Each packet occupies 8 ms of line time; the third would wait 16 ms.
    EXPECT_TRUE(link.transmit(at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_TRUE(link.transmit(at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_FALSE(link.transmit(at(0.0), 1000, PacketType::kData).has_value());
    // Queue drops are counted network-wide; this network is one cable.
    EXPECT_EQ(cable.net.drop_breakdown().queue, 1u);
}

TEST(Link, StatsCountByType) {
    const std::uint64_t seed = 1;
    test::OneCable cable{LinkSpec{}, seed};
    Link& link = cable.forward();
    link.transmit(at(0.0), 100, PacketType::kData);
    link.transmit(at(0.1), 50, PacketType::kNack);
    link.transmit(at(0.2), 50, PacketType::kNack);
    EXPECT_EQ(link.stats().packets, 3u);
    // Bytes are counted network-wide; this network is one cable.
    EXPECT_EQ(cable.net.metrics().value("sim.link_bytes"), 200u);
    EXPECT_EQ(link.stats().packets_of(PacketType::kNack), 2u);
    EXPECT_EQ(link.stats().packets_of(PacketType::kData), 1u);
}

// --- loss models -----------------------------------------------------------------

TEST(LossModel, BernoulliRate) {
    BernoulliLoss loss{0.25};
    Rng rng{42};
    int drops = 0;
    for (int i = 0; i < 100000; ++i) drops += loss.drop(rng, at(0.0)) ? 1 : 0;
    EXPECT_NEAR(drops / 100000.0, 0.25, 0.01);
}

TEST(LossModel, BurstScheduleIsDeterministic) {
    BurstSchedule burst{{{at(1.0), at(2.0)}, {at(5.0), at(6.0)}}};
    Rng rng{1};
    EXPECT_FALSE(burst.drop(rng, at(0.5)));
    EXPECT_TRUE(burst.drop(rng, at(1.5)));
    EXPECT_FALSE(burst.drop(rng, at(2.0)));  // end exclusive
    EXPECT_TRUE(burst.drop(rng, at(5.0)));   // start inclusive
    EXPECT_FALSE(burst.drop(rng, at(7.0)));
}

TEST(LossModel, GilbertElliottHasBurstyStructure) {
    GilbertElliottLoss ge{0.01, 0.2, 0.001, 0.9};
    Rng rng{7};
    int drops = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) drops += ge.drop(rng, at(0.0)) ? 1 : 0;
    // Stationary bad-state probability = 0.01/(0.01+0.2) ~ 4.8%; overall
    // loss ~ 0.048*0.9 + 0.952*0.001 ~ 4.4%.
    EXPECT_NEAR(drops / static_cast<double>(n), 0.044, 0.01);
}

// --- topology & routing ---------------------------------------------------------

TEST(Topology, DisTopologyShape) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 3;
    spec.receivers_per_site = 4;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    EXPECT_EQ(topo.sites.size(), 3u);
    EXPECT_EQ(topo.all_receivers().size(), 12u);
    // 1 backbone + source router + source + primary + 1 replica +
    // 3 * (router + secondary + 4 receivers).
    EXPECT_EQ(net.node_count(), 5u + 3u * 6u);
    EXPECT_EQ(net.site_of(topo.source), net.site_of(topo.primary));
    EXPECT_NE(net.site_of(topo.sites[0].receivers[0]),
              net.site_of(topo.sites[1].receivers[0]));
}

TEST(Topology, PaperLatencyBudget) {
    // Every cable make_dis_topology lays, flat and with a regional tier,
    // read back off the built network and compared with Figure 1: 10 Mb/s
    // Ethernet LANs, T1 tail circuits, a T3 backbone, metro region links.
    for (const std::uint32_t sites_per_region : {0u, 2u}) {
        SCOPED_TRACE(sites_per_region > 0 ? "regional" : "flat");
        Simulator sim;
        Network net{sim, 1};
        DisTopologySpec spec;
        spec.sites = 2;
        spec.receivers_per_site = 1;
        spec.sites_per_region = sites_per_region;
        const DisTopology topo = make_dis_topology(net, spec);
        const auto cable = [&net](NodeId a, NodeId b) {
            const Link* link = net.link(a, b);
            if (link == nullptr) ADD_FAILURE() << "no cable " << a.value() << "-" << b.value();
            return link != nullptr ? link->spec() : LinkSpec{Duration::zero(), 0.0};
        };
        const auto expect_cable = [&cable](NodeId a, NodeId b, Duration propagation,
                                           double bps, Duration queue_limit) {
            const LinkSpec built = cable(a, b);
            EXPECT_EQ(built.propagation, propagation) << a.value() << "-" << b.value();
            EXPECT_EQ(built.bandwidth_bps, bps) << a.value() << "-" << b.value();
            EXPECT_EQ(built.max_queue_delay, queue_limit) << a.value() << "-" << b.value();
        };
        const Duration unlimited = Duration::zero();
        for (NodeId host : {topo.source, topo.primary, topo.replicas.at(0)})
            expect_cable(host, topo.source_router, micros(500), 10e6, unlimited);
        expect_cable(topo.source_router, topo.backbone, millis(38), 45e6, unlimited);
        ASSERT_EQ(topo.regions.size(), sites_per_region > 0 ? 1u : 0u);
        for (const DisTopology::Region& region : topo.regions) {
            expect_cable(region.router, topo.backbone, millis(38), 45e6, unlimited);
            expect_cable(region.logger, region.router, millis(5), 10e6, unlimited);
        }
        for (const DisTopology::Site& site : topo.sites) {
            const NodeId uplink = topo.regions.empty() ? topo.backbone : topo.regions[0].router;
            expect_cable(site.router, uplink, millis(1), 1.544e6, millis(200));
            expect_cable(site.secondary, site.router, micros(500), 10e6, unlimited);
            expect_cable(site.receivers.at(0), site.router, micros(500), 10e6, unlimited);
        }
        if (!topo.regions.empty()) continue;

        // Receiver -> local secondary RTT ~3-4 ms; receiver -> primary
        // ~80 ms, matching the paper's Section 2.2.2 ping measurements.
        const DisTopology::Site& site = topo.sites[0];
        const NodeId receiver = site.receivers[0];
        const Duration local_one_way = cable(receiver, site.router).propagation +
                                       cable(site.router, site.secondary).propagation;
        EXPECT_GE(2 * local_one_way, millis(2));
        EXPECT_LE(2 * local_one_way, millis(4));
        const Duration remote_one_way = cable(receiver, site.router).propagation +
                                        cable(site.router, topo.backbone).propagation +
                                        cable(topo.backbone, topo.source_router).propagation +
                                        cable(topo.source_router, topo.primary).propagation;
        EXPECT_NEAR(to_seconds(2 * remote_one_way), 0.080, 0.005);
    }
}

TEST(Network, UnicastDeliversThroughRouters) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 2;
    spec.receivers_per_site = 1;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    const NodeId from = topo.source;
    const NodeId to = topo.sites[1].receivers[0];
    std::vector<TimePoint> arrivals;
    net.set_tap([&](TimePoint t, const Link& link, const Packet&, bool delivered) {
        if (delivered && link.to() == to) arrivals.push_back(t);
    });
    net.unicast(from, to, Packet{Header{GroupId{1}, from, from}, PrimaryQueryBody{}});
    sim.run_for(secs(1.0));
    ASSERT_EQ(arrivals.size(), 1u);
}

TEST(Network, MulticastUsesOneCopyPerSharedLink) {
    // The defining economy of multicast: 20 receivers behind one tail
    // circuit receive ONE copy on that circuit.
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 1;
    spec.receivers_per_site = 20;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);

    net.multicast(topo.source,
                  Packet{Header{group, topo.source, topo.source},
                         DataBody{SeqNum{1}, EpochId{0}, {1, 2, 3}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));

    const Link* tail = net.link(topo.backbone, topo.sites[0].router);
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->stats().packets_of(PacketType::kData), 1u);

    // But each receiver LAN link carried its own copy.
    std::uint64_t lan_copies = 0;
    for (NodeId r : topo.sites[0].receivers)
        lan_copies += net.link(topo.sites[0].router, r)->stats().packets_of(PacketType::kData);
    EXPECT_EQ(lan_copies, 20u);
}

TEST(Network, SiteScopedMulticastNeverLeavesSite) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 2;
    spec.receivers_per_site = 3;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);
    net.join(group, topo.sites[0].secondary);

    // Secondary at site 0 re-multicasts with site scope.
    const NodeId secondary = topo.sites[0].secondary;
    net.multicast(secondary,
                  Packet{Header{group, topo.source, secondary},
                         RetransmissionBody{SeqNum{1}, EpochId{0}, true, {1}}},
                  McastScope::kSite);
    sim.run_for(secs(1.0));

    // Tail circuits saw nothing.
    EXPECT_EQ(net.link(topo.sites[0].router, topo.backbone)
                  ->stats().packets_of(PacketType::kRetransmission),
              0u);
    // Site-0 receivers got it; site-1 receivers did not.
    std::uint64_t site0 = 0, site1 = 0;
    for (NodeId r : topo.sites[0].receivers)
        site0 += net.link(topo.sites[0].router, r)->stats().packets_of(
            PacketType::kRetransmission);
    for (NodeId r : topo.sites[1].receivers)
        site1 += net.link(topo.sites[1].router, r)->stats().packets_of(
            PacketType::kRetransmission);
    EXPECT_EQ(site0, 3u);
    EXPECT_EQ(site1, 0u);
}

TEST(Network, RegionScopeLimitsToFourHops) {
    // Region scope = up to 4 hops (adjacent sites through the backbone).
    // On a 7-node chain, the member 4 hops out is reached, 5 hops is not.
    Simulator sim;
    Network net{sim, 1};
    std::vector<NodeId> chain;
    for (std::uint32_t i = 0; i < 7; ++i) chain.push_back(net.add_node(SiteId{i}));
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
        net.add_link(chain[i], chain[i + 1], LinkSpec{});
    net.finalize();

    const GroupId group{1};
    net.join(group, chain[4]);  // 4 hops from chain[0]
    net.join(group, chain[5]);  // 5 hops from chain[0]
    net.multicast(chain[0],
                  Packet{Header{group, chain[0], chain[0]},
                         DataBody{SeqNum{1}, EpochId{0}, {1}}},
                  McastScope::kRegion);
    sim.run_for(secs(1.0));

    EXPECT_EQ(net.link(chain[3], chain[4])->stats().packets, 1u);
    EXPECT_EQ(net.link(chain[4], chain[5])->stats().packets, 0u);

    // Global scope from the same sender reaches the 5-hop member too.
    net.multicast(chain[0],
                  Packet{Header{group, chain[0], chain[0]},
                         DataBody{SeqNum{2}, EpochId{0}, {1}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));
    EXPECT_EQ(net.link(chain[4], chain[5])->stats().packets, 1u);
}

// --- multicast tree cache ----------------------------------------------------

namespace cache_test {

struct Fixture {
    Simulator sim;
    Network net{sim, 7};
    DisTopology topo;
    GroupId group{1};

    Fixture() {
        DisTopologySpec spec;
        spec.sites = 2;
        spec.receivers_per_site = 3;
        topo = make_dis_topology(net, spec);
        net.finalize();
        for (NodeId r : topo.all_receivers()) net.join(group, r);
    }

    void send(std::uint32_t seq) {
        net.multicast(topo.source,
                      Packet{Header{group, topo.source, topo.source},
                             DataBody{SeqNum{seq}, EpochId{0}, {1, 2}}},
                      McastScope::kGlobal);
        sim.run_for(secs(1.0));
    }

    [[nodiscard]] std::uint64_t copies_to(NodeId receiver) {
        for (const auto& site : topo.sites)
            for (NodeId r : site.receivers)
                if (r == receiver)
                    return net.link(site.router, r)->stats().packets_of(PacketType::kData);
        return 0;
    }
};

TEST(NetworkTreeCache, RepeatSendsReuseOneCachedTree) {
    Fixture f;
    EXPECT_EQ(f.net.cached_tree_count(), 0u);
    f.send(1);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    f.send(2);
    f.send(3);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 3u);
}

TEST(NetworkTreeCache, JoinRebuildsAndDeliversToNewMember) {
    Fixture f;
    const NodeId late = f.topo.sites[1].secondary;
    f.send(1);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    f.net.join(f.group, late);
    EXPECT_EQ(f.net.cached_tree_count(), 0u);  // invalidated
    f.send(2);
    // The late joiner got exactly the post-join packet...
    EXPECT_EQ(f.net.link(f.topo.sites[1].router, late)->stats().packets_of(
                  PacketType::kData),
              1u);
    // ...and existing members got both.
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 2u);
}

TEST(NetworkTreeCache, LeaveRebuildsAndStopsDelivering) {
    Fixture f;
    const NodeId leaver = f.topo.sites[0].receivers[0];
    f.send(1);
    f.net.leave(f.group, leaver);
    EXPECT_EQ(f.net.cached_tree_count(), 0u);
    f.send(2);
    EXPECT_EQ(f.copies_to(leaver), 1u);  // only the pre-leave packet
    for (NodeId r : f.topo.sites[1].receivers) EXPECT_EQ(f.copies_to(r), 2u);
}

TEST(NetworkTreeCache, NodeDownRebuildsAndPrunesMember) {
    Fixture f;
    const NodeId dead = f.topo.sites[0].receivers[1];
    f.send(1);
    f.net.set_node_down(dead, true);
    EXPECT_EQ(f.net.cached_tree_count(), 0u);
    f.send(2);
    EXPECT_EQ(f.copies_to(dead), 1u);
    f.net.set_node_down(dead, false);
    f.send(3);
    EXPECT_EQ(f.copies_to(dead), 2u);  // rejoins delivery after revival
    for (NodeId r : f.topo.sites[1].receivers) EXPECT_EQ(f.copies_to(r), 3u);
}

TEST(NetworkTreeCache, RefinalizeAfterTopologyChangeRebuilds) {
    Fixture f;
    f.send(1);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    // Attach a brand-new receiver behind site 0's router and re-finalize.
    const NodeId extra = f.net.add_node(f.topo.sites[0].id);
    f.net.add_link(f.topo.sites[0].router, extra, LinkSpec{});
    f.net.finalize();
    EXPECT_EQ(f.net.cached_tree_count(), 0u);
    f.net.join(f.group, extra);
    f.send(2);
    EXPECT_EQ(f.net.link(f.topo.sites[0].router, extra)->stats().packets_of(
                  PacketType::kData),
              1u);
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 2u);
}

TEST(NetworkTreeCache, ScopedTreesCacheIndependently) {
    Fixture f;
    f.net.join(f.group, f.topo.sites[0].secondary);
    const NodeId secondary = f.topo.sites[0].secondary;
    auto send_scoped = [&](McastScope scope) {
        f.net.multicast(secondary,
                        Packet{Header{f.group, f.topo.source, secondary},
                               RetransmissionBody{SeqNum{1}, EpochId{0}, true, {1}}},
                        scope);
        f.sim.run_for(secs(1.0));
    };
    send_scoped(McastScope::kSite);
    send_scoped(McastScope::kGlobal);
    EXPECT_EQ(f.net.cached_tree_count(), 2u);  // one per scope
    // Site scope stayed local both times.
    EXPECT_EQ(f.net.link(f.topo.sites[0].router, f.topo.backbone)
                  ->stats().packets_of(PacketType::kRetransmission),
              1u);  // only the global send crossed the tail
}

// --- bounded tree cache (SimConfig::tree_cache_capacity) ---------------------

TEST(NetworkTreeCache, BoundedCacheEvictsLruAndRebuildsOnMiss) {
    Fixture f;
    f.net.set_tree_cache_capacity(2);
    // Three groups with the same members => three distinct cache keys.
    const GroupId g2{2}, g3{3};
    for (NodeId r : f.topo.all_receivers()) {
        f.net.join(g2, r);
        f.net.join(g3, r);
    }
    auto send_group = [&](GroupId g, std::uint32_t seq) {
        f.net.multicast(f.topo.source,
                        Packet{Header{g, f.topo.source, f.topo.source},
                               DataBody{SeqNum{seq}, EpochId{0}, {1, 2}}},
                        McastScope::kGlobal);
        f.sim.run_for(secs(1.0));
        EXPECT_LE(f.net.cached_tree_count(), 2u);  // never exceeds the bound
    };
    send_group(f.group, 1);
    send_group(g2, 2);
    EXPECT_EQ(f.net.cached_tree_count(), 2u);
    const std::uint64_t builds_before = f.net.tree_builds();
    send_group(g3, 3);  // evicts group 1's tree (LRU)
    EXPECT_EQ(f.net.cached_tree_count(), 2u);
    EXPECT_EQ(f.net.tree_builds(), builds_before + 1);
    send_group(g2, 4);  // still cached: no rebuild
    EXPECT_EQ(f.net.tree_builds(), builds_before + 1);
    send_group(f.group, 5);  // evicted earlier: rebuilt on miss
    EXPECT_EQ(f.net.tree_builds(), builds_before + 2);
    // Every send delivered despite the churn (2 packets to groups 1 and 2's
    // shared members... all groups share the same receiver set, so each
    // receiver saw all 5 sends).
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 5u);
}

TEST(NetworkTreeCache, ShrinkingCapacityEvictsDownToBound) {
    Fixture f;
    const GroupId g2{2};
    for (NodeId r : f.topo.all_receivers()) f.net.join(g2, r);
    f.send(1);
    f.net.multicast(f.topo.source,
                    Packet{Header{g2, f.topo.source, f.topo.source},
                           DataBody{SeqNum{2}, EpochId{0}, {1}}},
                    McastScope::kGlobal);
    f.sim.run_for(secs(1.0));
    EXPECT_EQ(f.net.cached_tree_count(), 2u);
    f.net.set_tree_cache_capacity(1);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    f.net.set_tree_cache_capacity(0);  // back to unbounded: nothing dropped
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    f.send(3);  // group 1 was the LRU victim; rebuilt on miss and delivered
    // 3 data sends total (group 1 twice, group 2 once), all to every receiver.
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 3u);
}

TEST(NetworkTreeCache, InvalidationStillClearsBoundedCache) {
    Fixture f;
    f.net.set_tree_cache_capacity(2);
    f.send(1);
    EXPECT_EQ(f.net.cached_tree_count(), 1u);
    f.net.join(f.group, f.topo.sites[1].secondary);
    EXPECT_EQ(f.net.cached_tree_count(), 0u);  // join invalidates as before
    f.send(2);
    f.net.set_node_down(f.topo.sites[0].receivers[0], true);
    EXPECT_EQ(f.net.cached_tree_count(), 0u);  // node-down too
}

// --- mid-run topology mutation (regression: add_link must drop caches) -------

TEST(NetworkTreeCache, AddLinkMidRunDropsTreesAndPathsBeforeRefinalize) {
    Fixture f;
    f.send(1);
    ASSERT_EQ(f.net.cached_tree_count(), 1u);
    // A new cable must invalidate cached trees immediately -- the
    // regression was an add_link that only flipped finalized_, leaving
    // stale trees serving the old edges until some unrelated invalidation.
    const NodeId router = f.topo.sites[0].router;
    const NodeId late = f.net.add_node(f.net.site_of(router));
    ASSERT_EQ(f.net.cached_tree_count(), 1u);  // a lone node changes no tree
    f.net.add_link(router, late, LinkSpec{millis(5), 0.0, Duration::zero()});
    EXPECT_EQ(f.net.cached_tree_count(), 0u);
    f.net.finalize();
    f.net.join(f.group, late);
    f.send(2);
    for (NodeId r : f.topo.all_receivers()) EXPECT_EQ(f.copies_to(r), 2u);
    // The new member's 5 ms LAN cable delays its copy behind its site
    // peers', but the copy arrives.
    EXPECT_EQ(f.net.link(router, late)->stats().packets_of(PacketType::kData), 1u);
}

}  // namespace cache_test

TEST(Network, DownNodeNeitherSendsNorReceives) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 1;
    spec.receivers_per_site = 2;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    const GroupId group{1};
    const NodeId dead = topo.sites[0].receivers[0];
    const NodeId alive = topo.sites[0].receivers[1];
    net.join(group, dead);
    net.join(group, alive);
    net.set_node_down(dead, true);

    net.multicast(topo.source,
                  Packet{Header{group, topo.source, topo.source},
                         DataBody{SeqNum{1}, EpochId{0}, {1}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));

    EXPECT_EQ(net.link(topo.sites[0].router, dead)->stats().packets, 0u);
    EXPECT_EQ(net.link(topo.sites[0].router, alive)->stats().packets, 1u);
}

TEST(Network, LossModelDropsOnConfiguredLink) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 1;
    spec.receivers_per_site = 1;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();
    net.set_loss(topo.backbone, topo.sites[0].router, std::make_unique<BernoulliLoss>(1.0));

    const GroupId group{1};
    const NodeId rx = topo.sites[0].receivers[0];
    net.join(group, rx);
    net.multicast(topo.source,
                  Packet{Header{group, topo.source, topo.source},
                         DataBody{SeqNum{1}, EpochId{0}, {1}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));
    EXPECT_EQ(net.link(topo.sites[0].router, rx)->stats().packets, 0u);
    EXPECT_EQ(net.link(topo.backbone, topo.sites[0].router)->stats().drops_loss, 1u);
}

TEST(Network, DeterministicAcrossRuns) {
    auto run_once = [] {
        ScenarioConfig config;
        config.topology.sites = 3;
        config.topology.receivers_per_site = 5;
        config.seed = 99;
        DisScenario scenario(config);
        scenario.network().set_loss(scenario.topology().backbone,
                                    scenario.topology().sites[0].router,
                                    std::make_unique<BernoulliLoss>(0.3));
        scenario.start();
        for (int i = 0; i < 5; ++i) {
            scenario.send_update(std::size_t{64});
            scenario.run_for(millis(300));
        }
        scenario.run_for(secs(5.0));
        return std::make_pair(scenario.simulator().events_processed(),
                              scenario.deliveries().size());
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lbrm::sim
