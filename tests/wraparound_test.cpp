// Sequence-number wraparound regression suite plus link queueing tests.
//
// Every SeqNum-keyed container in the protocol cores is ordered by
// SeqNum::WireOrder (raw uint32) with wrap-aware oldest-first walks via
// serial_begin() -- see seqnum.hpp.  These tests pin the behaviors that the
// old serial-comparator maps got wrong (or relied on by accident) when a
// stream crosses 2^32: loss-detector gap tracking, log-store eviction and
// release, sender retention anchors, and statistical-ACK bookkeeping.
//
// The link tests pin the transmit() accounting order (queue drop before any
// loss roll; lost packets burn wire time) and the order in which arrivals
// queued behind a busy link pop.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "core/log_store.hpp"
#include "core/loss_detector.hpp"
#include "core/sender.hpp"
#include "core/stat_ack.hpp"
#include "sim/link.hpp"
#include "sim/loss_model.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;
using test::count_sent;
using test::find_timer;
using test::payload;
using test::sent_of_type;

constexpr std::uint32_t kMax = 0xFFFFFFFFu;

// --- LossDetector across the wrap ---------------------------------------

TEST(WrapLossDetector, GapSpanningWrapIsDetected) {
    LossDetector d;
    d.observe(at(0.0), SeqNum{kMax - 2});
    auto obs = d.observe(at(1.0), SeqNum{2});

    // FFFFFFFE, FFFFFFFF, 0, 1 are now missing, in serial (oldest-first)
    // order even though raw uint32 order would put 0 and 1 first.
    const std::vector<SeqNum> expected{SeqNum{kMax - 1}, SeqNum{kMax}, SeqNum{0},
                                       SeqNum{1}};
    EXPECT_EQ(obs.newly_missing, expected);
    EXPECT_EQ(d.missing(), expected);
    EXPECT_EQ(d.highest_seen(), SeqNum{2});
}

TEST(WrapLossDetector, FillingAcrossWrapRetractsMissing) {
    LossDetector d;
    d.observe(at(0.0), SeqNum{kMax - 2});
    d.observe(at(1.0), SeqNum{2});

    auto fill = d.observe(at(2.0), SeqNum{kMax});
    EXPECT_TRUE(fill.fills_gap);
    EXPECT_FALSE(d.is_missing(SeqNum{kMax}));
    const std::vector<SeqNum> expected{SeqNum{kMax - 1}, SeqNum{0}, SeqNum{1}};
    EXPECT_EQ(d.missing(), expected);
}

TEST(WrapLossDetector, DuplicatesRecognizedAcrossWrap) {
    LossDetector d;
    d.observe(at(0.0), SeqNum{kMax});
    d.observe(at(1.0), SeqNum{0});
    d.observe(at(2.0), SeqNum{1});
    EXPECT_TRUE(d.observe(at(3.0), SeqNum{0}).duplicate);
    EXPECT_TRUE(d.observe(at(4.0), SeqNum{kMax}).duplicate);
}

// --- bounded gap opening --------------------------------------------------

TEST(BoundedGap, SingleObservationCannotOpenUnboundedGap) {
    LossDetector d{16};
    d.observe(at(0.0), SeqNum{1});
    auto obs = d.observe(at(1.0), SeqNum{100000});

    // Only the most recent max_gap numbers become missing; the rest of the
    // (likely corrupt) gap is dropped and counted.
    EXPECT_EQ(obs.newly_missing.size(), 16u);
    EXPECT_EQ(obs.newly_missing.front(), SeqNum{100000 - 16});
    EXPECT_EQ(obs.newly_missing.back(), SeqNum{100000 - 1});
    EXPECT_EQ(d.gap_overflows(), 1u);
    EXPECT_EQ(d.highest_seen(), SeqNum{100000});
}

TEST(BoundedGap, StreamResyncsAfterOverflow) {
    LossDetector d{16};
    d.observe(at(0.0), SeqNum{1});
    d.observe(at(1.0), SeqNum{100000});
    // Position resynced to the far-future number: the next-in-order packet
    // opens no gap at all.
    auto next = d.observe(at(2.0), SeqNum{100001});
    EXPECT_TRUE(next.newly_missing.empty());
    EXPECT_FALSE(next.duplicate);
    EXPECT_EQ(d.gap_overflows(), 1u);
}

TEST(BoundedGap, WithinCapGapIsFullyTracked) {
    LossDetector d{16};
    d.observe(at(0.0), SeqNum{1});
    auto obs = d.observe(at(1.0), SeqNum{10});
    EXPECT_EQ(obs.newly_missing.size(), 8u);
    EXPECT_EQ(d.gap_overflows(), 0u);
}

TEST(BoundedGap, OverflowTruncationWorksAcrossWrap) {
    LossDetector d{8};
    d.observe(at(0.0), SeqNum{kMax - 100});
    // Gap of ~110 crossing the wrap: truncated to the 8 just below seq 10.
    auto obs = d.observe(at(1.0), SeqNum{10});
    EXPECT_EQ(obs.newly_missing.size(), 8u);
    EXPECT_EQ(obs.newly_missing.front(), SeqNum{2});
    EXPECT_EQ(d.gap_overflows(), 1u);
}

TEST(BoundedGap, DefaultCapApplies) {
    LossDetector d;
    EXPECT_EQ(d.max_gap(), LossDetector::kDefaultMaxGap);
    // Non-positive caps fall back to the default rather than disabling.
    EXPECT_EQ(LossDetector{-5}.max_gap(), LossDetector::kDefaultMaxGap);
    EXPECT_EQ(LossDetector{0}.max_gap(), LossDetector::kDefaultMaxGap);
}

// --- LogStore across the wrap --------------------------------------------

TEST(WrapLogStore, LowestHighestAndReleaseAcrossWrap) {
    LogStore store;
    for (std::uint32_t i = 0; i < 5; ++i) {
        const SeqNum seq = SeqNum{kMax - 1}.plus(static_cast<std::int32_t>(i));
        store.insert(at(0.0), seq, EpochId{0}, payload(4));
    }
    // Entries are FFFFFFFE, FFFFFFFF, 0, 1, 2.
    EXPECT_EQ(store.lowest(), SeqNum{kMax - 1});
    EXPECT_EQ(store.highest(), SeqNum{2});

    store.release_through(SeqNum{0});
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.lowest(), SeqNum{1});
}

TEST(WrapLogStore, CountBoundEvictsSeriallyOldestAcrossWrap) {
    RetentionPolicy policy;
    policy.max_entries = 3;
    LogStore store{policy};
    for (std::uint32_t i = 0; i < 5; ++i) {
        const SeqNum seq = SeqNum{kMax - 1}.plus(static_cast<std::int32_t>(i));
        store.insert(at(0.0), seq, EpochId{0}, payload(4));
    }
    // The two serially-oldest entries (FFFFFFFE, FFFFFFFF) were evicted --
    // not the raw-smallest keys 0 and 1.
    EXPECT_EQ(store.size(), 3u);
    EXPECT_FALSE(store.contains(SeqNum{kMax - 1}));
    EXPECT_FALSE(store.contains(SeqNum{kMax}));
    EXPECT_TRUE(store.contains(SeqNum{0}));
    EXPECT_EQ(store.evicted(), 2u);
}

TEST(WrapLogStore, GapsAcrossWrap) {
    LogStore store;
    store.insert(at(0.0), SeqNum{kMax - 1}, EpochId{0}, payload(4));
    store.insert(at(0.0), SeqNum{1}, EpochId{0}, payload(4));
    const std::vector<SeqNum> expected{SeqNum{kMax}, SeqNum{0}, SeqNum{2}};
    EXPECT_EQ(store.gaps(SeqNum{kMax - 2}, SeqNum{2}), expected);
}

// --- SenderCore stream starting near the wrap ----------------------------

SenderConfig wrap_sender_config() {
    SenderConfig c;
    c.self = NodeId{1};
    c.group = GroupId{5};
    c.primary_logger = NodeId{2};
    c.replicas = {NodeId{3}};
    c.stat_ack.enabled = false;
    c.initial_seq = SeqNum{kMax - 1};
    return c;
}

Packet from_primary(Body body) {
    return Packet{Header{GroupId{5}, NodeId{1}, NodeId{2}}, std::move(body)};
}

TEST(WrapSender, SequencesCrossTheWrap) {
    SenderCore sender{wrap_sender_config()};
    sender.start(at(0.0));
    std::vector<SeqNum> seqs;
    for (int i = 0; i < 4; ++i) {
        auto actions = sender.send(at(1.0 + i), payload(8));
        const auto data = sent_of_type(actions, PacketType::kData);
        ASSERT_EQ(data.size(), 1u);
        seqs.push_back(std::get<DataBody>(data[0].packet.body).seq);
    }
    const std::vector<SeqNum> expected{SeqNum{kMax - 1}, SeqNum{kMax}, SeqNum{0},
                                       SeqNum{1}};
    EXPECT_EQ(seqs, expected);
    EXPECT_EQ(sender.last_seq(), SeqNum{1});
}

TEST(WrapSender, NothingAckedAnchorDoesNotReleaseRetained) {
    // The "nothing acked yet" anchor is initial_seq.prev().  The old
    // SeqNum{0} sentinel sat serially AHEAD of a stream starting at
    // FFFFFFFE and instantly (and wrongly) released everything.
    SenderCore sender{wrap_sender_config()};
    sender.start(at(0.0));
    sender.send(at(1.0), payload(64));
    sender.send(at(2.0), payload(64));
    EXPECT_EQ(sender.retained_count(), 2u);
}

TEST(WrapSender, ReplicaAckReleasesAcrossWrap) {
    SenderCore sender{wrap_sender_config()};
    sender.start(at(0.0));
    for (int i = 0; i < 4; ++i) sender.send(at(1.0 + i), payload(64));
    EXPECT_EQ(sender.retained_count(), 4u);

    // Replica covered through seq 0 (third packet, past the wrap).
    sender.on_packet(at(5.0), from_primary(LogAckBody{SeqNum{0}, SeqNum{0}, true}));
    EXPECT_EQ(sender.retained_count(), 1u);

    sender.on_packet(at(6.0), from_primary(LogAckBody{SeqNum{1}, SeqNum{1}, true}));
    EXPECT_EQ(sender.retained_count(), 0u);
}

// --- StatAckEngine --------------------------------------------------------

StatAckConfig stat_config() {
    StatAckConfig c;
    c.enabled = true;
    c.k = 3;
    c.initial_t_wait = millis(100);
    c.epoch_interval = secs(30);
    return c;
}

Packet from_logger(NodeId logger, Body body) {
    return Packet{Header{GroupId{9}, NodeId{1}, logger}, std::move(body)};
}

/// Drive `engine` through epoch setup with the given volunteers.
TimePoint open_epoch(StatAckEngine& engine, const std::vector<NodeId>& volunteers) {
    auto result = engine.start(at(0.0));
    const auto sel = sent_of_type(result.actions, PacketType::kAckerSelection);
    EXPECT_EQ(sel.size(), 1u);
    const auto& body = std::get<AckerSelectionBody>(sel.at(0).packet.body);
    for (NodeId v : volunteers)
        engine.on_packet(at(0.01), from_logger(v, AckerResponseBody{body.epoch}));
    const auto window = find_timer(result.actions, TimerKind::kEpochOpen);
    EXPECT_TRUE(window.has_value());
    engine.on_timer(window->deadline, {TimerKind::kEpochOpen, 0});
    return window->deadline;
}

TEST(WrapStatAck, LowestPendingAcrossWrap) {
    StatAckEngine engine{NodeId{1}, GroupId{9}, stat_config()};
    engine.set_group_size(50.0);
    const TimePoint t0 = open_epoch(engine, {NodeId{10}, NodeId{11}});

    engine.on_data_sent(t0 + millis(1), SeqNum{kMax});
    engine.on_data_sent(t0 + millis(2), SeqNum{0});
    engine.on_data_sent(t0 + millis(3), SeqNum{1});
    // Serially oldest, not raw-smallest (which would be 0).
    EXPECT_EQ(engine.lowest_pending(), SeqNum{kMax});
}

TEST(ZeroVolunteerEpoch, OutageNoticeAndFastResolicit) {
    StatAckEngine engine{NodeId{1}, GroupId{9}, stat_config()};
    engine.set_group_size(50.0);

    auto result = engine.start(at(0.0));
    const auto window = find_timer(result.actions, TimerKind::kEpochOpen);
    ASSERT_TRUE(window.has_value());

    // Window closes with zero volunteers: outage notice + a re-solicit
    // scheduled after the short empty-epoch retry, not a full epoch.
    auto closed = engine.on_timer(window->deadline, {TimerKind::kEpochOpen, 0});
    EXPECT_EQ(test::notices(closed.actions, NoticeKind::kAckerOutage).size(), 1u);
    EXPECT_TRUE(test::notices(closed.actions, NoticeKind::kEpochStarted).empty());
    const auto rotate = find_timer(closed.actions, TimerKind::kEpochRotate);
    ASSERT_TRUE(rotate.has_value());
    EXPECT_EQ(rotate->deadline, window->deadline + engine.config().empty_epoch_retry);
    EXPECT_LT(engine.config().empty_epoch_retry, engine.config().epoch_interval);

    // Data sent during the dark window gets no ACK accounting...
    auto sent = engine.on_data_sent(window->deadline + millis(1), SeqNum{1});
    EXPECT_TRUE(sent.actions.empty());

    // ...and the rotate timer re-solicits a fresh epoch.
    auto retry = engine.on_timer(rotate->deadline, {TimerKind::kEpochRotate, 0});
    EXPECT_EQ(count_sent(retry.actions, PacketType::kAckerSelection), 1u);
}

}  // namespace
}  // namespace lbrm

namespace lbrm::sim {
namespace {

using lbrm::test::at;

const LinkSpec kT1{millis(1), 1e6, Duration::zero()};  // 1000 B = 8 ms serialization

// --- Link accounting order ------------------------------------------------

TEST(LinkAccounting, LostPacketStillBurnsWireTime) {
    Cable cable{NodeId{1}, NodeId{2}, kT1};
    Link& link = cable.dir[0];
    const std::uint64_t seed = 1;

    auto a = link.transmit(seed, at(0.0), 1000, PacketType::kData);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, at(0.0) + millis(8) + millis(1));

    // Packet B is lost in flight -- but it was serialized first, so it
    // occupies its slot of the busy horizon.
    link.set_loss_model(std::make_unique<BernoulliLoss>(1.0));
    EXPECT_FALSE(link.transmit(seed, at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_EQ(link.stats().drops_loss, 1u);

    // Packet C queues behind BOTH predecessors, including the lost one.
    link.set_loss_model(std::make_unique<NoLoss>());
    auto c = link.transmit(seed, at(0.0), 1000, PacketType::kData);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, at(0.0) + 3 * millis(8) + millis(1));
    EXPECT_TRUE(link.busy(at(0.020)));
}

TEST(LinkAccounting, QueueDropNeverConsultsLossModel) {
    struct CountingLoss final : LossModel {
        explicit CountingLoss(int& calls) : calls_(calls) {}
        bool drop(Rng&, TimePoint) override {
            ++calls_;
            return false;
        }
        int& calls_;
    };

    LinkSpec spec = kT1;
    spec.max_queue_delay = millis(10);  // fits one 8 ms packet in queue, not two
    Cable cable{NodeId{1}, NodeId{2}, spec};
    Link& link = cable.dir[0];
    int rolls = 0;
    link.set_loss_model(std::make_unique<CountingLoss>(rolls));
    const std::uint64_t seed = 1;

    EXPECT_TRUE(link.transmit(seed, at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_TRUE(link.transmit(seed, at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_EQ(rolls, 2);

    // Third packet would queue 16 ms > 10 ms: dropped at the tail without
    // ever reaching the wire, so the loss model must not be rolled (RNG
    // draw order stays identical whether or not the queue overflows).
    EXPECT_FALSE(link.transmit(seed, at(0.0), 1000, PacketType::kData).has_value());
    EXPECT_EQ(link.stats().drops_queue, 1u);
    EXPECT_EQ(rolls, 2);
}

// --- queued arrivals keep their order --------------------------------------

TEST(PinnedTrace, BurstQueueingMatchesRecordedHash) {
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 5;
    config.seed = 1234;
    DisScenario scenario{config};
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[1].router,
                                std::make_unique<BernoulliLoss>(0.2));

    // Order-sensitive FNV-1a chain over every tap, so two same-instant
    // arrivals that swap places change the hash (the PinnedTrace digests in
    // shard_test are order-independent sums).
    std::uint64_t hash = 14695981039346656037ULL;
    auto mix = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xFFu;
            hash *= 1099511628211ULL;
        }
    };
    std::uint64_t packets = 0;
    std::uint64_t same_instant = 0;  // transmits right behind one at the same time
    std::map<const Link*, TimePoint> last_tx;
    scenario.network().set_tap([&](TimePoint t, const Link& l, const Packet& p,
                                   bool delivered) {
        mix(static_cast<std::uint64_t>(t.time_since_epoch().count()));
        mix((static_cast<std::uint64_t>(l.from().value()) << 32) | l.to().value());
        mix((static_cast<std::uint64_t>(p.type()) << 1) | (delivered ? 1u : 0u));
        ++packets;
        const auto [it, first] = last_tx.try_emplace(&l, t);
        if (!first && it->second == t) ++same_instant;
        it->second = t;
    });

    scenario.start();
    // Bursts of back-to-back sends force queueing on every tail circuit:
    // each queued arrival is its own event under the key drawn at
    // transmit, and must pop exactly where the recorded trace has it.
    for (int burst = 0; burst < 4; ++burst) {
        for (int i = 0; i < 12; ++i) scenario.send_update(std::size_t{400});
        scenario.run_for(millis(250));
    }
    scenario.run_for(secs(5.0));

    EXPECT_FALSE(scenario.deliveries().empty());
    EXPECT_GT(same_instant, 0u);  // the scenario still queues behind busy links
    EXPECT_EQ(hash, 0xf8c25e52b403f746ull);
    EXPECT_EQ(packets, 2166u);
}

// --- end-to-end wraparound integration -----------------------------------

TEST(WrapIntegration, StreamStartingNearWrapDeliversEverywhere) {
    ScenarioConfig config;
    config.topology.sites = 3;
    config.topology.receivers_per_site = 4;
    config.seed = 77;
    config.initial_seq = SeqNum{0xFFFFFFF0u};
    DisScenario scenario{config};
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[0].router,
                                std::make_unique<BernoulliLoss>(0.3));
    scenario.start();

    // 32 updates: the stream runs FFFFFFF0..FFFFFFFF then wraps to 0..F.
    for (int i = 0; i < 32; ++i) {
        scenario.send_update(std::size_t{64});
        scenario.run_for(millis(100));
    }
    scenario.run_for(secs(20.0));

    const std::size_t receivers = scenario.topology().all_receivers().size();
    ASSERT_EQ(receivers, 12u);
    for (int i = 0; i < 32; ++i) {
        const SeqNum seq = SeqNum{0xFFFFFFF0u}.plus(i);
        EXPECT_EQ(scenario.delivery_times(seq).size(), receivers)
            << "seq " << seq.value() << " not delivered everywhere";
    }
    // Losses on the site-0 tail actually happened and were recovered.
    EXPECT_GT(scenario.network()
                  .link(scenario.topology().backbone, scenario.topology().sites[0].router)
                  ->stats()
                  .drops_loss,
              0u);
}

}  // namespace
}  // namespace lbrm::sim
