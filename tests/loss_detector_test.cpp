// Loss-detector unit tests: gap detection, heartbeat-revealed losses,
// reordering tolerance, duplicates and recovery bookkeeping, plus a
// differential test against the map-based reference in
// tests/loss_detector_oracle.hpp on seeded random streams.
#include <gtest/gtest.h>

#include <random>

#include "core/loss_detector.hpp"
#include "tests/loss_detector_oracle.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;

TEST(LossDetector, InOrderStreamHasNoLoss) {
    LossDetector d;
    for (std::uint32_t s = 1; s <= 100; ++s) {
        auto obs = d.observe(at(s), SeqNum{s});
        EXPECT_TRUE(obs.newly_missing.empty());
        EXPECT_FALSE(obs.duplicate);
        EXPECT_FALSE(obs.fills_gap);
    }
    EXPECT_EQ(d.missing_count(), 0u);
    EXPECT_EQ(d.highest_seen(), SeqNum{100});
}

TEST(LossDetector, SingleGapDetected) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    auto obs = d.observe(at(2), SeqNum{3});
    ASSERT_EQ(obs.newly_missing.size(), 1u);
    EXPECT_EQ(obs.newly_missing[0], SeqNum{2});
    EXPECT_TRUE(d.is_missing(SeqNum{2}));
    EXPECT_EQ(d.detected_at(SeqNum{2}), at(2));
}

TEST(LossDetector, MultiPacketGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{10});
    auto obs = d.observe(at(2), SeqNum{15});
    EXPECT_EQ(obs.newly_missing.size(), 4u);  // 11..14
    EXPECT_EQ(d.missing(), (std::vector<SeqNum>{SeqNum{11}, SeqNum{12}, SeqNum{13}, SeqNum{14}}));
}

TEST(LossDetector, HeartbeatRevealsLostDataPacket) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    // Heartbeat repeating seq 6 proves data 6 was sent and we missed it.
    auto obs = d.observe(at(2), SeqNum{6}, /*is_heartbeat=*/true);
    ASSERT_EQ(obs.newly_missing.size(), 1u);
    EXPECT_EQ(obs.newly_missing[0], SeqNum{6});
}

TEST(LossDetector, HeartbeatForReceivedPacketIsQuiet) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    auto obs = d.observe(at(2), SeqNum{5}, /*is_heartbeat=*/true);
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_FALSE(obs.duplicate);
}

TEST(LossDetector, RepeatedHeartbeatsDontRededect) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    auto first = d.observe(at(2), SeqNum{6}, true);
    EXPECT_EQ(first.newly_missing.size(), 1u);
    auto second = d.observe(at(3), SeqNum{6}, true);
    EXPECT_TRUE(second.newly_missing.empty());
}

TEST(LossDetector, RecoveryFillsGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{3});
    auto obs = d.observe(at(3), SeqNum{2});
    EXPECT_TRUE(obs.fills_gap);
    EXPECT_FALSE(obs.duplicate);
    EXPECT_EQ(d.missing_count(), 0u);
}

TEST(LossDetector, ReorderingRetractsMissing) {
    // 1, 3, 2 arrive: 2 is briefly "missing" then retracted on arrival.
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    EXPECT_EQ(d.observe(at(2), SeqNum{3}).newly_missing.size(), 1u);
    EXPECT_TRUE(d.observe(at(3), SeqNum{2}).fills_gap);
}

TEST(LossDetector, DuplicateDataDetected) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{2});
    auto obs = d.observe(at(3), SeqNum{2});
    EXPECT_TRUE(obs.duplicate);
}

TEST(LossDetector, AbandonStopsTracking) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{5});
    d.abandon(SeqNum{2});
    EXPECT_FALSE(d.is_missing(SeqNum{2}));
    EXPECT_EQ(d.missing_count(), 2u);  // 3, 4 remain
}

TEST(LossDetector, FirstPacketEverIsNotALoss) {
    // Joining an in-progress stream at seq 1000 must not declare 1..999 lost.
    LossDetector d;
    auto obs = d.observe(at(1), SeqNum{1000});
    EXPECT_TRUE(obs.newly_missing.empty());
}

TEST(LossDetector, JoinViaHeartbeatThenData) {
    LossDetector d;
    d.observe(at(1), SeqNum{7}, /*is_heartbeat=*/true);  // join late, silent
    auto obs = d.observe(at(2), SeqNum{8});
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_EQ(d.highest_seen(), SeqNum{8});
}

TEST(LossDetector, LastHeardTracksEverything) {
    LossDetector d;
    EXPECT_FALSE(d.last_heard().has_value());
    d.observe(at(1), SeqNum{1});
    d.observe(at(5), SeqNum{1}, true);
    EXPECT_EQ(d.last_heard(), at(5));
}

TEST(LossDetector, WrapAroundGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{0xFFFFFFFEu});
    auto obs = d.observe(at(2), SeqNum{1});
    EXPECT_EQ(obs.newly_missing.size(), 2u);  // FFFFFFFF and 0
    EXPECT_TRUE(d.is_missing(SeqNum{0xFFFFFFFFu}));
    EXPECT_TRUE(d.is_missing(SeqNum{0}));
}

TEST(LossDetector, LargeStreamStaysBounded) {
    // An in-order stream leaves nothing behind: the detector keeps the
    // stream position and the missing set, never the received numbers, so
    // memory does not grow with the length of the stream.
    LossDetector d;
    for (std::uint32_t s = 1; s <= 100'000; ++s) d.observe(at(s), SeqNum{s});
    EXPECT_EQ(d.missing_count(), 0u);
    EXPECT_EQ(d.highest_seen(), SeqNum{100'000});
}

// --- differential test against the map-based reference -------------------

/// What the random streams exercised, summed over seeds.
struct StreamCoverage {
    std::uint64_t fills = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t heartbeat_losses = 0;
    std::uint64_t overflows = 0;
    std::uint64_t abandons = 0;
    std::uint64_t wrapped_streams = 0;
};

/// Drive LossDetector and the reference with one seeded random stream and
/// require identical results after every observation.  The stream mixes
/// in-order data, held-back (reordered or lost, later repaired) data,
/// duplicates, heartbeats for the newest and for old numbers, jumps wider
/// than max_gap, far-future numbers, very old arrivals and abandons; half
/// the streams start just below 2^32 and wrap.
void run_differential(std::uint64_t seed, int steps, StreamCoverage& cov) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    constexpr std::int32_t kGaps[] = {4, 16, 64, LossDetector::kDefaultMaxGap};
    const std::int32_t max_gap = kGaps[pick(4)];
    LossDetector d{max_gap};
    test::LossDetectorOracle ref{max_gap};

    const bool wraps = pick(2) == 0;
    SeqNum next{wraps ? 0xFFFFFFFFu - static_cast<std::uint32_t>(pick(3000))
                      : static_cast<std::uint32_t>(pick(1000))};
    std::vector<SeqNum> sent;  // recent transmissions (duplicates, old heartbeats)
    std::vector<SeqNum> held;  // transmitted, not yet delivered
    TimePoint now = time_zero();

    for (int step = 0; step < steps; ++step) {
        now += micros(1 + static_cast<std::int64_t>(pick(100)));
        SeqNum seq = next;
        bool heartbeat = false;
        bool observe = true;
        bool set_changed = false;  // the missing set may differ from last step
        const std::uint64_t r = pick(100);
        if (r < 50) {  // transmit the next number; some are held back
            sent.push_back(next);
            if (sent.size() > 8192) sent.erase(sent.begin(), sent.begin() + 4096);
            if (pick(100) < 15) {
                held.push_back(next);
                observe = false;
            }
            next = next.next();
        } else if (r < 62) {  // a held-back number arrives (reorder / repair)
            if (held.empty()) continue;
            const std::size_t i = pick(held.size());
            seq = held[i];
            held[i] = held.back();
            held.pop_back();
        } else if (r < 70) {  // duplicate of a recent transmission
            if (sent.empty()) continue;
            seq = sent[sent.size() - 1 - pick(std::min<std::size_t>(sent.size(), 64))];
        } else if (r < 80) {  // heartbeat repeating the newest (sometimes an old) number
            heartbeat = true;
            seq = next.prev();
            if (pick(100) < 30 && !sent.empty()) seq = sent[pick(sent.size())];
        } else if (r < 84) {  // the sender skips ahead wider than max_gap
            next = next.plus(max_gap + 1 + static_cast<std::int32_t>(pick(3 * max_gap)));
            continue;
        } else if (r < 86) {  // a far-future number (corrupted header)
            seq = next.plus(static_cast<std::int32_t>(pick(1u << 20)));
            heartbeat = pick(2) == 0;
            // Usually the sender really moved on; otherwise its later
            // packets all sit below the corrupted position.
            if (pick(4) != 0) next = seq.next();
        } else if (r < 90) {  // very old data, far behind the stream position
            seq = next.plus(-static_cast<std::int32_t>(4000 + pick(100'000)));
        } else if (r < 94) {  // give up: the oldest missing numbers plus one at random
            std::vector<SeqNum> victims = ref.missing();
            victims.resize(victims.empty() ? 0 : 1 + pick(victims.size()));
            victims.push_back(next.plus(-static_cast<std::int32_t>(pick(2 * max_gap))));
            for (SeqNum victim : victims) {
                cov.abandons += d.is_missing(victim) ? 1 : 0;
                d.abandon(victim);
                ref.abandon(victim);
            }
            observe = false;
            set_changed = true;
        } else {  // heartbeat for an old number
            heartbeat = true;
            seq = next.plus(-static_cast<std::int32_t>(1 + pick(5000)));
        }
        if (step == 0 && pick(3) == 0) heartbeat = true;  // join via heartbeat

        if (observe) {
            const LossDetector::Observation got = d.observe(now, seq, heartbeat);
            const LossDetector::Observation want = ref.observe(now, seq, heartbeat);
            ASSERT_EQ(got.newly_missing, want.newly_missing)
                << "seed " << seed << " step " << step << " seq " << seq.value();
            ASSERT_EQ(got.fills_gap, want.fills_gap) << "seed " << seed << " step " << step;
            ASSERT_EQ(got.duplicate, want.duplicate) << "seed " << seed << " step " << step;
            cov.fills += got.fills_gap ? 1 : 0;
            cov.duplicates += got.duplicate ? 1 : 0;
            cov.heartbeat_losses += heartbeat && !got.newly_missing.empty() ? 1 : 0;
            set_changed = !want.newly_missing.empty() || want.fills_gap;
        }
        ASSERT_EQ(d.highest_seen(), ref.highest_seen()) << "seed " << seed << " step " << step;
        ASSERT_EQ(d.gap_overflows(), ref.gap_overflows()) << "seed " << seed << " step " << step;
        ASSERT_EQ(d.missing_count(), ref.missing_count()) << "seed " << seed << " step " << step;
        if (set_changed || step % 64 == 0 || step + 1 == steps) {
            const std::vector<SeqNum> missing = d.missing();
            ASSERT_EQ(missing, ref.missing()) << "seed " << seed << " step " << step;
            for (std::size_t i = 0; i < missing.size(); i += 1 + missing.size() / 16)
                ASSERT_EQ(d.detected_at(missing[i]), ref.detected_at(missing[i]))
                    << "seed " << seed << " step " << step;
        }
    }
    cov.overflows += d.gap_overflows();
    cov.wrapped_streams += wraps && d.highest_seen()->value() < 0x80000000u ? 1 : 0;
}

TEST(LossDetector, MatchesMapReferenceOnRandomStreams) {
    StreamCoverage cov;
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        run_differential(seed, 2500, cov);
        if (HasFatalFailure()) return;
    }
    // The streams really took every path the comparison is meant to cover.
    EXPECT_GT(cov.fills, 1000u);
    EXPECT_GT(cov.duplicates, 1000u);
    EXPECT_GT(cov.heartbeat_losses, 100u);
    EXPECT_GT(cov.overflows, 100u);
    EXPECT_GT(cov.abandons, 1000u);
    EXPECT_GT(cov.wrapped_streams, 10u);
}

}  // namespace
}  // namespace lbrm
