// Variable-heartbeat scheduler unit tests (Section 2.1), including the
// parameterized backoff sweep and the "variable never exceeds fixed"
// invariant of Section 2.1.2.
#include <gtest/gtest.h>

#include "core/heartbeat.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;

HeartbeatConfig paper_config() {
    HeartbeatConfig c;
    c.h_min = secs(0.25);
    c.h_max = secs(32.0);
    c.backoff = 2.0;
    return c;
}

TEST(Heartbeat, FirstHeartbeatComesHMinAfterData) {
    HeartbeatScheduler s{paper_config()};
    EXPECT_EQ(s.on_data_sent(at(10.0)), at(10.25));
    EXPECT_EQ(s.current_interval(), secs(0.25));
}

TEST(Heartbeat, IntervalDoublesAfterEachHeartbeat) {
    HeartbeatScheduler s{paper_config()};
    TimePoint t = s.on_data_sent(at(0.0));
    EXPECT_EQ(t, at(0.25));
    t = s.on_heartbeat_sent(t);
    EXPECT_EQ(t, at(0.75));  // +0.5
    t = s.on_heartbeat_sent(t);
    EXPECT_EQ(t, at(1.75));  // +1.0
    t = s.on_heartbeat_sent(t);
    EXPECT_EQ(t, at(3.75));  // +2.0
}

TEST(Heartbeat, IntervalSaturatesAtHMax) {
    HeartbeatScheduler s{paper_config()};
    TimePoint t = s.on_data_sent(at(0.0));
    for (int i = 0; i < 40; ++i) t = s.on_heartbeat_sent(t);
    EXPECT_EQ(s.current_interval(), secs(32.0));
}

TEST(Heartbeat, DataResetsTheBackoff) {
    HeartbeatScheduler s{paper_config()};
    TimePoint t = s.on_data_sent(at(0.0));
    for (int i = 0; i < 10; ++i) t = s.on_heartbeat_sent(t);
    EXPECT_GT(s.current_interval(), secs(0.25));
    s.on_data_sent(at(100.0));
    EXPECT_EQ(s.current_interval(), secs(0.25));
    EXPECT_EQ(s.heartbeat_index(), 0u);
}

TEST(Heartbeat, HeartbeatIndexCounts) {
    HeartbeatScheduler s{paper_config()};
    TimePoint t = s.on_data_sent(at(0.0));
    EXPECT_EQ(s.heartbeat_index(), 0u);
    t = s.on_heartbeat_sent(t);
    EXPECT_EQ(s.heartbeat_index(), 1u);
    t = s.on_heartbeat_sent(t);
    EXPECT_EQ(s.heartbeat_index(), 2u);
}

TEST(Heartbeat, FixedModeNeverGrows) {
    HeartbeatConfig c = paper_config();
    c.backoff = 1.0;
    HeartbeatScheduler s{c};
    TimePoint t = s.on_data_sent(at(0.0));
    for (int i = 0; i < 100; ++i) {
        const TimePoint next = s.on_heartbeat_sent(t);
        EXPECT_EQ(next - t, secs(0.25));
        t = next;
    }
}

TEST(Heartbeat, RejectsInvalidParameters) {
    HeartbeatConfig c = paper_config();
    c.backoff = 0.5;
    EXPECT_THROW(HeartbeatScheduler{c}, std::invalid_argument);
    c = paper_config();
    c.h_min = Duration::zero();
    EXPECT_THROW(HeartbeatScheduler{c}, std::invalid_argument);
    c = paper_config();
    c.h_max = secs(0.1);  // < h_min
    EXPECT_THROW(HeartbeatScheduler{c}, std::invalid_argument);
}

/// Count heartbeats the scheduler emits between two data packets dt apart.
std::size_t simulate_count(const HeartbeatConfig& config, double dt) {
    HeartbeatScheduler s{config};
    TimePoint next = s.on_data_sent(at(0.0));
    std::size_t count = 0;
    while (next < at(dt)) {
        ++count;
        next = s.on_heartbeat_sent(next);
        if (count > 1'000'000) break;
    }
    return count;
}

class HeartbeatBackoffSweep : public ::testing::TestWithParam<double> {};

TEST_P(HeartbeatBackoffSweep, VariableNeverSendsMoreThanFixed) {
    HeartbeatConfig variable = paper_config();
    variable.backoff = GetParam();
    HeartbeatConfig fixed = paper_config();
    fixed.backoff = 1.0;

    for (double dt : {0.1, 0.3, 1.0, 5.0, 30.0, 120.0, 1000.0}) {
        EXPECT_LE(simulate_count(variable, dt), simulate_count(fixed, dt))
            << "backoff " << GetParam() << " dt " << dt;
    }
}

TEST_P(HeartbeatBackoffSweep, LargerBackoffNeverSendsMore) {
    HeartbeatConfig narrow = paper_config();
    narrow.backoff = GetParam();
    HeartbeatConfig wide = paper_config();
    wide.backoff = GetParam() + 0.5;
    for (double dt : {0.5, 2.0, 20.0, 120.0, 500.0})
        EXPECT_GE(simulate_count(narrow, dt), simulate_count(wide, dt));
}

INSTANTIATE_TEST_SUITE_P(Backoffs, HeartbeatBackoffSweep,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0, 3.5, 4.0));

TEST(Heartbeat, DisScenarioSavingsMatchPaperScale) {
    // dt = 120 s (terrain changes every two minutes): the paper reports a
    // ~53x heartbeat reduction for backoff 2.
    HeartbeatConfig variable = paper_config();
    HeartbeatConfig fixed = paper_config();
    fixed.backoff = 1.0;
    const double ratio = static_cast<double>(simulate_count(fixed, 120.0)) /
                         static_cast<double>(simulate_count(variable, 120.0));
    EXPECT_NEAR(ratio, 53.3, 1.0);
}

TEST(Heartbeat, NoHeartbeatsWhenDataOutpacesHMin) {
    // dt < h_min: every heartbeat is preempted by the next data packet.
    EXPECT_EQ(simulate_count(paper_config(), 0.2), 0u);
}

}  // namespace
}  // namespace lbrm
