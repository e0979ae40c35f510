// Analytical-model tests: the closed-form heartbeat overhead (Figures 4-5,
// Table 1) cross-checked against step-by-step simulation of the real
// HeartbeatScheduler, plus the paper's headline numbers.
#include <gtest/gtest.h>

#include "analysis/heartbeat_math.hpp"
#include "core/heartbeat.hpp"
#include "tests/test_util.hpp"

namespace lbrm::analysis {
namespace {

using test::at;

HeartbeatConfig paper_config(double backoff = 2.0) {
    HeartbeatConfig c;
    c.h_min = secs(0.25);
    c.h_max = secs(32.0);
    c.backoff = backoff;
    return c;
}

/// Ground truth: run the actual scheduler between two data packets dt apart.
std::size_t scheduler_count(const HeartbeatConfig& config, double dt) {
    HeartbeatScheduler s{config};
    TimePoint next = s.on_data_sent(at(0.0));
    std::size_t count = 0;
    while (next < at(dt)) {
        ++count;
        next = s.on_heartbeat_sent(next);
        if (count > 100000) break;
    }
    return count;
}

class ModelVsScheduler
    : public ::testing::TestWithParam<std::tuple<double, double>> {};  // (backoff, dt)

TEST_P(ModelVsScheduler, ClosedFormMatchesSimulation) {
    const auto [backoff, dt] = GetParam();
    const HeartbeatConfig config = paper_config(backoff);
    EXPECT_EQ(variable_heartbeat_count(config, dt), scheduler_count(config, dt))
        << "backoff=" << backoff << " dt=" << dt;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelVsScheduler,
    ::testing::Combine(::testing::Values(1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                       ::testing::Values(0.1, 0.25, 0.3, 1.0, 7.5, 32.0, 120.0, 1000.0)));

TEST(HeartbeatMath, OffsetsMatchFigure3Pattern) {
    // Data at t=0: heartbeats at 0.25, 0.75, 1.75, 3.75, ... (backoff 2).
    const auto offsets = variable_heartbeat_offsets(paper_config(), 10.0);
    ASSERT_GE(offsets.size(), 5u);
    EXPECT_DOUBLE_EQ(offsets[0], 0.25);
    EXPECT_DOUBLE_EQ(offsets[1], 0.75);
    EXPECT_DOUBLE_EQ(offsets[2], 1.75);
    EXPECT_DOUBLE_EQ(offsets[3], 3.75);
    EXPECT_DOUBLE_EQ(offsets[4], 7.75);
}

TEST(HeartbeatMath, FixedCount) {
    EXPECT_EQ(fixed_heartbeat_count(0.25, 1.0), 3u);    // 0.25, 0.5, 0.75 (1.0 preempted)
    EXPECT_EQ(fixed_heartbeat_count(0.25, 0.2), 0u);    // dt < h
    EXPECT_EQ(fixed_heartbeat_count(0.25, 0.25), 0u);   // exactly preempted
    EXPECT_EQ(fixed_heartbeat_count(0.25, 120.0), 479u);
}

TEST(HeartbeatMath, Figure4Asymptotes) {
    const HeartbeatConfig config = paper_config();
    // Small dt: no heartbeats under either scheme.
    EXPECT_EQ(variable_heartbeat_rate(config, 0.2), 0.0);
    EXPECT_EQ(fixed_heartbeat_rate(0.25, 0.2), 0.0);
    // Large dt: variable rate approaches 1/h_max, fixed approaches 1/h_min.
    EXPECT_NEAR(variable_heartbeat_rate(config, 100000.0), 1.0 / 32.0, 0.002);
    EXPECT_NEAR(fixed_heartbeat_rate(0.25, 100000.0), 4.0, 0.01);
}

TEST(HeartbeatMath, Figure5MarkedPoint) {
    // "At this point the variable heartbeat reduces heartbeat bandwidth by a
    // factor of 53.4 over a fixed heartbeat" (dt = 120 s).
    EXPECT_NEAR(overhead_ratio(paper_config(), 120.0), 53.3, 1.0);
}

TEST(HeartbeatMath, Table1ContinuousModelMatchesPaper) {
    // Paper values: 1.5->34.4, 2->53.3, 2.5->65.8, 3->74.8, 3.5->81.7,
    // 4->87.3.  The continuous (uncapped-geometric) model reproduces the
    // column within a few percent.
    const double paper[] = {34.4, 53.3, 65.8, 74.8, 81.7, 87.3};
    const double backoffs[] = {1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
    for (int i = 0; i < 6; ++i) {
        const double ratio = overhead_ratio_continuous(paper_config(backoffs[i]), 120.0);
        EXPECT_NEAR(ratio, paper[i], paper[i] * 0.07) << "backoff " << backoffs[i];
    }
}

TEST(HeartbeatMath, Table1DiscreteModelShape) {
    // The exact discrete model (with the h_max cap the implementation
    // applies) is monotone nondecreasing in the backoff; it plateaus once
    // the cap dominates (large backoffs), which the continuous model and
    // the paper's column gloss over.
    const double backoffs[] = {1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
    double previous = 0.0;
    for (double b : backoffs) {
        const double ratio = overhead_ratio(paper_config(b), 120.0);
        EXPECT_GE(ratio, previous) << "backoff " << b;
        previous = ratio;
    }
    // The paper-parameter point (backoff 2) is exact: 53.3x.
    EXPECT_NEAR(overhead_ratio(paper_config(2.0), 120.0), 53.3, 1.0);
}

TEST(HeartbeatMath, RatioIsMonotoneInDt) {
    const HeartbeatConfig config = paper_config();
    double previous = 0.0;
    for (double dt : {1.0, 2.0, 5.0, 15.0, 60.0, 120.0, 500.0}) {
        const double ratio = overhead_ratio(config, dt);
        EXPECT_GE(ratio, previous) << "dt " << dt;
        previous = ratio;
    }
}

TEST(HeartbeatMath, ScenarioRateReproducesSection212) {
    // 100,000 terrain entities, dt = 120 s.  Fixed heartbeat: 400,000 pkt/s.
    // Variable heartbeat: ~7,500 pkt/s (the factor-53 reduction).
    const HeartbeatConfig config = paper_config();
    const double fixed_rate = fixed_heartbeat_rate(0.25, 120.0) * 100000;
    const double variable_rate = scenario_heartbeat_rate(config, 120.0, 100000);
    EXPECT_NEAR(fixed_rate, 400000.0, 2000.0);
    EXPECT_NEAR(fixed_rate / variable_rate, 53.3, 1.0);
}

TEST(HeartbeatMath, FixedFlagMatchesFixedFormula) {
    HeartbeatConfig config = paper_config();
    config.backoff = 1.0;
    for (double dt : {0.5, 3.0, 120.0})
        EXPECT_EQ(variable_heartbeat_count(config, dt), fixed_heartbeat_count(0.25, dt));
}

}  // namespace
}  // namespace lbrm::analysis
