// Flow-control tests (Section 5 extension): the AIMD governor unit plus
// end-to-end behaviour driven from statistical-ack outcomes.
#include <gtest/gtest.h>

#include "core/flow_control.hpp"
#include "core/sender.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"

namespace lbrm {
namespace {

using test::at;

FlowControlConfig enabled_config() {
    FlowControlConfig c;
    c.enabled = true;
    c.initial_backoff = millis(250);
    c.max_backoff = secs(8.0);
    c.recovery_streak = 3;
    return c;
}

TEST(FlowController, StartsUnconstrained) {
    FlowController flow{enabled_config()};
    EXPECT_EQ(flow.recommended_spacing(), Duration::zero());
    EXPECT_FALSE(flow.congested());
}

TEST(FlowController, LossSignalsBackOffMultiplicatively) {
    FlowController flow{enabled_config()};
    EXPECT_TRUE(flow.on_loss_signal());
    EXPECT_EQ(flow.recommended_spacing(), millis(250));
    EXPECT_TRUE(flow.on_loss_signal());
    EXPECT_EQ(flow.recommended_spacing(), millis(500));
    EXPECT_TRUE(flow.on_loss_signal());
    EXPECT_EQ(flow.recommended_spacing(), millis(1000));
}

TEST(FlowController, BackoffSaturatesAtMax) {
    FlowController flow{enabled_config()};
    for (int i = 0; i < 20; ++i) flow.on_loss_signal();
    EXPECT_EQ(flow.recommended_spacing(), secs(8.0));
    EXPECT_FALSE(flow.on_loss_signal());  // no further increase
}

TEST(FlowController, RecoveryNeedsACleanStreak) {
    FlowController flow{enabled_config()};
    flow.on_loss_signal();
    flow.on_loss_signal();  // 500 ms
    EXPECT_FALSE(flow.on_clean_packet());
    EXPECT_FALSE(flow.on_clean_packet());
    EXPECT_EQ(flow.recommended_spacing(), millis(500));  // streak not complete
    EXPECT_FALSE(flow.on_clean_packet());                // 3rd: halves to 250
    EXPECT_EQ(flow.recommended_spacing(), millis(250));
}

TEST(FlowController, LossResetsTheStreak) {
    FlowController flow{enabled_config()};
    flow.on_loss_signal();
    flow.on_clean_packet();
    flow.on_clean_packet();
    flow.on_loss_signal();  // streak wiped, spacing doubled
    EXPECT_EQ(flow.recommended_spacing(), millis(500));
    flow.on_clean_packet();
    flow.on_clean_packet();
    EXPECT_EQ(flow.recommended_spacing(), millis(500));
}

TEST(FlowController, FullRecoveryClearsAndReports) {
    FlowControlConfig c = enabled_config();
    c.recovery_streak = 1;
    FlowController flow{c};
    flow.on_loss_signal();  // 250 ms
    EXPECT_FALSE(flow.on_clean_packet());  // 125 ms
    EXPECT_FALSE(flow.on_clean_packet());  // 62.5
    bool cleared = false;
    for (int i = 0; i < 12 && !cleared; ++i) cleared = flow.on_clean_packet();
    EXPECT_TRUE(cleared);
    EXPECT_EQ(flow.recommended_spacing(), Duration::zero());
}

TEST(FlowController, JitteredSpacingStaysInsideTheConfiguredBand) {
    FlowControlConfig c = enabled_config();
    c.backoff_jitter = 0.5;
    FlowController flow{c};
    flow.on_loss_signal();  // 250 ms
    Rng rng{42};
    for (int i = 0; i < 200; ++i) {
        const Duration d = flow.jittered_spacing(rng);
        EXPECT_GE(d, millis(250));
        EXPECT_LT(d, millis(375));
    }
    // The underlying advisory value is untouched by the draws.
    EXPECT_EQ(flow.recommended_spacing(), millis(250));
}

TEST(FlowController, JitterIsDeterministicPerSeedAndConsumesNoDrawWhenIdle) {
    FlowControlConfig c = enabled_config();
    c.backoff_jitter = 0.25;
    FlowController flow{c};

    // Zero spacing: no draw consumed, rng state untouched.
    Rng idle_a{7}, idle_b{7};
    EXPECT_EQ(flow.jittered_spacing(idle_a), Duration::zero());
    EXPECT_EQ(idle_a.uniform(), idle_b.uniform());

    flow.on_loss_signal();
    Rng a{7}, b{7};
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(flow.jittered_spacing(a), flow.jittered_spacing(b));

    // Zero jitter: exact advisory value, again without drawing.
    FlowControlConfig plain = enabled_config();
    FlowController no_jitter{plain};
    no_jitter.on_loss_signal();
    Rng c1{9}, c2{9};
    EXPECT_EQ(no_jitter.jittered_spacing(c1), millis(250));
    EXPECT_EQ(c1.uniform(), c2.uniform());
}

// --- end-to-end through the sender ------------------------------------------

TEST(FlowControlIntegration, SustainedLossRaisesSpacingThenHealingClearsIt) {
    // A sender whose designated ackers go silent must raise its recommended
    // spacing; once ACKs return, the spacing clears.
    SenderConfig sender_config;
    sender_config.self = NodeId{1};
    sender_config.group = GroupId{1};
    sender_config.primary_logger = NodeId{2};
    sender_config.stat_ack.enabled = true;
    sender_config.stat_ack.k = 2;
    sender_config.stat_ack.remulticast_site_threshold = 1.0;
    sender_config.stat_ack.max_remulticasts = 1;
    sender_config.flow_control = enabled_config();
    SenderCore sender{sender_config};
    sender.stat_ack().set_group_size(10.0);

    auto start = sender.start(at(0.0));
    // Volunteer two ackers for the epoch.
    const auto sel = test::sent_of_type(start, PacketType::kAckerSelection);
    ASSERT_EQ(sel.size(), 1u);
    const EpochId epoch = std::get<AckerSelectionBody>(sel[0].packet.body).epoch;
    for (std::uint32_t node : {10u, 11u}) {
        Packet volunteer{Header{GroupId{1}, NodeId{1}, NodeId{node}},
                         AckerResponseBody{epoch}};
        sender.on_packet(at(0.01), volunteer);
    }
    auto window = test::find_timer(start, TimerKind::kEpochOpen);
    sender.on_timer(window->deadline, window->id);

    // Send packets whose ACKs never arrive: walk each packet's kAckWait
    // through decision (re-multicast) and finalization (incomplete).
    TimePoint t = at(1.0);
    std::size_t slowdowns = 0;
    for (std::uint32_t s = 1; s <= 3; ++s) {
        auto sent = sender.send(t, test::payload(16));
        for (int phase = 0; phase < 3; ++phase) {
            t = t + sender.stat_ack().t_wait() + millis(1);
            auto fired = sender.on_timer(t, {TimerKind::kAckWait, s});
            slowdowns += test::notices(fired, NoticeKind::kCongestionSlowdown).size();
        }
    }
    EXPECT_GE(slowdowns, 1u);
    EXPECT_GT(sender.recommended_spacing(), Duration::zero());
    const Duration congested_spacing = sender.recommended_spacing();

    // ACKs return: clean packets ease the governor off.
    bool saw_cleared = false;
    for (std::uint32_t s = 4; s < 80 && !saw_cleared; ++s) {
        sender.send(t, test::payload(16));
        for (std::uint32_t node : {10u, 11u}) {
            Packet ack{Header{GroupId{1}, NodeId{1}, NodeId{node}},
                       AckBody{sender.stat_ack().current_epoch(), SeqNum{s}}};
            auto done = sender.on_packet(t + millis(5), ack);
            if (!test::notices(done, NoticeKind::kCongestionCleared).empty())
                saw_cleared = true;
        }
        t = t + millis(50);
    }
    EXPECT_TRUE(saw_cleared);
    EXPECT_EQ(sender.recommended_spacing(), Duration::zero());
    EXPECT_LT(sender.recommended_spacing(), congested_spacing);
}

}  // namespace
}  // namespace lbrm
