// Closed-loop workload engine tests (DESIGN.md "Closed-loop workloads").
//
// The determinism contract: a workload plan is a pure function of
// (seed, config); payloads are pure functions of (key, update); and the
// engine layered onto a DisScenario changes *nothing* about the packet
// trace unless the governor is on.  Identical seeds must therefore give
// byte-identical sampler JSON and an identical packet-trace hash across
// repeated runs, and an ungoverned engine run must be trace-identical to a
// no-engine driver replaying the same plan by hand.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "packet/packet.hpp"
#include "sim/chaos.hpp"
#include "sim/loss_model.hpp"
#include "sim/observer.hpp"
#include "sim/scenario.hpp"
#include "tests/test_util.hpp"
#include "workload/engine.hpp"
#include "workload/stock_ticker.hpp"
#include "workload/web_invalidation.hpp"

namespace lbrm::workload {
namespace {

using sim::BernoulliLoss;
using sim::CountingObserver;
using sim::DisScenario;
using sim::ScenarioConfig;

// --- ZipfSampler ------------------------------------------------------------

TEST(ZipfSampler, SkewsTowardLowRanksAndIsDeterministic) {
    const ZipfSampler zipf(100, 1.1);
    Rng a{3}, b{3};
    std::array<std::uint32_t, 100> counts{};
    for (int i = 0; i < 20000; ++i) {
        const std::uint32_t k = zipf.draw(a);
        ASSERT_LT(k, 100u);
        EXPECT_EQ(k, zipf.draw(b));  // same seed, same sequence
        ++counts[k];
    }
    // Rank 0 is the hottest and the head dominates the tail.
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[99]);
    std::uint32_t head = 0, tail = 0;
    for (int k = 0; k < 10; ++k) head += counts[k];
    for (int k = 90; k < 100; ++k) tail += counts[k];
    EXPECT_GT(head, 5 * tail);
}

TEST(ZipfSampler, CoversTheWholeSupport) {
    const ZipfSampler zipf(4, 0.5);
    Rng rng{1};
    std::array<bool, 4> seen{};
    for (int i = 0; i < 4000; ++i) seen[zipf.draw(rng)] = true;
    for (bool s : seen) EXPECT_TRUE(s);
}

// --- plan + render purity ---------------------------------------------------

TEST(WorkloadPlan, IdenticalSeedsDrawIdenticalPlans) {
    for (int variant = 0; variant < 2; ++variant) {
        auto make = [&]() -> std::unique_ptr<Workload> {
            if (variant == 0) return std::make_unique<StockTickerWorkload>(StockTickerConfig{});
            WwwInvalidationConfig cfg;
            cfg.flash_crowds.push_back(FlashCrowd{secs(0.5), secs(0.2), 8.0, 4});
            return std::make_unique<WwwInvalidationWorkload>(cfg);
        };
        auto wa = make();
        auto wb = make();
        Rng ra = WorkloadEngine::stream_rng(99, 0);
        Rng rb = WorkloadEngine::stream_rng(99, 0);
        const auto pa = WorkloadEngine::plan_stream(*wa, ra, secs(2.0));
        const auto pb = WorkloadEngine::plan_stream(*wb, rb, secs(2.0));
        ASSERT_FALSE(pa.empty());
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            EXPECT_EQ(pa[i].gap, pb[i].gap);
            EXPECT_EQ(pa[i].key, pb[i].key);
            EXPECT_EQ(pa[i].update, pb[i].update);
            // Purity: rendering the same item twice gives the same bytes,
            // from either instance.
            EXPECT_EQ(wa->render(pa[i]), wb->render(pb[i]));
            EXPECT_EQ(wa->render(pa[i]), wa->render(pa[i]));
        }
    }
}

TEST(WorkloadPlan, DifferentStreamsDrawDifferentPlans) {
    StockTickerWorkload w0{StockTickerConfig{}};
    StockTickerWorkload w1{StockTickerConfig{}};
    Rng r0 = WorkloadEngine::stream_rng(99, 0);
    Rng r1 = WorkloadEngine::stream_rng(99, 1);
    const auto p0 = WorkloadEngine::plan_stream(w0, r0, secs(2.0));
    const auto p1 = WorkloadEngine::plan_stream(w1, r1, secs(2.0));
    ASSERT_FALSE(p0.empty());
    ASSERT_FALSE(p1.empty());
    bool differs = p0.size() != p1.size();
    for (std::size_t i = 0; !differs && i < p0.size(); ++i)
        differs = p0[i].gap != p1[i].gap || p0[i].key != p1[i].key;
    EXPECT_TRUE(differs);
}

TEST(WorkloadPlan, UpdateIndicesArePerKeyMonotone) {
    StockTickerWorkload w{StockTickerConfig{}};
    Rng rng = WorkloadEngine::stream_rng(5, 0);
    const auto plan = WorkloadEngine::plan_stream(w, rng, secs(3.0));
    std::vector<std::uint32_t> next_update(500, 0);
    for (const auto& item : plan) {
        ASSERT_LT(item.key, 500u);
        EXPECT_EQ(item.update, next_update[item.key]++);
    }
}

TEST(WwwInvalidation, FlashCrowdMultipliesRateAndFocusesHotPages) {
    WwwInvalidationConfig cfg;
    cfg.mean_gap = millis(20);
    cfg.flash_crowds.push_back(FlashCrowd{secs(1.0), secs(1.0), 10.0, 4});
    WwwInvalidationWorkload w{cfg};
    Rng rng = WorkloadEngine::stream_rng(17, 0);
    const auto plan = WorkloadEngine::plan_stream(w, rng, secs(3.0));

    // Crowd membership is decided at draw time -- the planned time *before*
    // the item's own gap is appended (web_invalidation.cpp).
    Duration t{};
    std::size_t calm = 0, crowd = 0;
    for (const auto& item : plan) {
        const bool in_crowd = t >= secs(1.0) && t < secs(2.0);
        t += item.gap;
        (in_crowd ? crowd : calm)++;
        if (in_crowd) EXPECT_LT(item.key, 4u);  // focused on the hottest pages
    }
    // Two calm seconds vs one crowd second at 10x: the crowd window must
    // clearly out-produce both calm seconds together.
    EXPECT_GT(crowd, 2 * calm);
}

TEST(WwwInvalidation, RendersAppendixATransLines) {
    WwwInvalidationWorkload w{WwwInvalidationConfig{}};
    const auto bytes = w.render(WorkloadItem{millis(1), 3, 7});
    const std::string text(bytes.begin(), bytes.end());
    EXPECT_NE(text.find("TRANS:7.0:UPDATE:"), std::string::npos);
    EXPECT_NE(text.find(w.url(3)), std::string::npos);
}

// --- engine determinism on a live scenario ----------------------------------

struct RunOutput {
    std::uint64_t trace = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t sends = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t stale_samples = 0;
    double fairness = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    std::string sampler_json;
};

/// One small lossy scenario run: 2 streams over 6 sites.  use_engine=false
/// replays the identical plan by hand (the engine-off identity baseline).
RunOutput run_scenario(bool use_engine, bool governed, std::uint64_t seed) {
    ScenarioConfig config;
    config.topology.sites = 6;
    config.topology.receivers_per_site = 2;
    config.observer = std::make_shared<CountingObserver>();
    if (governed) {
        config.flow_control.enabled = true;
        config.flow_control.initial_backoff = millis(50);
        config.flow_control.backoff_jitter = 0.25;
    }
    DisScenario scenario{config};
    auto& counting = static_cast<CountingObserver&>(scenario.observer());

    RunOutput out;
    test::Fnv1a trace;
    scenario.network().set_tap([&trace](TimePoint at, const sim::Link& link,
                                        const Packet& packet, bool delivered) {
        const auto t = at.time_since_epoch().count();
        trace.feed(&t, sizeof t);
        const auto from = link.from().value(), to = link.to().value();
        trace.feed(&from, sizeof from);
        trace.feed(&to, sizeof to);
        trace.feed(&delivered, 1);
        const auto bytes = encode(packet);
        trace.feed(bytes.data(), bytes.size());
    });

    scenario.start();
    scenario.send_update(std::size_t{32});  // anchor every receiver's contiguity
    scenario.run_for(millis(200));
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[2].router,
                                std::make_unique<BernoulliLoss>(0.2));

    const Duration horizon = secs(1.0);
    WorkloadEngine engine{scenario,
                          EngineConfig{governed, millis(100), horizon, seed}};
    std::uint64_t planned = 0;
    if (use_engine) {
        for (int i = 0; i < 2; ++i) {
            StockTickerConfig tc;
            tc.mean_gap = millis(30);
            engine.add_stream(std::make_unique<StockTickerWorkload>(tc));
        }
        engine.start();
        for (const auto& s : engine.streams()) planned += s.planned;
    } else {
        for (std::size_t i = 0; i < 2; ++i) {
            Rng rng = WorkloadEngine::stream_rng(seed, i);
            StockTickerConfig tc;
            tc.mean_gap = millis(30);
            StockTickerWorkload w{tc};
            const auto items = WorkloadEngine::plan_stream(w, rng, horizon);
            TimePoint at = scenario.simulator().now() + millis(100);
            for (const auto& item : items) {
                at += item.gap;
                scenario.schedule_update(at, w.render(item));
            }
            planned += items.size();
        }
    }
    scenario.start_sampling(millis(100));
    if (use_engine) engine.add_sampler_series();

    if (governed) {
        // The pacer defers sends, so run until the plan drains (bounded).
        while (engine.sends() < planned &&
               scenario.simulator().now().time_since_epoch() < secs(120.0))
            scenario.run_for(millis(100));
    } else {
        scenario.run_for(millis(100) + horizon + millis(200));
    }
    scenario.run_for(secs(3.0));

    out.trace = trace.h;
    out.deliveries = counting.deliveries();
    out.sends = counting.sends();
    out.sampler_json = scenario.sampler().to_json();
    if (use_engine) {
        out.deferrals = engine.deferrals();
        out.stale_samples = engine.staleness_samples();
        out.fairness = engine.fairness_jain();
        out.p50 = engine.staleness_quantile(0.5);
        out.p99 = engine.staleness_quantile(0.99);
    }
    return out;
}

TEST(WorkloadEngineDeterminism, RepeatedRunsAreByteIdentical) {
    for (const bool governed : {false, true}) {
        const RunOutput a = run_scenario(true, governed, 21);
        const RunOutput b = run_scenario(true, governed, 21);
        ASSERT_GT(a.sends, 1u);
        EXPECT_EQ(a.trace, b.trace) << "governed=" << governed;
        EXPECT_EQ(a.deliveries, b.deliveries) << "governed=" << governed;
        EXPECT_EQ(a.sampler_json, b.sampler_json) << "governed=" << governed;
        EXPECT_EQ(a.deferrals, b.deferrals) << "governed=" << governed;
    }
}

TEST(WorkloadEngineDeterminism, UngovernedEngineIsTraceIdenticalToNoEngine) {
    const RunOutput hand = run_scenario(false, false, 21);
    const RunOutput engine = run_scenario(true, false, 21);
    ASSERT_GT(hand.sends, 1u);
    EXPECT_EQ(engine.trace, hand.trace);
    EXPECT_EQ(engine.deliveries, hand.deliveries);
    EXPECT_EQ(engine.sends, hand.sends);
    EXPECT_EQ(engine.deferrals, 0u);  // nothing defers without the governor
}

TEST(WorkloadEngineDeterminism, SeedChangesTheTrace) {
    const RunOutput a = run_scenario(true, false, 21);
    const RunOutput b = run_scenario(true, false, 22);
    EXPECT_NE(a.trace, b.trace);
}

TEST(WorkloadEngine, ObservesStalenessAndFairness) {
    const RunOutput r = run_scenario(true, false, 21);
    EXPECT_GT(r.stale_samples, 0u);
    EXPECT_GT(r.p50, 0.0);
    EXPECT_GE(r.p99, r.p50);  // quantiles are monotone
    // Two same-config streams: Jain index near 1, never above it.
    EXPECT_GT(r.fairness, 0.9);
    EXPECT_LE(r.fairness, 1.0);
}

// --- composing with the chaos engine -----------------------------------------

/// A 4-site x 3-receiver scenario observed by a crash-on-receive chaos
/// schedule and a one-stream ticker engine at once.
struct ComposedScenario {
    DisScenario scenario;
    std::unique_ptr<sim::ChaosEngine> chaos;
    std::unique_ptr<WorkloadEngine> engine;

    ComposedScenario() : scenario(config()) {
        scenario.start();
        sim::ChaosSchedule schedule;
        schedule.events.push_back(sim::CrashOnReceive{
            scenario.topology().sites[1].receivers[0], SeqNum{3}, millis(400)});
        chaos = std::make_unique<sim::ChaosEngine>(scenario, std::move(schedule));
        engine = std::make_unique<WorkloadEngine>(
            scenario, EngineConfig{false, millis(100), secs(2), 1});
        engine->add_stream(std::make_unique<StockTickerWorkload>(StockTickerConfig{}));
    }

    static ScenarioConfig config() {
        ScenarioConfig c;
        c.topology.sites = 4;
        c.topology.receivers_per_site = 3;
        return c;
    }
};

TEST(ChaosWithWorkload, BothEnginesObserveInEitherAttachOrder) {
    std::uint64_t stale_samples[2] = {};
    for (const bool chaos_first : {true, false}) {
        ComposedScenario s;
        if (chaos_first) {
            s.chaos->arm();
            s.engine->start();
        } else {
            s.engine->start();
            s.chaos->arm();
        }
        s.scenario.run_for(secs(3));
        const char* order = chaos_first ? "chaos first" : "engine first";
        EXPECT_EQ(s.chaos->faults_applied(), 1u) << order;
        EXPECT_GT(s.engine->staleness_samples(), 0u) << order;
        stale_samples[chaos_first ? 0 : 1] = s.engine->staleness_samples();
    }
    EXPECT_EQ(stale_samples[0], stale_samples[1]);
}

TEST(ChaosWithWorkload, DestroyingEitherEngineLeavesTheOtherWorking) {
    {
        ComposedScenario s;
        s.engine->start();
        s.chaos->arm();
        s.chaos.reset();  // before its trigger: nothing was applied
        s.scenario.run_for(secs(3));
        EXPECT_GT(s.engine->staleness_samples(), 0u);
    }
    {
        ComposedScenario s;
        s.chaos->arm();
        s.engine->start();
        s.engine.reset();  // its planned sends stay queued in the scenario
        s.scenario.run_for(secs(3));
        EXPECT_EQ(s.chaos->faults_applied(), 1u);
    }
}

}  // namespace
}  // namespace lbrm::workload
