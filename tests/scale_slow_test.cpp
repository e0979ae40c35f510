// Slow-labelled scale smoke: build and drive a ~1M-node DIS scenario end to
// end (topology build, lazy finalize, real protocol traffic) under the O(1)
// CountingObserver.  Gated behind LBRM_SLOW_TESTS so the default ctest run
// stays fast; CI runs it in a dedicated step via `ctest -L slow`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "sim/observer.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;

TEST(ScaleSlow, MillionNodeFullProtocolSmoke) {
    if (std::getenv("LBRM_SLOW_TESTS") == nullptr)
        GTEST_SKIP() << "set LBRM_SLOW_TESTS=1 to run the ~1M-node smoke";

    ScenarioConfig config;
    config.topology.sites = 2000;
    config.topology.receivers_per_site = 499;
    auto counter = std::make_shared<CountingObserver>();
    config.observer = counter;

    DisScenario scenario(config);
    ASSERT_GE(scenario.network().node_count(), 1'000'000u);

    scenario.start();
    for (int i = 0; i < 3; ++i) {
        scenario.send_update(200);
        scenario.run_for(millis(50));
    }
    scenario.run_for(secs(0.5));

    EXPECT_EQ(counter->sends(), 3u);
    EXPECT_GT(counter->deliveries(), 0u);
    // Every receiver that got anything should have all three updates by now
    // (loss-free links): spot-check the aggregate.
    EXPECT_GT(counter->nodes_with_at_least(3), 0u);
    // Lazy build: nowhere near every interior row should have materialised.
    EXPECT_LT(scenario.network().site_rows_built(),
              scenario.network().node_count() / 2);
}

}  // namespace
