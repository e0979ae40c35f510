// Allocation gate: a live delivery costs no heap allocation of its own.
//
// Every core call returns its action list inline on the caller's stack, and
// an update's payload is one buffer shared by every packet, log entry,
// delivery and record that carries it (DESIGN.md "Action lists and payload
// buffers").  What remains per delivery is map nodes for pending recoveries,
// episodes and log entries, plus event closures.  This test counts heap
// allocations over the lossy 20x50 shape -- 20 sites x 50 receivers, 2% feed
// loss switched on after a loss-free anchor update, 200-byte updates every
// 20 ms -- and holds them at 0.3 per delivery, with the constant-memory
// CountingObserver and with the default RecordingObserver.
//
// The binary replaces global operator new, so it cannot share one with
// another suite.  Under AddressSanitizer, whose runtime owns operator new,
// the sanitizer's allocation hook does the counting instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "sim/loss_model.hpp"
#include "sim/observer.hpp"
#include "sim/scenario.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define LBRM_ALLOC_GATE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LBRM_ALLOC_GATE_ASAN 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t n) {
    if (!g_counting.load(std::memory_order_relaxed)) return;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

#ifdef LBRM_ALLOC_GATE_ASAN

extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {
[[maybe_unused]] const int g_hooks_installed = __sanitizer_install_malloc_and_free_hooks(
    [](const volatile void*, std::size_t n) { count(n); }, [](const volatile void*) {});
}  // namespace

#else

void* operator new(std::size_t n) {
    count(n);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc{};
}

void* operator new(std::size_t n, std::align_val_t al) {
    count(n);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
    throw std::bad_alloc{};
}

// Not inlined: GCC would otherwise see free() on a pointer from operator new
// and warn (-Wmismatched-new-delete), although this pair is consistent.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }

#endif

namespace lbrm::sim {
namespace {

/// Bernoulli feed loss that starts only after the anchor update has landed,
/// so no receiver mistakes a lost seq 1 for pre-join history.
class GatedLoss final : public LossModel {
public:
    GatedLoss(double p, TimePoint on) : p_(p), on_(on) {}
    bool drop(Rng& rng, TimePoint now) override { return now >= on_ && rng.bernoulli(p_); }

private:
    double p_;
    TimePoint on_;
};

struct Count {
    std::uint64_t deliveries = 0;
    double allocs_per_delivery = 0;
    double bytes_per_delivery = 0;
};

constexpr std::uint32_t kWarmupUpdates = 100;
constexpr std::uint32_t kCountedUpdates = 1000;

/// Runs the lossy 20x50 shape and counts allocations over the counted
/// updates; `deliveries` reads the observer's running delivery total.
Count count_allocations(std::shared_ptr<ScenarioObserver> observer,
                        const std::function<std::uint64_t()>& deliveries) {
    ScenarioConfig config;
    config.topology.sites = 20;
    config.topology.receivers_per_site = 50;
    config.seed = 5;
    config.observer = std::move(observer);
    DisScenario scenario{config};
    const TimePoint loss_on = time_zero() + millis(300);
    for (const auto& site : scenario.topology().sites)
        scenario.network().set_loss(scenario.topology().backbone, site.router,
                                    std::make_unique<GatedLoss>(0.02, loss_on));

    scenario.start();
    scenario.send_update(std::size_t{64});  // the loss-free anchor
    scenario.run_until(loss_on);
    for (std::uint32_t i = 0; i < kWarmupUpdates; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(20));
    }

    const std::uint64_t delivered_before = deliveries();
    g_allocs = 0;
    g_bytes = 0;
    g_counting = true;
    for (std::uint32_t i = 0; i < kCountedUpdates; ++i) {
        scenario.send_update(std::size_t{200});
        scenario.run_for(millis(20));
    }
    g_counting = false;

    Count c;
    c.deliveries = deliveries() - delivered_before;
    const auto per = [&](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(c.deliveries);
    };
    c.allocs_per_delivery = per(g_allocs);
    c.bytes_per_delivery = per(g_bytes);
    std::printf("%llu deliveries: %.3f allocations, %.1f bytes per delivery\n",
                static_cast<unsigned long long>(c.deliveries), c.allocs_per_delivery,
                c.bytes_per_delivery);
    return c;
}

constexpr double kMaxAllocsPerDelivery = 0.3;

TEST(AllocGate, CountingObserverDeliveriesStayOffTheHeap) {
    auto observer = std::make_shared<CountingObserver>();
    const Count c = count_allocations(observer, [&] { return observer->deliveries(); });
    // Every receiver gets every counted update, give or take the
    // recoveries in flight at either end of the window.
    EXPECT_GT(c.deliveries, std::uint64_t{kCountedUpdates} * 1000 * 9 / 10);
    EXPECT_LE(c.allocs_per_delivery, kMaxAllocsPerDelivery);
}

TEST(AllocGate, RecordingObserverDeliveriesStayOffTheHeap) {
    auto observer = std::make_shared<RecordingObserver>();
    const Count c = count_allocations(observer, [&] { return observer->deliveries().size(); });
    EXPECT_GT(c.deliveries, std::uint64_t{kCountedUpdates} * 1000 * 9 / 10);
    EXPECT_LE(c.allocs_per_delivery, kMaxAllocsPerDelivery);
}

}  // namespace
}  // namespace lbrm::sim
