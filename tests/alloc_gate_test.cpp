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
// A second gate bounds what a dormant receiver adds to the heap from its
// attach through its wake (DESIGN.md "Memory engineering"): one group
// packet wakes every receiver of a dormant-mode scenario, and the live heap
// may grow by at most a fixed number of bytes per woken receiver.  A third
// pins what a lossy link direction holds before it spills its tallies.
//
// The binary replaces global operator new, so it cannot share one with
// another suite.  Under AddressSanitizer, whose runtime owns operator new,
// the sanitizer's allocation hooks do the counting instead.
#include <gtest/gtest.h>

#include <malloc.h>

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
#include "tests/one_cable.hpp"

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
/// Usable bytes allocated minus usable bytes freed while counting: the
/// growth of the live heap.
std::atomic<std::int64_t> g_live{0};

void count(std::size_t n) {
    if (!g_counting.load(std::memory_order_relaxed)) return;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
}

void track_live(std::int64_t usable) {
    if (g_counting.load(std::memory_order_relaxed))
        g_live.fetch_add(usable, std::memory_order_relaxed);
}

}  // namespace

#ifdef LBRM_ALLOC_GATE_ASAN

extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));
extern "C" std::size_t __sanitizer_get_allocated_size(const volatile void* p);

namespace {
[[maybe_unused]] const int g_hooks_installed = __sanitizer_install_malloc_and_free_hooks(
    [](const volatile void*, std::size_t n) {
        count(n);
        track_live(static_cast<std::int64_t>(n));
    },
    [](const volatile void* p) {
        track_live(-static_cast<std::int64_t>(__sanitizer_get_allocated_size(p)));
    });
}  // namespace

#else

void* operator new(std::size_t n) {
    count(n);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        track_live(static_cast<std::int64_t>(malloc_usable_size(p)));
        return p;
    }
    throw std::bad_alloc{};
}

void* operator new(std::size_t n, std::align_val_t al) {
    count(n);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) {
        track_live(static_cast<std::int64_t>(malloc_usable_size(p)));
        return p;
    }
    throw std::bad_alloc{};
}

// Not inlined: GCC would otherwise see free() on a pointer from operator new
// and warn (-Wmismatched-new-delete), although this pair is consistent.
[[gnu::noinline]] void operator delete(void* p) noexcept {
    if (p != nullptr) track_live(-static_cast<std::int64_t>(malloc_usable_size(p)));
    std::free(p);
}
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

// --- what a wake costs --------------------------------------------------------

// Live heap added per woken receiver, gcc 12 with glibc malloc (usable
// sizes).  Counted from start() to the wake: 799 bytes while each woken
// core copied its ReceiverConfig and the first timer block held two
// entries, 550 while each woken receiver carried its own pair of
// std::function handlers, 501 while every loss detector held an empty gap
// map in place (a 240-byte receiver block, a 256-byte chunk) and the
// anchor's tree build added routing rows, 451.3 and then 450.5 (a
// 200-byte block, a 208-byte chunk) while the LAN downlink that woke each
// receiver allocated a 96-byte chunk of link counters, and 437.4 once its
// 48-byte link record sat in the network's one record arena and a tree
// edge named its link by a 4-byte cable end.  Since a dormant receiver
// holds no host until its wake makes one, the window opens before the
// scenario is built, so it counts each receiver from attach through wake
// wherever its host is made; the topology, routing and the source's and
// loggers' hosts ride along, spread over the 5,000 receivers.  Counted
// that way, 878.5 bytes while every dormant receiver held a 160-byte host
// from attach, and 794.3 once it holds none until its wake and the woken
// host (128 B) and core (a 176-byte chunk) dropped their dormant fields.
// The bound leaves ~5% headroom, so a 64-byte regression per receiver
// fails it.
constexpr double kMaxHeapBytesPerWokenReceiver = 834;

TEST(AllocGate, WakingADormantReceiverStaysWithinItsHeapBudget) {
    ScenarioConfig config;
    config.topology.sites = 100;
    config.topology.receivers_per_site = 50;
    config.dormant_receivers = true;
    config.seed = 5;
    auto observer = std::make_shared<CountingObserver>();
    config.observer = observer;

    g_live = 0;
    g_counting = true;
    {
        DisScenario scenario{config};
        scenario.start();
        // One group packet wakes every receiver; each delivers it once.
        scenario.send_update(std::size_t{64});
        scenario.run_for(millis(200));
        g_counting = false;
    }

    const std::uint64_t woken = observer->deliveries();
    ASSERT_EQ(woken, 100u * 50u);
    const double per_wake = static_cast<double>(g_live.load()) / static_cast<double>(woken);
    std::printf("%llu receivers woken: %.1f heap bytes each, from attach\n",
                static_cast<unsigned long long>(woken), per_wake);
    EXPECT_LE(per_wake, kMaxHeapBytesPerWokenReceiver);
}

// --- what a lossy direction holds ---------------------------------------------

TEST(AllocGate, LossyUnspilledDirectionHoldsNoSpillTallies) {
    test::OneCable cable{LinkSpec{millis(1), 0.0, Duration::zero()}, 1};
    Link& link = cable.forward();  // its record, in the network's arena
    auto model = std::make_unique<BernoulliLoss>(0.1);
    constexpr PacketType kTypes[] = {PacketType::kData, PacketType::kHeartbeat,
                                     PacketType::kNack, PacketType::kRetransmission,
                                     PacketType::kLogAck};
    const auto send = [&link](PacketType type) {
        for (int i = 0; i < 8; ++i) (void)link.transmit(time_zero(), 100, type);
    };

    g_live = 0;
    g_counting = true;
    cable.net.set_loss(NodeId{1}, NodeId{2}, std::move(model));
    for (std::size_t t = 0; t < 4; ++t) send(kTypes[t]);
    g_counting = false;
    // Four types fit the record's inline tallies, so the direction holds
    // its loss stream and at most 64 bytes of rare state: no 256-byte
    // array of spilled tallies.
    EXPECT_LE(g_live.load(), static_cast<std::int64_t>(sizeof(Rng) + 64));

    // A fifth type spills every tally into a block of its own.
    g_live = 0;
    g_counting = true;
    send(kTypes[4]);
    g_counting = false;
    EXPECT_GE(g_live.load(), 256);
    for (const PacketType type : kTypes) EXPECT_GT(link.stats().packets_of(type), 0u);
}

}  // namespace
}  // namespace lbrm::sim
