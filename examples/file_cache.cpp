// Fault-tolerant distributed file caching -- LBRM as an alternative to
// leases (Section 4.2).
//
// "Rather than having explicit leases on the files in its cache, each
// client subscribes to a LBRM channel from the server on which to
// (reliably) receive invalidation notifications.  If the client detects a
// failure of its connection to the server (by the absence of heartbeats or
// other traffic), it invalidates its cache; this action occurs in time
// comparable to a lease timeout."
//
// This example runs a file server and client caches on the simulator:
//  1. normal invalidation: a write at the server reliably invalidates all
//     cached copies (even through packet loss);
//  2. failure semantics: the server dies; every client notices the missing
//     heartbeats and conservatively invalidates its whole cache -- the
//     lease-expiry equivalent, with no per-file lease bookkeeping.
//
//   $ ./file_cache
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "sim/scenario.hpp"

namespace {

using namespace lbrm;

/// One client's file cache, driven by LBRM notifications.
class CachingClient {
public:
    explicit CachingClient(NodeId id) : id_(id) {}

    void cache_file(const std::string& name) { cached_.insert(name); }

    void on_invalidation(const std::string& name, double now_s) {
        if (cached_.erase(name) > 0)
            std::printf("  t=%6.3f s  client %u: '%s' invalidated, dropped from cache\n",
                        now_s, id_.value(), name.c_str());
    }

    void on_connection_lost(double now_s) {
        if (cached_.empty()) return;
        std::printf("  t=%6.3f s  client %u: server heartbeats gone -> flushing %zu "
                    "cached files (lease-timeout equivalent)\n",
                    now_s, id_.value(), cached_.size());
        cached_.clear();
    }

    [[nodiscard]] std::size_t cached_count() const { return cached_.size(); }

private:
    NodeId id_;
    std::set<std::string> cached_;
};

}  // namespace

int main() {
    using namespace lbrm::sim;

    std::printf("LBRM file caching (Section 4.2): 2 sites x 3 clients\n\n");

    ScenarioConfig config;
    config.topology.sites = 2;
    config.topology.receivers_per_site = 3;
    config.stat_ack.enabled = false;
    config.receiver_defaults.max_idle = secs(0.25);
    DisScenario scenario(config);
    const auto& topo = scenario.topology();
    auto& network = scenario.network();

    std::map<NodeId, CachingClient> clients;
    for (NodeId r : topo.all_receivers()) {
        auto [it, inserted] = clients.emplace(r, CachingClient{r});
        it->second.cache_file("/etc/motd");
        it->second.cache_file("/home/shared/plan.txt");
    }

    scenario.start();
    scenario.run_for(millis(200));

    auto invalidate = [&](const std::string& name) {
        std::printf("server: file '%s' written -> invalidation multicast\n", name.c_str());
        scenario.send_update(std::vector<std::uint8_t>(name.begin(), name.end()));
    };

    // The server announces the channel first; clients observe the stream
    // position before they rely on its reliability (a receiver that never
    // saw a stream cannot ask for its history -- receiver-reliable
    // semantics start at first observation).
    invalidate("(channel-announcement)");
    scenario.run_for(secs(1.0));

    // Process scenario records into client caches incrementally.
    std::size_t delivery_cursor = 0, notice_cursor = 0;
    auto pump_records = [&] {
        for (; delivery_cursor < scenario.deliveries().size(); ++delivery_cursor) {
            const auto& d = scenario.deliveries()[delivery_cursor];
            clients.at(d.node).on_invalidation(
                std::string(d.payload.begin(), d.payload.end()), to_seconds(d.at));
        }
        for (; notice_cursor < scenario.notices().size(); ++notice_cursor) {
            const auto& n = scenario.notices()[notice_cursor];
            if (n.kind == NoticeKind::kFreshnessLost && clients.contains(n.node))
                clients.at(n.node).on_connection_lost(to_seconds(n.at));
        }
    };

    // 1. Reliable invalidation, with the packet lost at site 1.
    network.set_loss(topo.backbone, topo.sites[1].router,
                     std::make_unique<BernoulliLoss>(1.0));
    invalidate("/home/shared/plan.txt");
    scenario.run_for(millis(50));
    network.set_loss(topo.backbone, topo.sites[1].router,
                     std::make_unique<BernoulliLoss>(0.0));
    scenario.run_for(secs(3.0));
    pump_records();

    std::size_t still_cached = 0;
    for (auto& [id, c] : clients) still_cached += c.cached_count();
    std::printf("after write: %zu file copies still cached (expected 6: only "
                "'/etc/motd' remains everywhere)\n\n",
                still_cached);

    // 2. Server failure: heartbeats stop; caches self-invalidate.
    std::printf("server crashes...\n");
    network.set_node_down(topo.source, true);
    scenario.run_for(secs(5.0));
    pump_records();

    std::size_t after_failure = 0;
    for (auto& [id, c] : clients) after_failure += c.cached_count();
    std::printf("\nafter failure: %zu cached copies remain (expected 0)\n", after_failure);

    const bool ok = still_cached == 6 && after_failure == 0;
    std::printf("%s\n", ok ? "file-cache semantics PASSED"
                           : "file-cache semantics FAILED");
    return ok ? 0 : 1;
}
