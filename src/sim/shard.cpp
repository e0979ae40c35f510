#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include <sys/resource.h>

#include "packet/packet.hpp"

namespace lbrm::sim {

namespace {

/// Seed of every per-packet digest hash.  Not the FNV-1a offset basis
/// (14695981039346656037, one digit longer) but an arbitrary constant; the
/// PinnedTrace digests depend on it, so it stays.
constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xFFu;
        h *= Fnv1aSink::kPrime;
    }
    return h;
}

std::uint64_t wall_ns_now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// CPU (user+system) consumed so far by this process.  Deltas of this feed
/// ShardResult::cpu_seconds_max_shard; returns 0 where unsupported so the
/// metric degrades to "not measured" rather than garbage.
std::uint64_t cpu_ns_now() {
    rusage ru{};
    if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
    const auto tv_ns = [](const timeval& tv) {
        return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
    };
    return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

/// Fold one shard's end-of-run state into the result: digest, the headline
/// counters, the structured registry snapshot (histogram buckets intact),
/// the sampler series, the episode records, and the window-wait profile.
void collect_shard(ShardResult& r, const ShardDomain& dom) {
    r.digest.merge(dom.digest);
    obs::Metrics& m = dom.scenario->metrics();
    (void)m.episodes();  // materialise the recovery.* rows on every shard alike
    add_shard_snapshot(r, m.export_snapshot());
    r.sampler.merge(dom.scenario->sampler().export_snapshot());
    r.shard_episodes.push_back(m.episodes().records());
    r.shard_window_wait_ns.push_back(dom.window_wait_ns);
    r.shard_spans.emplace_back();  // spans ship only from the process driver
}

}  // namespace

ShardPlan ShardPlan::contiguous(std::size_t sites, std::uint32_t shards) {
    if (sites == 0) throw std::invalid_argument("ShardPlan: no sites");
    if (shards == 0 || shards > sites)
        throw std::invalid_argument("ShardPlan: need 1 <= shards <= sites");
    ShardPlan plan;
    plan.shards = shards;
    plan.site_shard.resize(sites);
    for (std::size_t s = 0; s < sites; ++s)
        plan.site_shard[s] =
            static_cast<std::uint32_t>(s * shards / sites);  // site 0 -> shard 0
    return plan;
}

void TraceDigest::add(TimePoint at, const Link& link, const Packet& packet,
                      bool delivered) {
    std::uint64_t h = kDigestSeed;
    h = fnv_u64(h, static_cast<std::uint64_t>(at.time_since_epoch().count()));
    h = fnv_u64(h, link.from().value());
    h = fnv_u64(h, link.to().value());
    h = fnv_u64(h, delivered ? 1 : 0);
    h = fnv_u64(h, encoded_size(packet));
    h = fnv1a(h, packet);
    sum += h;
    ++packets;
    chained = fnv_u64(chained ^ h, packets);
}

void add_shard_snapshot(ShardResult& r, obs::RegistrySnapshot snap) {
    const auto scalar = [&snap](const char* name) {
        const auto it = snap.scalars.find(name);
        return it == snap.scalars.end() ? 0 : static_cast<std::uint64_t>(it->second);
    };
    r.deliveries += scalar("sim.deliveries");
    r.remote_emits += scalar("sim.remote_emits");
    r.remote_drops += scalar("sim.remote_drops");
    for (const obs::Metrics::Sample& s : snap.flatten()) r.counters[s.name] += s.value;
    r.merged_snapshot.merge(snap);
    r.shard_snapshots.push_back(std::move(snap));
}

std::vector<std::uint32_t> resolve_site_shard(const ShardRunConfig& cfg) {
    if (!cfg.site_shard.empty()) {
        if (cfg.site_shard.size() != cfg.scenario.topology.sites)
            throw std::invalid_argument("shard: site_shard size != site count");
        return cfg.site_shard;
    }
    return ShardPlan::contiguous(cfg.scenario.topology.sites, cfg.shards).site_shard;
}

void init_shard_domain(ShardDomain& dom, const ShardRunConfig& cfg,
                       const std::vector<std::uint32_t>& site_shard,
                       std::uint32_t shard, std::uint32_t shards) {
    ScenarioConfig sc = cfg.scenario;
    sc.site_shard = site_shard;
    sc.shard_self = shard;
    if (cfg.make_observer) {
        if (sc.observer)
            throw std::invalid_argument("shard: observer and make_observer both set");
        sc.observer = cfg.make_observer(shard);
    }
    dom.outbox.assign(shards, {});
    dom.scenario = std::make_unique<DisScenario>(std::move(sc));
    Network& net = dom.scenario->network();
    net.set_tap([dig = &dom.digest](TimePoint at, const Link& l, const Packet& p,
                                    bool delivered) { dig->add(at, l, p, delivered); });
    net.set_remote_sink([ob = &dom.outbox](Network::RemoteEvent&& ev) {
        (*ob)[ev.target_shard].push_back(std::move(ev));
    });
    // Surface the window-stall series (time blocked on the coordinator
    // pipe) to the sampler: add_level on "shard.barrier_wait_ns".
    dom.scenario->metrics().gauge_fn("shard.barrier_wait_ns",
                                     [w = &dom.wait_ns] { return *w; });
    if (cfg.setup) cfg.setup(*dom.scenario, shard);
    dom.scenario->start();
}

Duration resolve_window(const ShardRunConfig& cfg, DisScenario& scenario) {
    if (cfg.window > Duration::zero()) return cfg.window;
    const Duration w =
        scenario.network().min_cut_propagation(scenario.node_shard());
    if (w == Duration::max()) return cfg.run_for;  // no cut: one window
    if (w <= Duration::zero())
        throw std::logic_error("shard: zero-delay cut cable, no lookahead");
    return w;
}

// ---------------------------------------------------------------------------
// Single-process baseline
// ---------------------------------------------------------------------------

ShardResult run_unsharded(const ShardRunConfig& cfg) {
    ShardDomain dom;
    ShardRunConfig base = cfg;
    base.scenario.site_shard.clear();
    base.scenario.shard_self = 0;
    init_shard_domain(dom, base, {}, 0, 1);

    ShardResult r;
    r.windows = 1;
    r.window = cfg.run_for;
    const std::uint64_t w0 = wall_ns_now();
    const std::uint64_t c0 = cpu_ns_now();
    dom.scenario->run_for(cfg.run_for);
    r.cpu_seconds_max_shard = static_cast<double>(cpu_ns_now() - c0) * 1e-9;
    r.wall_seconds = static_cast<double>(wall_ns_now() - w0) * 1e-9;
    collect_shard(r, dom);
    r.digest.chained = dom.digest.chained;
    return r;
}

// ---------------------------------------------------------------------------
// In-process drivers
// ---------------------------------------------------------------------------

ShardResult run_sharded_inline(const ShardRunConfig& cfg) {
    const std::uint32_t n = cfg.shards;
    const std::vector<std::uint32_t> site_shard = resolve_site_shard(cfg);
    std::vector<ShardDomain> doms(n);
    for (std::uint32_t s = 0; s < n; ++s)
        init_shard_domain(doms[s], cfg, site_shard, s, n);

    ShardResult r;
    r.window = resolve_window(cfg, *doms[0].scenario);
    const TimePoint t0 = doms[0].scenario->simulator().now();
    const TimePoint deadline = t0 + cfg.run_for;

    // One thread runs every shard in turn, so a process CPU delta around
    // each domain's slice attributes that CPU to that domain alone.
    const auto charge = [](ShardDomain& d, const auto& work) {
        const std::uint64_t c0 = cpu_ns_now();
        work();
        d.cpu_ns += cpu_ns_now() - c0;
    };

    const std::uint64_t w0 = wall_ns_now();
    TimePoint t = t0;
    while (t < deadline) {
        const TimePoint bound = std::min(t + r.window, deadline);
        for (ShardDomain& d : doms)
            charge(d, [&] { d.scenario->simulator().run_before(bound); });
        ++r.windows;
        // Deterministic merge order -- source shard ascending, emission
        // order within a source (DESIGN.md "Sharded execution"); results do
        // not depend on it (keys order the heap), but keep the replay exact.
        const std::uint64_t s0 = wall_ns_now();
        for (std::uint32_t j = 0; j < n; ++j) {
            charge(doms[j], [&] {
                for (std::uint32_t i = 0; i < n; ++i) {
                    for (const Network::RemoteEvent& ev : doms[i].outbox[j])
                        doms[j].scenario->network().inject_remote(ev);
                    doms[i].outbox[j].clear();
                }
            });
        }
        r.window_splice_ns.push_back(wall_ns_now() - s0);
        t = bound;
    }
    // Events exactly at the deadline run now (run_until is inclusive, like
    // the baseline's run_for); their emissions land beyond the deadline on
    // every shard -- the lookahead is positive -- so the outboxes they fill
    // are exactly the arrivals the baseline leaves unprocessed in its heap.
    for (ShardDomain& d : doms)
        charge(d, [&] { d.scenario->run_until(deadline); });
    r.wall_seconds = static_cast<double>(wall_ns_now() - w0) * 1e-9;

    for (const ShardDomain& d : doms) {
        collect_shard(r, d);
        r.cpu_seconds_max_shard = std::max(
            r.cpu_seconds_max_shard, static_cast<double>(d.cpu_ns) * 1e-9);
    }
    if (n == 1) r.digest.chained = doms[0].digest.chained;
    return r;
}

// ---------------------------------------------------------------------------
// RemoteEvent wire codec (multi-process runner)
// ---------------------------------------------------------------------------

/// The event's own fields, in wire order; the packet follows them as a
/// u32-length-prefixed encode().
void fields(auto& a, MaybeConst<Network::RemoteEvent> auto& ev) {
    a(ev.at, ev.key, ev.kind, ev.scope, ev.target_shard, ev.to, ev.entry_node, ev.hops_left,
      ev.tree_root, ev.entry_begin, ev.entry_count);
}

void encode_remote(ByteWriter& w, const Network::RemoteEvent& ev) {
    write_fields(w, ev);
    const std::vector<std::uint8_t> pkt = encode(ev.packet);
    w.u32(static_cast<std::uint32_t>(pkt.size()));
    w.bytes(pkt);
}

std::optional<Network::RemoteEvent> decode_remote(ByteReader& r) {
    Network::RemoteEvent ev;
    std::uint32_t pkt_len = 0;
    if (!read_fields(r, ev, pkt_len)) return std::nullopt;
    const auto pkt_bytes = r.bytes(pkt_len);
    if (!pkt_bytes) return std::nullopt;
    std::optional<Packet> pkt = decode(*pkt_bytes);
    if (!pkt) return std::nullopt;
    ev.packet = std::move(*pkt);
    return ev;
}

// ---------------------------------------------------------------------------
// Merged observability artifact
// ---------------------------------------------------------------------------

namespace {

void append_num(std::string& json, double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<std::int64_t>(v)))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.9g", v);
    json += buf;
}

void append_u64_array(std::string& json, const std::vector<std::uint64_t>& vals) {
    json += "[";
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (i) json += ",";
        append_num(json, static_cast<double>(vals[i]));
    }
    json += "]";
}

}  // namespace

std::string shard_observability_json(const ShardResult& r) {
    const auto scalar = [&](const char* name) {
        auto it = r.merged_snapshot.scalars.find(name);
        return it != r.merged_snapshot.scalars.end() ? it->second : 0.0;
    };

    std::string json = "{\"shards\":";
    append_num(json, static_cast<double>(r.shard_snapshots.size()));
    json += ",\"snapshot\":" + r.merged_snapshot.to_json();
    json += ",\"sampler\":" + r.sampler.to_json();

    // Episode accounting, straight from the merged counters so the artifact
    // is self-auditing: opened == repaired + abandoned + open must hold.
    json += ",\"episodes\":{\"opened\":";
    append_num(json, scalar("recovery.episodes_opened"));
    json += ",\"repaired\":";
    append_num(json, scalar("recovery.episodes_repaired"));
    json += ",\"abandoned\":";
    append_num(json, scalar("recovery.episodes_abandoned"));
    json += ",\"open\":";
    append_num(json, scalar("recovery.episodes_open"));
    json += ",\"fetch_opened\":";
    append_num(json, scalar("recovery.fetch_opened"));
    json += ",\"fetch_served\":";
    append_num(json, scalar("recovery.fetch_served"));
    json += ",\"fetch_abandoned\":";
    append_num(json, scalar("recovery.fetch_abandoned"));
    json += ",\"fetch_open\":";
    append_num(json, scalar("recovery.fetch_open"));
    json += ",\"records_per_shard\":[";
    std::uint64_t total_records = 0;
    for (std::size_t s = 0; s < r.shard_episodes.size(); ++s) {
        if (s) json += ",";
        append_num(json, static_cast<double>(r.shard_episodes[s].size()));
        total_records += r.shard_episodes[s].size();
    }
    json += "],\"records\":";
    append_num(json, static_cast<double>(total_records));
    json += "}";

    // Window-protocol profile.  splice/wait are wall-clock by nature --
    // consumers comparing artifacts across runs must ignore this section.
    json += ",\"window_protocol\":{\"window_s\":";
    append_num(json, to_seconds(r.window));
    json += ",\"windows\":";
    append_num(json, static_cast<double>(r.windows));
    json += ",\"stall_fraction\":";
    append_num(json, r.stall_fraction);
    json += ",\"wall_seconds\":";
    append_num(json, r.wall_seconds);
    json += ",\"splice_ns\":";
    append_u64_array(json, r.window_splice_ns);
    json += ",\"shard_wait_ns\":[";
    for (std::size_t s = 0; s < r.shard_window_wait_ns.size(); ++s) {
        if (s) json += ",";
        append_u64_array(json, r.shard_window_wait_ns[s]);
    }
    json += "]}";

    // Sim-time episode spans, one Perfetto pid track per shard.
    json += ",\"episode_trace\":{\"traceEvents\":[";
    bool first = true;
    std::uint64_t id = 0;
    for (std::size_t s = 0; s < r.shard_episodes.size(); ++s)
        for (const obs::EpisodeTracker::Record& rec : r.shard_episodes[s])
            obs::append_episode_span(json, rec, id++,
                                     static_cast<std::uint32_t>(s), first);
    json += "]}";

    // Wall-time spans from the children's trace rings (collect_trace only).
    json += ",\"trace\":{\"traceEvents\":[";
    first = true;
    char buf[128];
    for (std::size_t s = 0; s < r.shard_spans.size(); ++s) {
        for (const obs::PortableSpan& sp : r.shard_spans[s]) {
            if (!first) json += ",";
            first = false;
            json += "{\"ph\":\"X\",\"name\":\"" + sp.name + "\",\"pid\":";
            append_num(json, static_cast<double>(s));
            std::snprintf(buf, sizeof buf, ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                          sp.tid, static_cast<double>(sp.start_ns) / 1000.0,
                          static_cast<double>(sp.dur_ns) / 1000.0);
            json += buf;
        }
    }
    json += "]}}";
    return json;
}

}  // namespace lbrm::sim
