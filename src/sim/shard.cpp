// The sharded drivers (DESIGN.md "Sharded execution").
//
// Every driver builds its domains, runs them through one window loop
// (run_windows), turns each finished domain into a ShardReport and folds the
// reports into its ShardResult.  The drivers differ only in where the
// domains live and how a window's cross-shard arrivals move:
//
//   run_unsharded          one domain, no shard view, one window of run_for
//   run_sharded_inline     every domain on this thread; the exchange splices
//                          the outboxes in memory
//   run_sharded_processes  one forked child per domain, forked *before* any
//                          simulation state exists (the child address spaces
//                          stay small), speaking a lockstep frame protocol
//                          with the coordinator over per-child AF_UNIX
//                          socketpairs (transport/frame.hpp):
//
//   startup:   child --READY--> parent  domain built, window resolved
//              parent --GO--> child     all shards built; the traffic
//              clock starts here, so per-shard construction time (which
//              serialises on a small box) never pollutes wall_seconds
//   window k:  child --OUT--> parent   per-target batches of RemoteEvents
//              parent routes: concatenates, per target, the matching
//              segment of every source's OUT frame -- no event decoding,
//              the OUT layout is already sliced by target shard
//              parent --IN--> child    per-source batches for that shard
//   done:      child --REPORT--> parent  the kReport byte, then the child's
//              ShardReport field list
//
// The IN frame lists source shards in ascending order, giving the same
// deterministic merge order as the in-process drivers.  Every child runs
// the identical window loop (same t0, same derived lookahead), so all
// children transition to REPORT at the same window index and the parent
// never needs to know the window count in advance.
#include "sim/shard.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <numeric>
#include <span>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "packet/packet.hpp"
#include "transport/frame.hpp"

namespace lbrm::sim {

namespace {

/// Seed of every per-packet digest hash.  Not the FNV-1a offset basis
/// (14695981039346656037, one digit longer) but an arbitrary constant; the
/// PinnedTrace digests depend on it, so it stays.
constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

constexpr std::uint8_t kOut = 1;
constexpr std::uint8_t kIn = 2;
constexpr std::uint8_t kReport = 3;
constexpr std::uint8_t kReady = 4;
constexpr std::uint8_t kGo = 5;

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

std::uint64_t sum(const std::vector<std::uint64_t>& ns) {
    return std::accumulate(ns.begin(), ns.end(), std::uint64_t{0});
}

/// One shard's live state.  Taps and sinks bind to the member addresses, so
/// a domain must not move after build_domain.
struct ShardDomain {
    std::unique_ptr<DisScenario> scenario;
    TraceDigest digest;
    /// Boundary-crossing arrivals emitted this window, per target shard.
    std::vector<std::vector<Network::RemoteEvent>> outbox;
    std::uint64_t cpu_ns = 0;  ///< CPU of this domain's slices of the loop
    /// ns blocked on the coordinator pipe, per window (process driver).
    std::vector<std::uint64_t> window_wait_ns;
};

/// Build shard `shard` of `shards` into `dom`: construct the scenario (no
/// shard view when `site_shard` is empty), install the digest tap and the
/// outbox sink, run the setup hook, start().
void build_domain(ShardDomain& dom, const ShardRunConfig& cfg,
                  const std::vector<std::uint32_t>& site_shard, std::uint32_t shard,
                  std::uint32_t shards) {
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
    if (cfg.setup) cfg.setup(*dom.scenario, shard);
    dom.scenario->start();
}

/// The conservative lookahead over a built shard: the min cut-cable
/// propagation; a cut-free plan runs in one window (= run_for).  Throws when
/// the lookahead is not positive.
Duration lookahead(const ShardRunConfig& cfg, DisScenario& scenario) {
    const Duration w = scenario.network().min_cut_propagation();
    if (w == Duration::max()) return cfg.run_for;
    if (w <= Duration::zero())
        throw std::logic_error("shard: zero-delay cut cable, no lookahead");
    return w;
}

/// Charge `d` with the CPU `work` burns.  One thread may run several domains
/// in turn, so each domain is charged for its own slices only.
void charge(ShardDomain& d, const auto& work) {
    const std::uint64_t c0 = cpu_ns_now();
    work();
    d.cpu_ns += cpu_ns_now() - c0;
}

struct Loop {
    std::uint64_t windows = 0;
    std::uint64_t wall_ns = 0;
};

/// The window protocol every driver runs (DESIGN.md "Sharded execution"):
/// each window runs every domain strictly before min(t + W, deadline), then
/// `exchange()` moves that window's cross-shard arrivals.  Events exactly at
/// the deadline run last, in an inclusive run_until like the unsharded
/// run_for; their emissions land past the deadline (W > 0), so the outboxes
/// they fill are exactly the arrivals the baseline leaves in its heap.
Loop run_windows(std::span<ShardDomain> doms, Duration window, Duration run_for,
                 const auto& exchange) {
    const TimePoint t0 = doms.front().scenario->simulator().now();
    const TimePoint deadline = t0 + run_for;
    Loop loop;
    const std::uint64_t w0 = wall_ns_now();
    TimePoint t = t0;
    while (t < deadline) {
        const TimePoint bound = std::min(t + window, deadline);
        for (ShardDomain& d : doms)
            charge(d, [&] { d.scenario->simulator().run_before(bound); });
        ++loop.windows;
        exchange();
        t = bound;
    }
    for (ShardDomain& d : doms) charge(d, [&] { d.scenario->run_until(deadline); });
    loop.wall_ns = wall_ns_now() - w0;
    return loop;
}

/// What a finished scenario reports of itself: its registry, sampler and
/// episode records.
ShardReport scenario_report(DisScenario& scenario) {
    obs::Metrics& m = scenario.metrics();
    (void)m.episodes();  // materialise the recovery.* rows on every shard alike
    ShardReport rep;
    rep.registry = m.export_snapshot();
    rep.sampler = scenario.sampler().export_snapshot();
    rep.episodes = m.episodes().records();
    return rep;
}

/// The report of a finished domain: its scenario's, plus the digest and the
/// window loop's figures.  Peak RSS and trace spans belong to a process, not
/// a domain, so the process driver's child adds them.
ShardReport make_report(ShardDomain& dom, Duration window, const Loop& loop) {
    ShardReport rep = scenario_report(*dom.scenario);
    rep.digest = dom.digest;
    rep.window = window;
    rep.windows = loop.windows;
    rep.wait_ns = sum(dom.window_wait_ns);
    rep.wall_ns = loop.wall_ns;
    rep.cpu_ns = dom.cpu_ns;
    rep.window_wait_ns = dom.window_wait_ns;
    return rep;
}

/// Fold every domain's report, and the driver's per-window splice times,
/// into one result: digests merge (a one-domain result keeps its chain),
/// registry snapshots and sampler series merge structurally, and the
/// headline counts and the flat `counters` map are read once from the
/// merged snapshot.
ShardResult fold(std::vector<ShardReport> reports, std::vector<std::uint64_t> splice_ns) {
    ShardResult r;
    r.window_splice_ns = std::move(splice_ns);
    std::uint64_t wait_ns = 0;
    std::uint64_t wall_ns = 0;
    for (ShardReport& rep : reports) {
        r.digest.merge(rep.digest);
        r.window = rep.window;
        r.windows = std::max(r.windows, rep.windows);
        wait_ns += rep.wait_ns;
        wall_ns += rep.wall_ns;
        r.wall_seconds = std::max(r.wall_seconds, static_cast<double>(rep.wall_ns) * 1e-9);
        r.cpu_seconds_max_shard =
            std::max(r.cpu_seconds_max_shard, static_cast<double>(rep.cpu_ns) * 1e-9);
        if (rep.peak_rss_kb != 0) r.peak_rss_kb.push_back(rep.peak_rss_kb);
        r.merged_snapshot.merge(rep.registry);
        r.shard_snapshots.push_back(std::move(rep.registry));
        r.sampler.merge(rep.sampler);
        r.shard_episodes.push_back(std::move(rep.episodes));
        r.shard_window_wait_ns.push_back(std::move(rep.window_wait_ns));
        r.shard_spans.push_back(std::move(rep.spans));
    }
    if (reports.size() == 1) r.digest.chained = reports.front().digest.chained;
    if (wall_ns > 0)
        r.stall_fraction = static_cast<double>(wait_ns) / static_cast<double>(wall_ns);
    r.deliveries = static_cast<std::uint64_t>(r.merged_snapshot.scalar("sim.deliveries"));
    r.remote_emits = static_cast<std::uint64_t>(r.merged_snapshot.scalar("sim.remote_emits"));
    r.remote_drops = static_cast<std::uint64_t>(r.merged_snapshot.scalar("sim.remote_drops"));
    for (const obs::Metrics::Sample& s : r.merged_snapshot.flatten()) r.counters[s.name] += s.value;
    return r;
}

/// run_unsharded and run_sharded_inline: every domain on this thread, each
/// window's arrivals spliced from the source outboxes into the targets.  An
/// empty site map builds one domain with no shard view, run in one window.
ShardResult run_in_process(const ShardRunConfig& cfg,
                           const std::vector<std::uint32_t>& site_shard) {
    const std::uint32_t n = site_shard.empty() ? 1 : cfg.shards;
    std::vector<ShardDomain> doms(n);
    for (std::uint32_t s = 0; s < n; ++s) build_domain(doms[s], cfg, site_shard, s, n);
    const Duration window =
        site_shard.empty() ? cfg.run_for : lookahead(cfg, *doms[0].scenario);

    std::vector<std::uint64_t> splice_ns;
    const Loop loop = run_windows(doms, window, cfg.run_for, [&] {
        // Deterministic merge order -- source shard ascending, emission
        // order within a source (DESIGN.md "Sharded execution"); results do
        // not depend on it (keys order the heap), but keep the replay exact.
        const std::uint64_t s0 = wall_ns_now();
        for (std::uint32_t j = 0; j < n; ++j) {
            charge(doms[j], [&] {
                for (ShardDomain& src : doms) {
                    for (const Network::RemoteEvent& ev : src.outbox[j])
                        doms[j].scenario->network().inject_remote(ev);
                    src.outbox[j].clear();
                }
            });
        }
        splice_ns.push_back(wall_ns_now() - s0);
    });

    std::vector<ShardReport> reports;
    for (ShardDomain& d : doms) reports.push_back(make_report(d, window, loop));
    return fold(std::move(reports), std::move(splice_ns));
}

/// The site-to-shard map of a sharded run, checked before any domain is
/// built or forked.  A receiver's JoinGroup/LeaveGroup on the
/// retransmission channel changes membership only in its own shard, which
/// another shard would learn a window late at best, so that channel is
/// refused past one shard.
std::vector<std::uint32_t> site_map(const ShardRunConfig& cfg) {
    if (cfg.scenario.use_retrans_channel && cfg.shards > 1)
        throw std::invalid_argument(
            "shard: use_retrans_channel needs a single shard (joins are shard-local)");
    return ShardPlan::contiguous(cfg.scenario.topology.sites, cfg.shards).site_shard;
}

// ---------------------------------------------------------------------------
// Multi-process driver
// ---------------------------------------------------------------------------

bool send_tag(int fd, std::uint8_t tag) { return transport::write_frame(fd, {&tag, 1}); }

/// A child's exchange for one window: its outboxes go out as one OUT frame,
/// and the IN frame's arrivals are injected.  The time blocked on the IN
/// frame is the window's pipe wait.  Any failure ends the child.
void exchange_frames(ShardDomain& dom, int fd) {
    ByteWriter out;
    out.u8(kOut);
    for (std::vector<Network::RemoteEvent>& box : dom.outbox) {
        ByteWriter seg;
        for (const Network::RemoteEvent& ev : box) encode_remote(seg, ev);
        out.u32(static_cast<std::uint32_t>(box.size()));
        out.u32(static_cast<std::uint32_t>(seg.size()));
        out.bytes(seg.data());
        box.clear();
    }
    if (!transport::write_frame(fd, out.data())) _exit(2);

    const std::uint64_t b0 = wall_ns_now();
    const auto in = transport::read_frame(fd);
    dom.window_wait_ns.push_back(wall_ns_now() - b0);
    if (!in) _exit(2);
    ByteReader rd(*in);
    if (rd.u8().value_or(0) != kIn) _exit(2);
    for (std::size_t i = 0; i < dom.outbox.size(); ++i) {
        const auto count = rd.u32();
        const auto len = rd.u32();
        if (!count || !len) _exit(2);
        for (std::uint32_t k = 0; k < *count; ++k) {
            const auto ev = decode_remote(rd);
            if (!ev) _exit(2);
            dom.scenario->network().inject_remote(*ev);
        }
    }
}

[[noreturn]] void run_shard_child(const ShardRunConfig& cfg,
                                  const std::vector<std::uint32_t>& site_shard,
                                  std::uint32_t shard, int fd) {
    try {
        ShardDomain dom;
        build_domain(dom, cfg, site_shard, shard, cfg.shards);
        const Duration window = lookahead(cfg, *dom.scenario);

        // Barrier with the coordinator: don't start the window loop (or the
        // clocks) until every sibling has finished building its domain.
        if (!send_tag(fd, kReady)) _exit(2);
        const auto go = transport::read_frame(fd);
        if (!go || go->empty() || (*go)[0] != kGo) _exit(2);

        // The trace ring, opt-in: wall-time spans are profiling data, so
        // determinism A/Bs leave collect_trace off.  Installed only after GO
        // so construction noise stays out of the window-loop profile.
        std::unique_ptr<obs::TraceRecorder> recorder;
        if (cfg.collect_trace) {
            recorder = std::make_unique<obs::TraceRecorder>();
            recorder->install();
        }

        const Loop loop = run_windows({&dom, 1}, window, cfg.run_for, [&] {
            charge(dom, [&] { exchange_frames(dom, fd); });
        });

        ShardReport rep = make_report(dom, window, loop);
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        rep.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);  // kB on Linux
        if (recorder != nullptr) {
            recorder->uninstall();
            rep.spans = portable_spans(*recorder);
        }
        ByteWriter w;
        w.u8(kReport);
        write_fields(w, rep);
        if (!transport::write_frame(fd, w.data())) _exit(2);
        _exit(0);
    } catch (...) {
        _exit(3);
    }
}

/// The coordinator's end of every child: its socket and its pid.  The
/// destructor kills and reaps every child still listed, so a run that throws
/// leaves no process behind.
struct Children {
    std::vector<int> fds;
    std::vector<pid_t> pids;

    Children() = default;
    Children(const Children&) = delete;
    Children& operator=(const Children&) = delete;
    ~Children() {
        for (const pid_t pid : pids) ::kill(pid, SIGKILL);
        (void)reap();
    }

    /// Close every socket and wait for every child; true when each exited 0.
    bool reap() {
        for (const int fd : fds) ::close(fd);
        fds.clear();
        bool clean = true;
        for (const pid_t pid : pids) {
            int status = 0;
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
            clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        pids.clear();
        return clean;
    }
};

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
    Fnv1a fields{kDigestSeed};
    fields.mix(static_cast<std::uint64_t>(at.time_since_epoch().count()));
    fields.mix(link.from().value());
    fields.mix(link.to().value());
    fields.mix(delivered ? 1 : 0);
    fields.mix(encoded_size(packet));
    const std::uint64_t h = fnv1a(fields.h, packet);
    sum += h;
    ++packets;
    Fnv1a chain{chained ^ h};
    chain.mix(packets);
    chained = chain.h;
}

ShardResult run_unsharded(const ShardRunConfig& cfg) { return run_in_process(cfg, {}); }

std::vector<obs::PortableSpan> portable_spans(const obs::TraceRecorder& rec) {
    std::vector<obs::PortableSpan> out;
    for (const obs::TraceRecorder::Span& sp : rec.spans())
        out.push_back({sp.name, sp.tid, sp.start_ns, sp.dur_ns});
    return out;
}

ShardResult scenario_result(DisScenario& scenario) {
    std::vector<ShardReport> reports;
    reports.push_back(scenario_report(scenario));
    return fold(std::move(reports), {});
}

ShardResult run_sharded_inline(const ShardRunConfig& cfg) {
    return run_in_process(cfg, site_map(cfg));
}

ShardResult run_sharded_processes(const ShardRunConfig& cfg) {
    const std::uint32_t n = cfg.shards;
    const std::vector<std::uint32_t> site_shard = site_map(cfg);

    Children kids;
    for (std::uint32_t s = 0; s < n; ++s) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            throw std::runtime_error("shard: socketpair failed");
        kids.fds.push_back(sv[0]);
        const pid_t pid = ::fork();
        if (pid == 0) {
            for (const int fd : kids.fds) ::close(fd);  // every coordinator end
            run_shard_child(cfg, site_shard, s, sv[1]);  // never returns
        }
        ::close(sv[1]);
        if (pid < 0) throw std::runtime_error("shard: fork failed");
        kids.pids.push_back(pid);
    }
    const auto child_error = [](std::uint32_t s, const char* what) {
        return std::runtime_error("shard: child " + std::to_string(s) + " " + what);
    };

    // Wait for every child to finish building, then release them together:
    // the traffic clock must not absorb the (serialised, minutes-long at 10M
    // nodes) domain constructions.
    for (std::uint32_t s = 0; s < n; ++s) {
        const auto f = transport::read_frame(kids.fds[s]);
        if (!f || f->empty() || (*f)[0] != kReady)
            throw child_error(s, "died during construction");
    }
    for (std::uint32_t s = 0; s < n; ++s)
        if (!send_tag(kids.fds[s], kGo)) throw child_error(s, "hung up on GO");

    std::vector<std::uint64_t> splice_ns;
    std::vector<std::vector<std::uint8_t>> frames(n);
    while (true) {
        for (std::uint32_t s = 0; s < n; ++s) {
            auto f = transport::read_frame(kids.fds[s]);
            if (!f || f->empty()) throw child_error(s, "hung up mid-run");
            frames[s] = std::move(*f);
        }
        for (std::uint32_t s = 0; s < n; ++s)
            if (frames[s][0] != frames[0][0])
                throw std::runtime_error("shard: children out of lockstep");
        if (frames[0][0] == kReport) break;

        // Route one window: splice each source's per-target segments into
        // per-target IN frames, sources in ascending order (the
        // deterministic merge order of DESIGN.md "Sharded execution").
        const std::uint64_t s0 = wall_ns_now();
        std::vector<ByteWriter> out(n);
        for (std::uint32_t j = 0; j < n; ++j) out[j].u8(kIn);
        for (std::uint32_t i = 0; i < n; ++i) {
            ByteReader rd(frames[i]);
            if (rd.u8().value_or(0) != kOut)
                throw std::runtime_error("shard: expected OUT frame");
            for (std::uint32_t j = 0; j < n; ++j) {
                const auto count = rd.u32();
                const auto len = rd.u32();
                if (!count || !len)
                    throw std::runtime_error("shard: malformed OUT frame");
                const auto seg = rd.bytes(*len);
                if (!seg) throw std::runtime_error("shard: malformed OUT frame");
                out[j].u32(*count);
                out[j].u32(*len);
                out[j].bytes(*seg);
            }
        }
        for (std::uint32_t j = 0; j < n; ++j)
            if (!transport::write_frame(kids.fds[j], out[j].data()))
                throw child_error(j, "hung up on IN");
        splice_ns.push_back(wall_ns_now() - s0);
    }

    std::vector<ShardReport> reports;
    for (std::uint32_t s = 0; s < n; ++s) {
        ByteReader rd(frames[s]);
        (void)rd.u8();
        std::optional<ShardReport> rep = read_report(rd);
        if (!rep) throw child_error(s, "sent a malformed report");
        reports.push_back(std::move(*rep));
    }
    if (!kids.reap()) throw std::runtime_error("shard: a child exited abnormally");
    return fold(std::move(reports), std::move(splice_ns));
}

std::optional<ShardReport> read_report(ByteReader& r) {
    ShardReport rep;
    if (!read_fields(r, rep)) return std::nullopt;
    using obs::EpisodeTracker;
    for (const EpisodeTracker::Record& e : rep.episodes)
        if (e.kind > EpisodeTracker::Kind::kFetch || e.tier > EpisodeTracker::kTierPrimary ||
            e.reason > EpisodeTracker::Reason::kAbandoned)
            return std::nullopt;
    return rep;
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
    // The bytes come from another process: refuse a kind or scope outside
    // its enum, and a multicast segment with no children.
    if (ev.kind == Network::RemoteEvent::kMulticastRun) {
        if (ev.scope < static_cast<std::uint8_t>(McastScope::kSite) ||
            ev.scope > static_cast<std::uint8_t>(McastScope::kGlobal) || ev.entry_count == 0)
            return std::nullopt;
    } else if (ev.kind != Network::RemoteEvent::kUnicast) {
        return std::nullopt;
    }
    const auto pkt_bytes = r.bytes(pkt_len);
    if (!pkt_bytes) return std::nullopt;
    std::optional<Packet> pkt = decode(*pkt_bytes);
    if (!pkt) return std::nullopt;
    ev.packet = std::move(*pkt);
    return ev;
}

// ---------------------------------------------------------------------------
// The run artifact and the merged-telemetry rule
// ---------------------------------------------------------------------------

namespace {

void append_u64_array(std::string& json, const std::vector<std::uint64_t>& vals) {
    json += "[";
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (i) json += ",";
        obs::append_json_number(json, static_cast<double>(vals[i]));
    }
    json += "]";
}

/// Every completed episode record across the shards, sorted on all fields.
std::vector<obs::EpisodeTracker::Record> sorted_episodes(const ShardResult& r) {
    std::vector<obs::EpisodeTracker::Record> out;
    for (const auto& shard : r.shard_episodes) out.insert(out.end(), shard.begin(), shard.end());
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace

std::string observability_json(const ShardResult& r) {
    using obs::append_json_number;
    const obs::RegistrySnapshot& snap = r.merged_snapshot;
    std::string json = "{\"shards\":";
    append_json_number(json, static_cast<double>(r.shard_snapshots.size()));
    json += ",\"snapshot\":" + snap.to_json();
    json += ",\"sampler\":" + r.sampler.to_json();

    // Episode accounting, straight from the merged counters so the artifact
    // is self-auditing: opened == repaired + abandoned + open must hold.
    json += ",\"episodes\":{\"opened\":";
    append_json_number(json, snap.scalar("recovery.episodes_opened"));
    json += ",\"repaired\":";
    append_json_number(json, snap.scalar("recovery.episodes_repaired"));
    json += ",\"abandoned\":";
    append_json_number(json, snap.scalar("recovery.episodes_abandoned"));
    json += ",\"open\":";
    append_json_number(json, snap.scalar("recovery.episodes_open"));
    json += ",\"fetch_opened\":";
    append_json_number(json, snap.scalar("recovery.fetch_opened"));
    json += ",\"fetch_served\":";
    append_json_number(json, snap.scalar("recovery.fetch_served"));
    json += ",\"fetch_abandoned\":";
    append_json_number(json, snap.scalar("recovery.fetch_abandoned"));
    json += ",\"fetch_open\":";
    append_json_number(json, snap.scalar("recovery.fetch_open"));
    json += ",\"records_per_shard\":[";
    std::uint64_t total_records = 0;
    for (std::size_t s = 0; s < r.shard_episodes.size(); ++s) {
        if (s) json += ",";
        append_json_number(json, static_cast<double>(r.shard_episodes[s].size()));
        total_records += r.shard_episodes[s].size();
    }
    json += "],\"records\":";
    append_json_number(json, static_cast<double>(total_records));
    json += "}";

    // Sim-time episode spans, one Perfetto pid track per shard.
    json += ",\"episode_trace\":{\"traceEvents\":[";
    bool first = true;
    std::uint64_t id = 0;
    for (std::size_t s = 0; s < r.shard_episodes.size(); ++s)
        for (const obs::EpisodeTracker::Record& rec : r.shard_episodes[s])
            obs::append_episode_span(json, rec, id++, static_cast<std::uint32_t>(s), first);
    json += "]}";

    json += ",\"window\":{\"window_s\":";
    append_json_number(json, to_seconds(r.window));
    json += ",\"windows\":";
    append_json_number(json, static_cast<double>(r.windows));
    json += "}";

    // Last, every wall-clock number: the only bytes two runs of one config
    // may disagree on.
    json += ",\"wall\":{\"wall_seconds\":";
    append_json_number(json, r.wall_seconds);
    json += ",\"stall_fraction\":";
    append_json_number(json, r.stall_fraction);
    json += ",\"splice_ns\":";
    append_u64_array(json, r.window_splice_ns);
    json += ",\"shard_wait_ns\":[";
    for (std::size_t s = 0; s < r.shard_window_wait_ns.size(); ++s) {
        if (s) json += ",";
        append_u64_array(json, r.shard_window_wait_ns[s]);
    }
    json += "],\"trace\":{\"traceEvents\":[";
    first = true;
    char buf[128];
    for (std::size_t s = 0; s < r.shard_spans.size(); ++s) {
        for (const obs::PortableSpan& sp : r.shard_spans[s]) {
            if (!first) json += ",";
            first = false;
            json += "{\"ph\":\"X\",\"name\":\"" + sp.name + "\",\"pid\":";
            append_json_number(json, static_cast<double>(s));
            std::snprintf(buf, sizeof buf, ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                          sp.tid, static_cast<double>(sp.start_ns) / 1000.0,
                          static_cast<double>(sp.dur_ns) / 1000.0);
            json += buf;
        }
    }
    json += "]}}}";
    return json;
}

bool telemetry_comparable(const std::string& name) {
    return name.rfind("proto.", 0) == 0 || name.rfind("host.", 0) == 0 ||
           name.rfind("recovery.", 0) == 0 || name == "sim.deliveries";
}

std::vector<std::string> telemetry_mismatches(const ShardResult& mono,
                                              const ShardResult& sharded) {
    const obs::RegistrySnapshot& want = mono.merged_snapshot;
    const obs::RegistrySnapshot& got = sharded.merged_snapshot;
    std::vector<std::string> out;
    for (const auto& [name, value] : want.scalars) {
        if (!telemetry_comparable(name)) continue;
        const auto it = got.scalars.find(name);
        if (it == got.scalars.end() || it->second != value) out.push_back(name);
    }
    for (const auto& [name, value] : got.scalars)
        if (telemetry_comparable(name) && !want.scalars.contains(name)) out.push_back(name);
    // Bounds and bucket counts are integer sums of shard-invariant
    // observations, so they are exact; only `sum` may wobble in the last
    // float bits, because the shards add their partial sums in another order.
    for (const auto& [name, h] : want.histograms) {
        if (!telemetry_comparable(name)) continue;
        const auto it = got.histograms.find(name);
        if (it == got.histograms.end() || it->second.bounds != h.bounds ||
            it->second.counts != h.counts || it->second.count != h.count ||
            std::abs(it->second.sum - h.sum) > 1e-9 * (1.0 + std::abs(h.sum)))
            out.push_back(name);
    }
    if (got.histograms.size() != want.histograms.size()) out.push_back("histogram set");
    if (sorted_episodes(mono) != sorted_episodes(sharded)) out.push_back("episode records");
    return out;
}

}  // namespace lbrm::sim
