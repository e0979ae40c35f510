// Multi-process sharded driver (DESIGN.md "Sharded execution").
//
// The coordinator forks one child per shard *before* any simulation state
// exists (the child address spaces stay small) and speaks a lockstep frame
// protocol over per-child AF_UNIX socketpairs (transport/frame.hpp):
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
//   done:      child --REPORT--> parent  digest, the full structured
//              registry snapshot (histogram buckets intact), sampler
//              series, completed recovery episodes, the per-window
//              pipe-wait profile, optional trace-ring spans, peak RSS
//              (getrusage), pipe-wait / wall / CPU time
//
// The IN frame lists source shards in ascending order, giving the same
// deterministic merge order as the in-process drivers.  Every child runs
// the identical window loop (same t0, same derived lookahead), so all
// children transition to REPORT at the same window index and the parent
// never needs to know the window count in advance.
#include "sim/shard.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "obs/wire.hpp"
#include "transport/frame.hpp"

namespace lbrm::sim {

namespace {

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

[[noreturn]] void run_shard_child(const ShardRunConfig& cfg,
                                  const std::vector<std::uint32_t>& site_shard,
                                  std::uint32_t shard, std::uint32_t shards,
                                  int fd) {
    try {
        ShardDomain dom;
        init_shard_domain(dom, cfg, site_shard, shard, shards);
        const Duration window = resolve_window(cfg, *dom.scenario);
        const TimePoint t0 = dom.scenario->simulator().now();
        const TimePoint deadline = t0 + cfg.run_for;

        // Barrier with the coordinator: don't start the window loop (or the
        // clocks) until every sibling has finished building its domain.
        {
            ByteWriter ready;
            ready.u8(kReady);
            if (!transport::write_frame(fd, ready.data())) _exit(2);
            const auto go = transport::read_frame(fd);
            if (!go || go->empty() || (*go)[0] != kGo) _exit(2);
        }

        // The trace ring, opt-in: wall-time spans are profiling data, so
        // determinism A/Bs leave collect_trace off.  Installed only after GO
        // so construction noise stays out of the window-loop profile.
        std::unique_ptr<obs::TraceRecorder> recorder;
        if (cfg.collect_trace) {
            recorder = std::make_unique<obs::TraceRecorder>();
            recorder->install();
        }

        std::uint64_t windows = 0;
        const std::uint64_t w0 = wall_ns_now();
        rusage ru0{};
        ::getrusage(RUSAGE_SELF, &ru0);
        TimePoint t = t0;
        while (t < deadline) {
            const TimePoint bound = std::min(t + window, deadline);
            dom.scenario->simulator().run_before(bound);
            ++windows;

            ByteWriter out;
            out.u8(kOut);
            for (std::uint32_t j = 0; j < shards; ++j) {
                ByteWriter seg;
                for (const Network::RemoteEvent& ev : dom.outbox[j])
                    encode_remote(seg, ev);
                out.u32(static_cast<std::uint32_t>(dom.outbox[j].size()));
                out.u32(static_cast<std::uint32_t>(seg.size()));
                out.bytes(seg.data());
                dom.outbox[j].clear();
            }
            if (!transport::write_frame(fd, out.data())) _exit(2);

            const std::uint64_t b0 = wall_ns_now();
            const auto in = transport::read_frame(fd);
            const std::uint64_t waited = wall_ns_now() - b0;
            dom.wait_ns += waited;
            dom.window_wait_ns.push_back(waited);
            if (!in) _exit(2);
            ByteReader rd(*in);
            if (rd.u8().value_or(0) != kIn) _exit(2);
            for (std::uint32_t i = 0; i < shards; ++i) {
                const auto count = rd.u32();
                const auto len = rd.u32();
                if (!count || !len) _exit(2);
                for (std::uint32_t k = 0; k < *count; ++k) {
                    const auto ev = decode_remote(rd);
                    if (!ev) _exit(2);
                    dom.scenario->network().inject_remote(*ev);
                }
            }
            t = bound;
        }
        dom.scenario->run_until(deadline);
        const std::uint64_t wall = wall_ns_now() - w0;

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        const auto tv_ns = [](const timeval& tv) {
            return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
                   static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
        };
        const std::uint64_t cpu_ns = (tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime)) -
                                     (tv_ns(ru0.ru_utime) + tv_ns(ru0.ru_stime));
        obs::Metrics& m = dom.scenario->metrics();
        (void)m.episodes();  // materialise the recovery.* rows on every shard alike
        ByteWriter rep;
        rep.u8(kReport);
        rep.u64(dom.digest.sum);
        rep.u64(dom.digest.packets);
        rep.u64(dom.digest.chained);
        rep.i64(window.count());
        rep.u64(windows);
        rep.u64(dom.wait_ns);
        rep.u64(wall);
        rep.u64(cpu_ns);
        rep.u64(static_cast<std::uint64_t>(ru.ru_maxrss));  // kB on Linux
        // REPORT v2 payload: typed sections instead of flattened rows, so
        // histogram buckets, sampler series and episodes survive the hop.
        obs::wire::encode_registry(rep, m.export_snapshot());
        obs::wire::encode_sampler(rep, dom.scenario->sampler().export_snapshot());
        obs::wire::encode_episodes(rep, m.episodes().records());
        obs::wire::encode_u64s(rep, dom.window_wait_ns);
        if (recorder != nullptr) {
            recorder->uninstall();
            std::vector<obs::PortableSpan> spans;
            for (const obs::TraceRecorder::Span& sp : recorder->spans())
                spans.push_back({sp.name, sp.tid, sp.start_ns, sp.dur_ns});
            rep.u8(1);
            obs::wire::encode_spans(rep, spans);
        } else {
            rep.u8(0);
        }
        if (!transport::write_frame(fd, rep.data())) _exit(2);
        _exit(0);
    } catch (...) {
        _exit(3);
    }
}

}  // namespace

ShardResult run_sharded_processes(const ShardRunConfig& cfg) {
    const std::uint32_t n = cfg.shards;
    const std::vector<std::uint32_t> site_shard = resolve_site_shard(cfg);

    std::vector<std::array<int, 2>> sv(n);
    for (std::uint32_t s = 0; s < n; ++s)
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv[s].data()) != 0)
            throw std::runtime_error("shard: socketpair failed");

    std::vector<pid_t> pids(n);
    for (std::uint32_t s = 0; s < n; ++s) {
        const pid_t pid = ::fork();
        if (pid < 0) throw std::runtime_error("shard: fork failed");
        if (pid == 0) {
            for (std::uint32_t t = 0; t < n; ++t) {
                ::close(sv[t][0]);
                if (t != s) ::close(sv[t][1]);
            }
            run_shard_child(cfg, site_shard, s, n, sv[s][1]);  // never returns
        }
        pids[s] = pid;
    }
    for (std::uint32_t s = 0; s < n; ++s) ::close(sv[s][1]);

    ShardResult r;

    // Wait for every child to finish building, then release them together:
    // the traffic clock below must not absorb the (serialised, minutes-long
    // at 10M nodes) domain constructions.
    for (std::uint32_t s = 0; s < n; ++s) {
        const auto f = transport::read_frame(sv[s][0]);
        if (!f || f->empty() || (*f)[0] != kReady)
            throw std::runtime_error("shard: child " + std::to_string(s) +
                                     " died during construction");
    }
    {
        ByteWriter go;
        go.u8(kGo);
        for (std::uint32_t s = 0; s < n; ++s)
            if (!transport::write_frame(sv[s][0], go.data()))
                throw std::runtime_error("shard: child " + std::to_string(s) +
                                         " hung up on GO");
    }

    std::uint64_t wait_total = 0;
    std::uint64_t wall_total = 0;
    const std::uint64_t w0 = wall_ns_now();
    std::vector<std::vector<std::uint8_t>> frames(n);
    bool done = false;
    while (!done) {
        for (std::uint32_t s = 0; s < n; ++s) {
            auto f = transport::read_frame(sv[s][0]);
            if (!f || f->empty())
                throw std::runtime_error("shard: child " + std::to_string(s) +
                                         " hung up mid-run");
            frames[s] = std::move(*f);
        }
        for (std::uint32_t s = 0; s < n; ++s)
            if (frames[s][0] != frames[0][0])
                throw std::runtime_error("shard: children out of lockstep");

        if (frames[0][0] == kReport) {
            for (std::uint32_t s = 0; s < n; ++s) {
                ByteReader rd(frames[s]);
                (void)rd.u8();
                TraceDigest d;
                d.sum = rd.u64().value_or(0);
                d.packets = rd.u64().value_or(0);
                d.chained = rd.u64().value_or(0);
                r.digest.merge(d);
                if (n == 1) r.digest.chained = d.chained;
                r.window = Duration{rd.i64().value_or(0)};
                r.windows = std::max(r.windows, rd.u64().value_or(0));
                wait_total += rd.u64().value_or(0);
                wall_total += rd.u64().value_or(0);
                r.cpu_seconds_max_shard = std::max(
                    r.cpu_seconds_max_shard,
                    static_cast<double>(rd.u64().value_or(0)) * 1e-9);
                r.peak_rss_kb.push_back(rd.u64().value_or(0));
                auto snap = obs::wire::decode_registry(rd);
                auto sampler = obs::wire::decode_sampler(rd);
                auto episodes = obs::wire::decode_episodes(rd);
                auto waits = obs::wire::decode_u64s(rd);
                const auto has_spans = rd.u8();
                std::optional<std::vector<obs::PortableSpan>> spans;
                if (has_spans && *has_spans != 0) {
                    spans = obs::wire::decode_spans(rd);
                    if (!spans)
                        throw std::runtime_error("shard: malformed child report");
                }
                if (!snap || !sampler || !episodes || !waits || !has_spans ||
                    !rd.ok())
                    throw std::runtime_error("shard: malformed child report");
                add_shard_snapshot(r, std::move(*snap));
                r.sampler.merge(*sampler);
                r.shard_episodes.push_back(std::move(*episodes));
                r.shard_window_wait_ns.push_back(std::move(*waits));
                r.shard_spans.push_back(spans ? std::move(*spans)
                                              : std::vector<obs::PortableSpan>{});
            }
            done = true;
            break;
        }

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
            if (!transport::write_frame(sv[j][0], out[j].data()))
                throw std::runtime_error("shard: child " + std::to_string(j) +
                                         " hung up on IN");
        r.window_splice_ns.push_back(wall_ns_now() - s0);
    }
    r.wall_seconds = static_cast<double>(wall_ns_now() - w0) * 1e-9;
    if (wall_total > 0)
        r.stall_fraction =
            static_cast<double>(wait_total) / static_cast<double>(wall_total);

    for (std::uint32_t s = 0; s < n; ++s) {
        ::close(sv[s][0]);
        int status = 0;
        ::waitpid(pids[s], &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("shard: child " + std::to_string(s) +
                                     " exited abnormally");
    }
    return r;
}

}  // namespace lbrm::sim
