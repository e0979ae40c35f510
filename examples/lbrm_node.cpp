// lbrm_node -- run one LBRM protocol role as a real process over UDP.
//
// Start a logging server, a source and receivers in separate terminals (or
// machines) and watch log-based recovery work over an actual network:
//
//   # logging server (node 2)
//   ./lbrm_node --role logger --id 2 --source 1 --bind 127.0.0.1:7002
//               --peer 1=127.0.0.1:7001 --peer 3=127.0.0.1:7003
//
//   # receiver (node 3)
//   ./lbrm_node --role receiver --id 3 --source 1 --logger 2
//               --bind 127.0.0.1:7003
//               --peer 1=127.0.0.1:7001 --peer 2=127.0.0.1:7002
//
//   # source (node 1): every stdin line becomes one multicast update
//   ./lbrm_node --role sender --id 1 --primary 2 --bind 127.0.0.1:7001
//               --peer 2=127.0.0.1:7002 --peer 3=127.0.0.1:7003
//
// With no --mcast group address the node uses unicast fan-out over the
// peer directory (works everywhere); pass --mcast 239.1.2.3:7100 to use
// real IP multicast.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "transport/udp_endpoint.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::transport;

struct Options {
    std::string role;
    NodeId id{0};
    GroupId group{1};
    SockAddr bind = SockAddr::loopback(0);
    SockAddr mcast{};
    std::map<NodeId, SockAddr> peers;
    NodeId source{1};
    NodeId primary = kNoNode;
    NodeId logger = kNoNode;
    double h_min = 0.25;
    double h_max = 32.0;
    double duration = 0.0;  // 0 = run until EOF/forever
};

void usage() {
    std::fprintf(stderr,
                 "usage: lbrm_node --role sender|logger|receiver --id N\n"
                 "       [--group G] --bind ip:port [--mcast ip:port]\n"
                 "       [--peer N=ip:port]... [--source N] [--primary N]\n"
                 "       [--logger N] [--hmin secs] [--hmax secs]\n"
                 "       [--duration secs]\n");
}

std::optional<Options> parse(int argc, char** argv) {
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--role") {
                opts.role = value();
            } else if (arg == "--id") {
                opts.id = NodeId{static_cast<std::uint32_t>(std::stoul(value()))};
            } else if (arg == "--group") {
                opts.group = GroupId{static_cast<std::uint32_t>(std::stoul(value()))};
            } else if (arg == "--bind") {
                opts.bind = SockAddr::parse(value());
            } else if (arg == "--mcast") {
                opts.mcast = SockAddr::parse(value());
            } else if (arg == "--peer") {
                const std::string spec = value();
                const auto eq = spec.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument("--peer needs N=ip:port");
                opts.peers[NodeId{static_cast<std::uint32_t>(
                    std::stoul(spec.substr(0, eq)))}] = SockAddr::parse(spec.substr(eq + 1));
            } else if (arg == "--source") {
                opts.source = NodeId{static_cast<std::uint32_t>(std::stoul(value()))};
            } else if (arg == "--primary") {
                opts.primary = NodeId{static_cast<std::uint32_t>(std::stoul(value()))};
            } else if (arg == "--logger") {
                opts.logger = NodeId{static_cast<std::uint32_t>(std::stoul(value()))};
            } else if (arg == "--hmin") {
                opts.h_min = std::stod(value());
            } else if (arg == "--hmax") {
                opts.h_max = std::stod(value());
            } else if (arg == "--duration") {
                opts.duration = std::stod(value());
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return std::nullopt;
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "lbrm_node: %s\n", e.what());
            usage();
            return std::nullopt;
        }
    }
    if (opts.role.empty() || opts.id == NodeId{0}) {
        usage();
        return std::nullopt;
    }
    return opts;
}

int run(const Options& opts) {
    Reactor reactor;
    UdpEndpointConfig endpoint_config;
    endpoint_config.self = opts.id;
    endpoint_config.bind_addr = opts.bind;
    endpoint_config.multicast_addr = opts.mcast;
    endpoint_config.peers = opts.peers;
    UdpEndpoint endpoint{reactor, std::move(endpoint_config)};

    HeartbeatConfig heartbeat;
    heartbeat.h_min = secs(opts.h_min);
    heartbeat.h_max = secs(opts.h_max);

    SenderCore* sender = nullptr;
    if (opts.role == "sender") {
        SenderConfig config;
        config.self = opts.id;
        config.group = opts.group;
        config.primary_logger = opts.primary;
        config.heartbeat = heartbeat;
        config.stat_ack.enabled = false;  // point-to-point demo scale
        sender = &endpoint.protocol().add_sender(config);
    } else if (opts.role == "logger") {
        LoggerConfig config;
        config.self = opts.id;
        config.group = opts.group;
        config.source = opts.source;
        config.role = LoggerRole::kPrimary;
        auto handlers = std::make_shared<AppHandlers>();
        handlers->on_notice = [](TimePoint, NodeId, const Notice& n) {
            std::printf("[logger] notice kind=%d arg=%llu\n", static_cast<int>(n.kind),
                        static_cast<unsigned long long>(n.arg));
        };
        endpoint.protocol().add_logger(config, opts.id.value(), handlers);
    } else if (opts.role == "receiver") {
        ReceiverConfig config;
        config.self = opts.id;
        config.group = opts.group;
        config.source = opts.source;
        config.logger = opts.logger;
        config.heartbeat = heartbeat;
        auto handlers = std::make_shared<AppHandlers>();
        handlers->on_data = [](TimePoint, NodeId, const DeliverData& d) {
            std::printf("[recv] seq %u%s: %.*s\n", d.seq.value(),
                        d.recovered ? " (recovered)" : "",
                        static_cast<int>(d.payload.size()),
                        reinterpret_cast<const char*>(d.payload.data()));
            std::fflush(stdout);
        };
        handlers->on_notice = [](TimePoint, NodeId, const Notice& n) {
            if (n.kind == NoticeKind::kFreshnessLost)
                std::printf("[recv] stream STALE (no heartbeats)\n");
            if (n.kind == NoticeKind::kFreshnessRestored)
                std::printf("[recv] stream fresh again\n");
            std::fflush(stdout);
        };
        endpoint.protocol().add_receiver(config, handlers);
    } else {
        std::fprintf(stderr, "lbrm_node: unknown role '%s'\n", opts.role.c_str());
        return 2;
    }

    endpoint.protocol().start(reactor.now());
    std::printf("lbrm_node: %s id=%u bound to %s (%s)\n", opts.role.c_str(),
                opts.id.value(), endpoint.unicast_addr().to_string().c_str(),
                opts.mcast.ip ? "IP multicast" : "unicast fan-out");
    std::fflush(stdout);

    const TimePoint deadline =
        opts.duration > 0 ? reactor.now() + secs(opts.duration) : TimePoint::max();

    if (opts.role == "sender") {
        // stdin lines -> updates; the reactor pumps between reads.
        std::string line;
        while (reactor.now() < deadline) {
            reactor.run_once(millis(50));
            // Non-blocking-ish stdin poll: check if a full line is ready.
            if (std::cin.rdbuf()->in_avail() > 0 || isatty(STDIN_FILENO) == 0) {
                if (!std::getline(std::cin, line)) break;
                if (line.empty()) continue;
                const std::vector<std::uint8_t> bytes(line.begin(), line.end());
                const TimePoint now = reactor.now();
                endpoint.protocol().inject(now, *sender, sender->send(now, bytes));
                std::printf("[send] %s\n", line.c_str());
                std::fflush(stdout);
            }
        }
        // Give the last LogStore handoff a moment to be acknowledged.
        const TimePoint drain = reactor.now() + millis(300);
        while (reactor.now() < drain) reactor.run_once(millis(20));
    } else {
        while (reactor.now() < deadline) reactor.run_once(millis(100));
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opts = parse(argc, argv);
    if (!opts) return 1;
    try {
        return run(*opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lbrm_node: fatal: %s\n", e.what());
        return 1;
    }
}
