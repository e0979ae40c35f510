// The packet-trace hash the benches print and gate on
// (bench_protocol_health --hash-only, the chaos idle-engine check, the
// workload gate).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "packet/packet.hpp"
#include "sim/network.hpp"

namespace lbrm::bench {

/// Tap every packet `net` puts on a link into `hash`, in transmit order:
/// the time, the link's endpoints, whether it was delivered, then the
/// packet's encoded bytes.  Replaces any tap already installed.
inline void hash_trace(sim::Network& net, Fnv1a& hash) {
    net.set_tap([&hash](TimePoint at, const sim::Link& link, const Packet& packet,
                        bool delivered) {
        hash.feed_value(at.time_since_epoch().count());
        hash.feed_value(link.from().value());
        hash.feed_value(link.to().value());
        hash.feed_value(static_cast<std::uint8_t>(delivered));
        hash.h = fnv1a(hash.h, packet);
    });
}

}  // namespace lbrm::bench
