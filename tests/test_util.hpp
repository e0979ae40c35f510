// Shared helpers for unit-testing sans-IO cores: pick apart Action vectors,
// build canned packets and hash packet traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/actions.hpp"
#include "packet/packet.hpp"

namespace lbrm::test {

/// All packets sent (unicast or multicast) in an action list.
inline std::vector<Packet> sent_packets(const Actions& actions) {
    std::vector<Packet> out;
    for (const Action& a : actions) {
        if (const auto* u = std::get_if<SendUnicast>(&a)) out.push_back(u->packet);
        if (const auto* m = std::get_if<SendMulticast>(&a)) out.push_back(m->packet);
    }
    return out;
}

/// Packets of a given type, as (destination, packet) where destination is
/// kNoNode for multicasts.
struct Sent {
    NodeId to = kNoNode;  ///< kNoNode == multicast
    McastScope scope = McastScope::kGlobal;
    Packet packet;
};

inline std::vector<Sent> sent_of_type(const Actions& actions, PacketType type) {
    std::vector<Sent> out;
    for (const Action& a : actions) {
        if (const auto* u = std::get_if<SendUnicast>(&a)) {
            if (u->packet.type() == type) out.push_back({u->to, McastScope::kGlobal, u->packet});
        } else if (const auto* m = std::get_if<SendMulticast>(&a)) {
            if (m->packet.type() == type) out.push_back({kNoNode, m->scope, m->packet});
        }
    }
    return out;
}

inline std::size_t count_sent(const Actions& actions, PacketType type) {
    return sent_of_type(actions, type).size();
}

/// First armed timer of a given kind, if any.
inline std::optional<StartTimer> find_timer(const Actions& actions, TimerKind kind) {
    for (const Action& a : actions)
        if (const auto* t = std::get_if<StartTimer>(&a))
            if (t->id.kind == kind) return *t;
    return std::nullopt;
}

inline bool has_cancel(const Actions& actions, TimerKind kind) {
    for (const Action& a : actions)
        if (const auto* c = std::get_if<CancelTimer>(&a))
            if (c->id.kind == kind) return true;
    return false;
}

inline std::vector<DeliverData> deliveries(const Actions& actions) {
    std::vector<DeliverData> out;
    for (const Action& a : actions)
        if (const auto* d = std::get_if<DeliverData>(&a)) out.push_back(*d);
    return out;
}

inline std::vector<Notice> notices(const Actions& actions, NoticeKind kind) {
    std::vector<Notice> out;
    for (const Action& a : actions)
        if (const auto* n = std::get_if<Notice>(&a))
            if (n->kind == kind) out.push_back(*n);
    return out;
}

/// Canned payload of `n` patterned bytes.
inline std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t salt = 0) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 7 + salt);
    return out;
}

inline TimePoint at(double seconds) { return time_zero() + secs(seconds); }

/// 64-bit FNV-1a over raw bytes (feed_value feeds in host byte order).
struct Fnv1a {
    std::uint64_t h = 14695981039346656037ULL;  // offset basis
    void feed(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;  // FNV prime
        }
    }
    template <typename T>
    void feed_value(T v) {
        feed(&v, sizeof v);
    }
};

}  // namespace lbrm::test
