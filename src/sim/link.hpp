// A bidirectional cable holding two unidirectional links, each with
// propagation delay, finite bandwidth (serialization delay + FIFO queueing
// via a busy-until horizon), a drop-tail queue bound, and a pluggable loss
// model.
//
// Memory layout (see DESIGN.md "Memory engineering"): a Cable owns the two
// directed Link objects in place plus their *shared* spec, so the per-cable
// footprint is one record instead of two ~250-byte directed links.  Each
// Link keeps only the hot transmit state inline -- the busy horizon and two
// pointers -- and lazily allocates a LinkCold block (stats, loss model and
// its RNG stream) on first use.  A 10M-node topology has ~10M cables but
// only the few hundred thousand directions on active paths ever pay for
// cold state.  Link addresses stay stable for the network's lifetime
// (Cables live in a StableVector and never move), so routing tables and
// cached trees keep raw Link* as before.
//
// Per-link, per-packet-type statistics feed the paper's bandwidth
// arguments: the Section 2.2.2 experiments count exactly how many NACKs and
// repairs cross each tail circuit.
//
// Drop accounting:
//   * drops_queue -- the packet found the queue-delay bound exceeded and
//     never entered the wire: no bandwidth consumed, no loss roll.
//   * drops_loss  -- the packet was serialized onto the wire (it occupies
//     its slot of the busy horizon, congesting later packets) and was then
//     lost in flight.  Loss is rolled *after* bandwidth accounting so lossy
//     tail circuits show their true congestion.
//
// A link holds no arrivals: transmit() returns the arrival time, and the
// network layer schedules the arrival, queued or not, in the same kind of
// event (see DESIGN.md "Queued arrivals").  A cable's spec is set once, by
// Network::add_link.
//
// Loss rolls draw from a per-direction RNG stream seeded by (stream seed,
// from, to), so a link's drop pattern depends only on its own traffic --
// the property that keeps sharded runs bit-identical to the single-process
// run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "packet/packet.hpp"
#include "sim/loss_model.hpp"

namespace lbrm::sim {

struct LinkSpec {
    Duration propagation = millis(1);
    /// Bits per second; 0 means infinite (no serialization/queueing delay).
    double bandwidth_bps = 0.0;
    /// Maximum tolerated queueing delay before drop-tail; zero = unlimited.
    Duration max_queue_delay = Duration::zero();
};

struct LinkStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops_loss = 0;
    std::uint64_t drops_queue = 0;

    /// Per-type tallies.  A link sees a handful of distinct packet types
    /// (data + heartbeats down the tree; NACK/ACK traffic up), so the
    /// common case lives in four inline (tag, count) slots -- a full
    /// per-type array costs ~256 MB across two million directed links.  A
    /// link that sees a fifth distinct type, or overflows a 32-bit slot,
    /// spills every tally to one heap array and counts there from then on.
    static constexpr std::size_t kInlineTypes = 4;
    std::array<std::uint8_t, kInlineTypes> type_tags{};  ///< 0 = empty slot
    std::array<std::uint32_t, kInlineTypes> type_counts{};
    std::unique_ptr<std::array<std::uint64_t, 32>> type_spill;

    void count(PacketType type) {
        const auto tag = static_cast<std::uint8_t>(type);
        if (type_spill) {
            ++(*type_spill)[tag];
            return;
        }
        for (std::size_t i = 0; i < kInlineTypes; ++i) {
            if (type_tags[i] == tag) {
                if (++type_counts[i] == 0) {  // u32 wrapped: move to u64 spill
                    spill();
                    (*type_spill)[tag] += std::uint64_t{1} << 32;
                }
                return;
            }
            if (type_tags[i] == 0) {
                type_tags[i] = tag;
                type_counts[i] = 1;
                return;
            }
        }
        spill();
        ++(*type_spill)[tag];
    }

    [[nodiscard]] std::uint64_t packets_of(PacketType t) const {
        const auto tag = static_cast<std::uint8_t>(t);
        if (type_spill) return (*type_spill)[tag];
        for (std::size_t i = 0; i < kInlineTypes; ++i)
            if (type_tags[i] == tag) return type_counts[i];
        return 0;
    }

private:
    void spill() {
        type_spill = std::make_unique<std::array<std::uint64_t, 32>>();
        for (std::size_t i = 0; i < kInlineTypes; ++i)
            if (type_tags[i] != 0) (*type_spill)[type_tags[i]] = type_counts[i];
    }
};

/// Cold per-direction state: everything a directed link only needs once it
/// has actually carried (or dropped) traffic.  Idle directions -- the
/// overwhelming majority at 10M nodes -- never allocate this.
struct LinkCold {
    std::unique_ptr<LossModel> loss;
    /// Per-direction RNG stream (see Link::transmit): seeded from (stream
    /// seed, from, to) on the first lossy transmit.  Only directions with a
    /// loss model ever materialise one.
    std::unique_ptr<Rng> loss_rng;
    LinkStats stats;
};

struct Cable;

class Link {
public:
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    /// Null means lossless -- the default costs no allocation per link, and
    /// transmit() skips the virtual call entirely (NoLoss draws no RNG, so
    /// the skip is bit-identical).
    void set_loss_model(std::unique_ptr<LossModel> model) {
        cold().loss = std::move(model);
    }
    [[nodiscard]] bool has_loss_model() const { return cold_ && cold_->loss; }

    /// Account and time one packet handed to this link at `now`.
    /// Returns the arrival time at the far end, or std::nullopt if the
    /// packet was dropped (queue overflow or loss model; see file comment
    /// for the ordering and its accounting consequences).
    ///
    /// A loss roll draws from this direction's own stream, seeded by
    /// (`stream_seed`, from, to) on first use; Network passes its
    /// construction seed.  All transmits on a link happen in events at its
    /// from-node, so the per-link draw sequence is identical however the
    /// simulation is partitioned into shards.
    std::optional<TimePoint> transmit(std::uint64_t stream_seed, TimePoint now,
                                      std::size_t bytes, PacketType type);

    [[nodiscard]] NodeId from() const;
    [[nodiscard]] NodeId to() const;
    [[nodiscard]] const LinkSpec& spec() const;
    [[nodiscard]] Cable& cable() { return *cable_; }
    [[nodiscard]] const Cable& cable() const { return *cable_; }

    /// Stats read through the cold block; an idle direction reads a shared
    /// all-zero instance without allocating.
    [[nodiscard]] const LinkStats& stats() const {
        return cold_ ? cold_->stats : kZeroStats;
    }
    void reset_stats() {
        if (cold_) cold_->stats = LinkStats{};
    }

private:
    friend struct Cable;
    Link() = default;

    [[nodiscard]] LinkCold& cold() {
        if (!cold_) cold_ = std::make_unique<LinkCold>();
        return *cold_;
    }

    inline static const LinkStats kZeroStats{};

    Cable* cable_ = nullptr;  ///< set once by Cable's constructor
    TimePoint busy_until_ = time_zero();
    std::unique_ptr<LinkCold> cold_;
};

/// One bidirectional cable: endpoints, the shared spec, and the two
/// directed links in place.  Network::add_link installs both directions
/// with one spec and never changes it, so sharing the spec is exact.
/// Non-movable: the directed links point back at their cable (they live in
/// a StableVector, which never moves elements).
struct Cable {
    Cable(NodeId a_, NodeId b_, const LinkSpec& spec_) : a(a_), b(b_), spec(spec_) {
        dir[0].cable_ = this;  // a -> b
        dir[1].cable_ = this;  // b -> a
    }
    Cable(const Cable&) = delete;
    Cable& operator=(const Cable&) = delete;

    NodeId a;
    NodeId b;
    LinkSpec spec;
    Link dir[2];  ///< dir[0] = a -> b, dir[1] = b -> a
};

inline NodeId Link::from() const { return this == &cable_->dir[0] ? cable_->a : cable_->b; }
inline NodeId Link::to() const { return this == &cable_->dir[0] ? cable_->b : cable_->a; }
inline const LinkSpec& Link::spec() const { return cable_->spec; }

inline std::optional<TimePoint> Link::transmit(std::uint64_t stream_seed, TimePoint now,
                                               std::size_t bytes, PacketType type) {
    LinkCold& c = cold();  // transmit always accounts: materialise cold state
    const LinkSpec& s = cable_->spec;
    Duration serialization = Duration::zero();
    TimePoint depart = now;
    if (s.bandwidth_bps > 0.0) {
        serialization = secs(static_cast<double>(bytes) * 8.0 / s.bandwidth_bps);
        const TimePoint start = busy_until_ > now ? busy_until_ : now;
        if (s.max_queue_delay != Duration::zero() && start - now > s.max_queue_delay) {
            ++c.stats.drops_queue;
            return std::nullopt;  // never entered the wire: no loss roll
        }
        depart = start + serialization;
        busy_until_ = depart;  // lost packets still burn wire time
    }

    if (c.loss) {
        // Seed the stream only when a roll actually happens: lossless
        // links never allocate a per-link Rng (~2.5 kB of mt19937_64 state).
        if (!c.loss_rng)
            c.loss_rng = std::make_unique<Rng>(splitmix64(
                stream_seed ^
                splitmix64((static_cast<std::uint64_t>(from().value()) << 32) |
                           to().value())));
        if (c.loss->drop(*c.loss_rng, now)) {
            ++c.stats.drops_loss;
            return std::nullopt;
        }
    }

    ++c.stats.packets;
    c.stats.bytes += bytes;
    c.stats.count(type);
    return depart + s.propagation;
}

}  // namespace lbrm::sim
