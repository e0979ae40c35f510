// One direction of a cable: propagation delay, finite bandwidth
// (serialization delay + FIFO queueing via a busy-until horizon), a
// drop-tail queue bound, and a pluggable loss model.
//
// Memory layout (see DESIGN.md "Memory engineering"): a cable is no object
// but a row of the network's per-end arrays -- the node at each end and an
// index into its table of the few distinct LinkSpecs.  A direction gets a
// 48-byte Link record, in the network's one stable arena, only once it
// has transmitted (dropped packets count), has a loss model, or is
// returned by Network::link(a, b): the busy horizon, four inline per-type
// tallies, its network and cable end (from(), to() and spec() read the
// rows), and the rare state only lossy or many-typed directions allocate.
//
// Per-link, per-packet-type tallies feed the paper's bandwidth arguments
// (Section 2.2.2 counts the NACKs and repairs crossing each tail circuit);
// bytes and queue drops are counted only network-wide.
//
// Drop accounting:
//   * queue drops -- the packet found the queue-delay bound exceeded and
//     never entered the wire: no bandwidth consumed, no loss roll.
//   * loss drops  -- the packet was serialized onto the wire (it occupies
//     its slot of the busy horizon, congesting later packets) and was then
//     lost in flight.  Loss is rolled *after* bandwidth accounting so lossy
//     tail circuits show their true congestion.
//
// A link holds no arrivals: transmit() returns the arrival time, and the
// network layer schedules the arrival, queued or not, in the same kind of
// event (see DESIGN.md "Queued arrivals").
//
// Loss rolls draw from a per-direction RNG stream seeded by (network seed,
// from, to), so a link's drop pattern depends only on its own traffic --
// the property that keeps sharded runs bit-identical to the single-process
// run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stable_vector.hpp"
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

    friend bool operator==(const LinkSpec&, const LinkSpec&) = default;
};

/// One tally slot per PacketType value (every value is below 32).
inline constexpr std::size_t kPacketTypeSlots = 32;

/// What one direction carried since the last Network::reset_link_stats().
struct LinkStats {
    std::uint64_t packets = 0;     ///< put on the wire and not lost
    std::uint64_t drops_loss = 0;  ///< lost in flight by the loss model
    std::array<std::uint64_t, kPacketTypeSlots> by_type{};

    [[nodiscard]] std::uint64_t packets_of(PacketType t) const {
        return by_type[static_cast<std::uint8_t>(t)];
    }
};

class Network;

class Link {
public:
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    /// Null means lossless -- the default costs no allocation per link, and
    /// transmit() skips the virtual call entirely (NoLoss draws no RNG, so
    /// the skip is bit-identical).
    void set_loss_model(std::unique_ptr<LossModel> model) { rare().loss = std::move(model); }
    [[nodiscard]] bool has_loss_model() const { return rare_ && rare_->loss; }

    /// Account and time one packet handed to this link at `now`, in its
    /// tallies and the network's totals: the arrival time at the far end,
    /// or std::nullopt if it was dropped (see the file comment).  Every
    /// transmit on a link runs in an event at its from-node, so the
    /// per-link draw sequence is the same however the run is sharded.
    std::optional<TimePoint> transmit(TimePoint now, std::size_t bytes, PacketType type);

    // Read the network's cable rows; defined in network.hpp.
    [[nodiscard]] NodeId from() const;
    [[nodiscard]] NodeId to() const;
    [[nodiscard]] LinkSpec spec() const;

    [[nodiscard]] LinkStats stats() const {
        LinkStats s;
        if (spilled()) {
            s.by_type = *rare_->spill;
        } else {
            for (std::size_t i = 0; i < type_tags_.size(); ++i)
                s.by_type[type_tags_[i]] += type_counts_[i];  // empty slots add 0 to slot 0
        }
        s.packets = std::accumulate(s.by_type.begin(), s.by_type.end(), std::uint64_t{0});
        if (rare_) s.drops_loss = rare_->drops_loss;
        return s;
    }

private:
    friend class Network;
    friend class lbrm::StableVector<Link>;
    Link(Network& net, std::uint32_t end) : net_(&net), end_(end) {}

    /// What few directions need: a loss model and its RNG stream (seeded
    /// on the first roll), the drops it made, and, in a block of its own
    /// once a fifth distinct type or a full 32-bit slot spills them, every
    /// per-type tally.
    struct Rare {
        std::unique_ptr<LossModel> loss;
        std::unique_ptr<Rng> loss_rng;
        std::uint64_t drops_loss = 0;
        std::unique_ptr<std::array<std::uint64_t, kPacketTypeSlots>> spill = nullptr;
    };
    [[nodiscard]] Rare& rare() {
        if (!rare_) rare_ = std::make_unique<Rare>();
        return *rare_;
    }
    [[nodiscard]] bool spilled() const { return rare_ && rare_->spill; }

    /// Tallies live in four inline (tag, count) slots, filled in order;
    /// tag 0 marks a free slot.
    void count(PacketType type) {
        const auto tag = static_cast<std::uint8_t>(type);
        if (spilled()) {
            ++(*rare_->spill)[tag];
            return;
        }
        for (std::size_t i = 0; i < type_tags_.size(); ++i) {
            if (type_tags_[i] == 0) type_tags_[i] = tag;
            if (type_tags_[i] != tag) continue;
            if (type_counts_[i] == UINT32_MAX) break;  // spill before it wraps
            ++type_counts_[i];
            return;
        }
        spill(tag);
    }
    /// Move the inline tallies to the spilled ones, then count `tag` there.
    void spill(std::uint8_t tag);
    /// Roll the loss model once, from the stream seeded on the first roll;
    /// true (and a loss drop counted) when the packet is lost.
    bool lost(TimePoint now);
    /// Zero the tallies; the loss model, its stream and the busy horizon stay.
    void reset_stats() {
        type_tags_ = {};
        type_counts_ = {};
        if (rare_) *rare_ = Rare{std::move(rare_->loss), std::move(rare_->loss_rng)};
    }

    Network* net_;
    TimePoint busy_until_ = time_zero();
    std::unique_ptr<Rare> rare_;
    std::uint32_t end_;  ///< the cable end this direction leaves from
    std::array<std::uint8_t, 4> type_tags_{};
    std::array<std::uint32_t, 4> type_counts_{};
};

}  // namespace lbrm::sim
