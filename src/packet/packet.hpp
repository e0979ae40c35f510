// LBRM wire format.
//
// Every message on the wire is a fixed Header followed by a type-specific
// body.  The set of packet types covers the whole paper:
//
//   Data / Heartbeat                 basic receiver-reliable stream (S2)
//   Nack / Retransmission            log-based recovery (S2, S2.2)
//   LogStore / LogAck                source -> primary logger reliable handoff
//   ReplicaUpdate / ReplicaAck       primary logger replication (S2.2.3)
//   AckerSelection / AckerResponse   epoch setup (S2.3.1)
//   Ack                              designated-acker per-packet ACK (S2.3.1)
//   ProbeRequest / ProbeReply        Bolot-style group-size estimation (S2.3.3)
//   DiscoveryQuery / DiscoveryReply  scoped-multicast logger discovery (S2.2.1)
//   PrimaryQuery / PrimaryReply      primary-logger address refresh (S2.2.3)
//
// Encoding is explicit big-endian: each body's layout is one field list in
// packet.cpp (PROTOCOL.md §1; common/bytes.hpp walks it to encode, size and
// decode).  Decode never trusts input (truncated or corrupt packets yield
// decode errors, not UB).
//
// The four payload-carrying bodies hold a shared Payload (common/payload.hpp):
// copying a packet shares its payload's bytes instead of copying them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/seqnum.hpp"

namespace lbrm {

enum class PacketType : std::uint8_t {
    kData = 1,
    kHeartbeat = 2,
    kNack = 3,
    kRetransmission = 4,
    kLogStore = 5,
    kLogAck = 6,
    kReplicaUpdate = 7,
    kReplicaAck = 8,
    kAckerSelection = 9,
    kAckerResponse = 10,
    kAck = 11,
    kProbeRequest = 12,
    kProbeReply = 13,
    kDiscoveryQuery = 14,
    kDiscoveryReply = 15,
    kPrimaryQuery = 16,
    kPrimaryReply = 17,
    kPromoteRequest = 18,
    kPromoteReply = 19,
};

[[nodiscard]] const char* to_string(PacketType type);

/// Fields common to every LBRM packet.
struct Header {
    GroupId group;   ///< multicast group this packet belongs to
    NodeId source;   ///< the group's data source (group owner)
    NodeId sender;   ///< node that transmitted *this* packet (logger for repairs)

    friend bool operator==(const Header&, const Header&) = default;
};

/// Application data multicast by the source.  `epoch` tells Designated
/// Ackers whether they must acknowledge this packet (Section 2.3.1).
struct DataBody {
    SeqNum seq;
    EpochId epoch;
    Payload payload;

    friend bool operator==(const DataBody&, const DataBody&) = default;
};

/// Keep-alive repeating the last data sequence number (no payload).
/// `index` counts heartbeats since that data packet (diagnostics only).
struct HeartbeatBody {
    SeqNum last_seq;
    std::uint32_t index = 0;

    friend bool operator==(const HeartbeatBody&, const HeartbeatBody&) = default;
};

/// Retransmission request listing missing sequence numbers.
struct NackBody {
    std::vector<SeqNum> missing;

    friend bool operator==(const NackBody&, const NackBody&) = default;
};

/// A repaired data packet served from a log.  Carries the original data
/// sequence number; `multicast` distinguishes a local re-multicast repair
/// from a point-to-point one (receivers treat both identically).
struct RetransmissionBody {
    SeqNum seq;
    EpochId epoch;
    bool multicast = false;
    Payload payload;

    friend bool operator==(const RetransmissionBody&, const RetransmissionBody&) = default;
};

/// Reliable source -> primary-logger handoff of one data packet.
struct LogStoreBody {
    SeqNum seq;
    EpochId epoch;
    Payload payload;

    friend bool operator==(const LogStoreBody&, const LogStoreBody&) = default;
};

/// Primary logger's acknowledgement to the source.  Carries the two
/// cumulative sequence numbers of Section 2.2.3: everything up to
/// `primary_seq` is logged at the primary; everything up to `replica_seq`
/// is also held by at least one replica (safe for the source to discard).
struct LogAckBody {
    SeqNum primary_seq;
    SeqNum replica_seq;
    bool has_replica = false;  ///< false when the primary runs unreplicated

    friend bool operator==(const LogAckBody&, const LogAckBody&) = default;
};

/// Primary -> replica log propagation.
struct ReplicaUpdateBody {
    SeqNum seq;
    EpochId epoch;
    Payload payload;

    friend bool operator==(const ReplicaUpdateBody&, const ReplicaUpdateBody&) = default;
};

/// Replica -> primary cumulative acknowledgement.
struct ReplicaAckBody {
    SeqNum cumulative_seq;

    friend bool operator==(const ReplicaAckBody&, const ReplicaAckBody&) = default;
};

/// Multicast "Acker Selection Packet" opening a new epoch: each secondary
/// logger volunteers as a Designated Acker with probability `p_ack`.
struct AckerSelectionBody {
    EpochId epoch;
    double p_ack = 0.0;

    friend bool operator==(const AckerSelectionBody&, const AckerSelectionBody&) = default;
};

/// Unicast volunteer response from a secondary logger.
struct AckerResponseBody {
    EpochId epoch;

    friend bool operator==(const AckerResponseBody&, const AckerResponseBody&) = default;
};

/// Designated acker's per-data-packet positive acknowledgement.
struct AckBody {
    EpochId epoch;
    SeqNum seq;

    friend bool operator==(const AckBody&, const AckBody&) = default;
};

/// Group-size-estimation probe (Bolot/Turletti/Wakeman style): every
/// secondary logger replies with probability `p_ack`.
struct ProbeRequestBody {
    std::uint32_t round = 0;
    double p_ack = 0.0;

    friend bool operator==(const ProbeRequestBody&, const ProbeRequestBody&) = default;
};

struct ProbeReplyBody {
    std::uint32_t round = 0;

    friend bool operator==(const ProbeReplyBody&, const ProbeReplyBody&) = default;
};

/// Expanding-ring search for a nearby logging server (Section 2.2.1).
/// `ttl` is the multicast scope of the query ring.
struct DiscoveryQueryBody {
    std::uint8_t ttl = 1;
    std::uint32_t nonce = 0;

    friend bool operator==(const DiscoveryQueryBody&, const DiscoveryQueryBody&) = default;
};

struct DiscoveryReplyBody {
    std::uint32_t nonce = 0;
    NodeId logger;
    bool is_primary = false;

    friend bool operator==(const DiscoveryReplyBody&, const DiscoveryReplyBody&) = default;
};

/// "Who is the primary logger now?" — sent to the source after a primary
/// failure (the cached primary address went stale, Section 2.2.3).
struct PrimaryQueryBody {
    friend bool operator==(const PrimaryQueryBody&, const PrimaryQueryBody&) = default;
};

struct PrimaryReplyBody {
    NodeId primary;

    friend bool operator==(const PrimaryReplyBody&, const PrimaryReplyBody&) = default;
};

/// Source -> replica after a primary failure (Section 2.2.3): "you are the
/// new primary".  The replica answers with its log high-water mark so the
/// source can replay anything newer from its own retained buffer.
struct PromoteRequestBody {
    friend bool operator==(const PromoteRequestBody&, const PromoteRequestBody&) = default;
};

struct PromoteReplyBody {
    SeqNum log_high_water;  ///< highest contiguous sequence held by the replica
    bool accepted = false;

    friend bool operator==(const PromoteReplyBody&, const PromoteReplyBody&) = default;
};

using Body = std::variant<DataBody, HeartbeatBody, NackBody, RetransmissionBody,
                          LogStoreBody, LogAckBody, ReplicaUpdateBody, ReplicaAckBody,
                          AckerSelectionBody, AckerResponseBody, AckBody,
                          ProbeRequestBody, ProbeReplyBody, DiscoveryQueryBody,
                          DiscoveryReplyBody, PrimaryQueryBody, PrimaryReplyBody,
                          PromoteRequestBody, PromoteReplyBody>;

/// A complete LBRM packet: header + one typed body.
struct Packet {
    Header header;
    Body body;

    /// The body's variant index is its type tag, minus one.
    [[nodiscard]] PacketType type() const {
        return static_cast<PacketType>(body.index() + 1);
    }

    friend bool operator==(const Packet&, const Packet&) = default;
};

static_assert(std::variant_size_v<Body> == static_cast<std::size_t>(PacketType::kPromoteReply) &&
                  std::is_same_v<std::variant_alternative_t<0, Body>, DataBody> &&
                  static_cast<std::size_t>(PacketType::kData) == 1 &&
                  std::is_same_v<std::variant_alternative_t<std::variant_size_v<Body> - 1, Body>,
                                 PromoteReplyBody>,
              "Body lists the alternatives in PacketType order, DATA (1) first");

/// Serialize to network byte order.  Throws std::length_error only if a
/// variable-length field exceeds its 16-bit length prefix.
[[nodiscard]] std::vector<std::uint8_t> encode(const Packet& packet);

/// Exact size of `encode(packet)` without serializing.  The simulator's
/// links charge bandwidth per byte, so the hot send path needs the wire
/// size but not the bytes; this avoids a serialize-and-discard allocation
/// per packet.  Invariant (tested): encoded_size(p) == encode(p).size().
[[nodiscard]] std::size_t encoded_size(const Packet& packet);

/// Parse a datagram.  Returns std::nullopt (never throws, never reads out
/// of bounds) for short, corrupt, wrong-magic or wrong-version input.  The
/// packet's payload is a fresh buffer, independent of `datagram`.
[[nodiscard]] std::optional<Packet> decode(std::span<const std::uint8_t> datagram);

/// The 64-bit FNV-1a state `h` advanced over the bytes of `encode(packet)`,
/// without building them: packet-trace hash taps call this per packet.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const Packet& packet);

/// Wire constants, exposed for tests.
inline constexpr std::uint16_t kMagic = 0x4C42;  // "LB"
inline constexpr std::uint8_t kVersion = 1;
/// Serialized size of the fixed header (magic+version+type+group+source+sender).
inline constexpr std::size_t kHeaderSize = 2 + 1 + 1 + 4 + 4 + 4;

}  // namespace lbrm
