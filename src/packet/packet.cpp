#include "packet/packet.hpp"

#include <utility>

namespace lbrm {

// Field lists, one per PROTOCOL.md §1 row (see common/bytes.hpp): encode,
// encoded_size and decode all walk these.  WireLayout pins every one.

void fields(auto& a, MaybeConst<Header> auto& h) { a(h.group, h.source, h.sender); }

void fields(auto& a, MaybeConst<DataBody> auto& b) { a(b.seq, b.epoch, b.payload); }
void fields(auto& a, MaybeConst<HeartbeatBody> auto& b) { a(b.last_seq, b.index); }
void fields(auto& a, MaybeConst<NackBody> auto& b) { a(counted<std::uint16_t>(b.missing)); }
void fields(auto& a, MaybeConst<RetransmissionBody> auto& b) {
    a(b.seq, b.epoch, b.multicast, b.payload);
}
void fields(auto& a, MaybeConst<LogStoreBody> auto& b) { a(b.seq, b.epoch, b.payload); }
void fields(auto& a, MaybeConst<LogAckBody> auto& b) {
    a(b.primary_seq, b.replica_seq, b.has_replica);
}
void fields(auto& a, MaybeConst<ReplicaUpdateBody> auto& b) { a(b.seq, b.epoch, b.payload); }
void fields(auto& a, MaybeConst<ReplicaAckBody> auto& b) { a(b.cumulative_seq); }
void fields(auto& a, MaybeConst<AckerSelectionBody> auto& b) { a(b.epoch, b.p_ack); }
void fields(auto& a, MaybeConst<AckerResponseBody> auto& b) { a(b.epoch); }
void fields(auto& a, MaybeConst<AckBody> auto& b) { a(b.epoch, b.seq); }
void fields(auto& a, MaybeConst<ProbeRequestBody> auto& b) { a(b.round, b.p_ack); }
void fields(auto& a, MaybeConst<ProbeReplyBody> auto& b) { a(b.round); }
void fields(auto& a, MaybeConst<DiscoveryQueryBody> auto& b) { a(b.ttl, b.nonce); }
void fields(auto& a, MaybeConst<DiscoveryReplyBody> auto& b) {
    a(b.nonce, b.logger, b.is_primary);
}
void fields(auto&, MaybeConst<PrimaryQueryBody> auto&) {}
void fields(auto& a, MaybeConst<PrimaryReplyBody> auto& b) { a(b.primary); }
void fields(auto&, MaybeConst<PromoteRequestBody> auto&) {}
void fields(auto& a, MaybeConst<PromoteReplyBody> auto& b) { a(b.log_high_water, b.accepted); }

/// The whole datagram: the fixed header, then the body.
void fields(auto& a, const Packet& p) {
    std::visit([&](const auto& body) { a(kMagic, kVersion, p.type(), p.header, body); },
               p.body);
}

namespace {

/// A default-constructed body of variant index `index` (the type byte - 1),
/// ready for its field list to be read into.
template <std::size_t... I>
Body body_at(std::size_t index, std::index_sequence<I...>) {
    static constexpr Body (*kMake[])() = {[] { return Body{std::in_place_index<I>}; }...};
    return kMake[index]();
}

}  // namespace

std::vector<std::uint8_t> encode(const Packet& packet) {
    ByteWriter w{kHeaderSize + 64};
    write_fields(w, packet);
    return w.take();
}

std::size_t encoded_size(const Packet& packet) { return fields_size(packet); }

std::uint64_t fnv1a(std::uint64_t h, const Packet& packet) {
    Fnv1aSink sink{h};
    FieldWriter<Fnv1aSink>{sink}(packet);
    return sink.hash();
}

std::optional<Packet> decode(std::span<const std::uint8_t> datagram) {
    ByteReader r{datagram};
    std::uint16_t magic = 0;
    std::uint8_t version = 0;
    std::uint8_t type = 0;
    Packet p;
    if (!read_fields(r, magic, version, type, p.header)) return std::nullopt;
    if (magic != kMagic || version != kVersion) return std::nullopt;
    if (type < 1 || type > std::variant_size_v<Body>) return std::nullopt;
    p.body = body_at(type - 1u, std::make_index_sequence<std::variant_size_v<Body>>{});
    if (!std::visit([&r](auto& body) { return read_fields(r, body); }, p.body))
        return std::nullopt;
    return p;
}

const char* to_string(PacketType type) {
    switch (type) {
        case PacketType::kData: return "DATA";
        case PacketType::kHeartbeat: return "HEARTBEAT";
        case PacketType::kNack: return "NACK";
        case PacketType::kRetransmission: return "RETRANS";
        case PacketType::kLogStore: return "LOG_STORE";
        case PacketType::kLogAck: return "LOG_ACK";
        case PacketType::kReplicaUpdate: return "REPLICA_UPDATE";
        case PacketType::kReplicaAck: return "REPLICA_ACK";
        case PacketType::kAckerSelection: return "ACKER_SELECTION";
        case PacketType::kAckerResponse: return "ACKER_RESPONSE";
        case PacketType::kAck: return "ACK";
        case PacketType::kProbeRequest: return "PROBE_REQUEST";
        case PacketType::kProbeReply: return "PROBE_REPLY";
        case PacketType::kDiscoveryQuery: return "DISCOVERY_QUERY";
        case PacketType::kDiscoveryReply: return "DISCOVERY_REPLY";
        case PacketType::kPrimaryQuery: return "PRIMARY_QUERY";
        case PacketType::kPrimaryReply: return "PRIMARY_REPLY";
        case PacketType::kPromoteRequest: return "PROMOTE_REQUEST";
        case PacketType::kPromoteReply: return "PROMOTE_REPLY";
    }
    return "UNKNOWN";
}

}  // namespace lbrm
