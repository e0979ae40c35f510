// Byte-for-byte pins of every wire layout: the 19 packet types, the
// cross-shard RemoteEvent and the five telemetry REPORT codecs.
//
// Round-trip tests cannot see a symmetric mistake: if two fields of a field
// list swap places, encode and decode still agree with each other.  These
// tests compare each fixture's encoding (tests/wire_fixtures.hpp) and its
// size with literals recorded from the hand-written codecs the field lists
// replaced, check that decoding the recorded bytes gives the fixture back,
// and sweep every truncated prefix of the non-packet codecs
// (PacketRoundTrip.AnyTruncationFailsCleanly sweeps the packets).
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "obs/wire.hpp"
#include "packet/packet.hpp"
#include "sim/shard.hpp"
#include "tests/wire_fixtures.hpp"

namespace lbrm {
namespace {

std::string hex(std::span<const std::uint8_t> data) {
    std::string out;
    char buf[3];
    for (std::uint8_t b : data) {
        std::snprintf(buf, sizeof buf, "%02x", b);
        out += buf;
    }
    return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < text.size(); i += 2)
        out.push_back(static_cast<std::uint8_t>(std::stoul(text.substr(i, 2), nullptr, 16)));
    return out;
}

struct PacketLayout {
    PacketType type;
    std::size_t size;
    const char* hex;
};

// Header (16 bytes): magic 4c42, version 01, type, group 7, source 3,
// sender 12.  Then the body, as PROTOCOL.md §1 lists it.
const PacketLayout kPacketLayouts[] = {
    {PacketType::kData, 30,
     "4c42010100000007000000030000000c" "0000002a000000030004010203ff"},
    {PacketType::kHeartbeat, 24,
     "4c42010200000007000000030000000c" "0000002a00000007"},
    {PacketType::kNack, 30,
     "4c42010300000007000000030000000c" "00030000000100000005ffffffff"},
    {PacketType::kRetransmission, 28,
     "4c42010400000007000000030000000c" "000000090000000201000109"},
    {PacketType::kLogStore, 26,
     "4c42010500000007000000030000000c" "0000000a000000010000"},
    {PacketType::kLogAck, 25,
     "4c42010600000007000000030000000c" "0000000a0000000801"},
    {PacketType::kReplicaUpdate, 28,
     "4c42010700000007000000030000000c" "0000000b0000000100020405"},
    {PacketType::kReplicaAck, 20,
     "4c42010800000007000000030000000c" "0000000b"},
    {PacketType::kAckerSelection, 28,
     "4c42010900000007000000030000000c" "000000043fa47ae147ae147b"},
    {PacketType::kAckerResponse, 20,
     "4c42010a00000007000000030000000c" "00000004"},
    {PacketType::kAck, 24,
     "4c42010b00000007000000030000000c" "000000040000002a"},
    {PacketType::kProbeRequest, 28,
     "4c42010c00000007000000030000000c" "000000023fc999999999999a"},
    {PacketType::kProbeReply, 20,
     "4c42010d00000007000000030000000c" "00000002"},
    {PacketType::kDiscoveryQuery, 21,
     "4c42010e00000007000000030000000c" "100000cafe"},
    {PacketType::kDiscoveryReply, 25,
     "4c42010f00000007000000030000000c" "0000cafe0000003701"},
    {PacketType::kPrimaryQuery, 16,
     "4c42011000000007000000030000000c"},
    {PacketType::kPrimaryReply, 20,
     "4c42011100000007000000030000000c" "00000037"},
    {PacketType::kPromoteRequest, 16,
     "4c42011200000007000000030000000c"},
    {PacketType::kPromoteReply, 21,
     "4c42011300000007000000030000000c" "0000006301"},
};

TEST(WireLayout, EveryPacketTypeMatchesRecordedBytes) {
    const std::vector<Packet> packets = test::all_packets();
    ASSERT_EQ(packets.size(), std::size(kPacketLayouts));
    for (std::size_t i = 0; i < packets.size(); ++i) {
        const Packet& p = packets[i];
        const PacketLayout& want = kPacketLayouts[i];
        const char* name = to_string(want.type);
        EXPECT_EQ(p.type(), want.type) << name;
        const std::vector<std::uint8_t> wire = encode(p);
        EXPECT_EQ(hex(wire), want.hex) << name << " (" << wire.size() << " bytes)";
        EXPECT_EQ(encoded_size(p), want.size) << name;
        ASSERT_GT(wire.size(), 3u) << name;
        EXPECT_EQ(wire[3], static_cast<std::uint8_t>(want.type)) << name;
        const std::optional<Packet> back = decode(unhex(want.hex));
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, p) << name;
    }
}

// --- RemoteEvent and the telemetry REPORT codecs ----------------------------

template <typename T>
std::vector<std::uint8_t> encoded(void (*encode)(ByteWriter&, const T&), const T& value) {
    ByteWriter w;
    encode(w, value);
    return w.take();
}

/// Decode `wire` and encode the result again; nullopt when decoding fails.
template <typename T>
std::optional<std::vector<std::uint8_t>> reencoded(std::optional<T> (*decode)(ByteReader&),
                                                   void (*encode)(ByteWriter&, const T&),
                                                   std::span<const std::uint8_t> wire) {
    ByteReader r{wire};
    std::optional<T> value = decode(r);
    if (!value) return std::nullopt;
    return encoded(encode, *value);
}

using Wire = std::span<const std::uint8_t>;

struct CodecLayout {
    const char* name;
    std::size_t size;
    const char* hex;
    std::vector<std::uint8_t> (*encode_fixture)();
    std::optional<std::vector<std::uint8_t>> (*reencode)(Wire);
};

const CodecLayout kCodecLayouts[] = {
    {"remote", 92,
     "0000000007735940000000110000109201010000000300000000000000000000"
     "00000000000900000002000000050000002a4c42010100000001000000020000"
     "00020000000700000001001000070e151c232a31383f464d545b6269",
     [] { return encoded(sim::encode_remote, test::sample_remote()); },
     [](Wire w) { return reencoded(sim::decode_remote, sim::encode_remote, w); }},
    {"registry", 100,
     "00000001000b70726f746f2e636f756e74401400000000000000000001000970"
     "726f746f2e6c6174000000023fb999999999999a3ff000000000000000000000"
     "000000020000000000000003000000000000000400000000000000093ffc0000"
     "00000000",
     [] { return encoded(obs::wire::encode_registry, test::sample_registry()); },
     [](Wire w) {
         return reencoded(obs::wire::decode_registry, obs::wire::encode_registry, w);
     }},
    {"sampler", 107,
     "3fa999999999999a000000033fa999999999999a3fb999999999999a3fc33333"
     "33333333000000020006726174652e7801000000000000000100000000000000"
     "02000000000000000300076c6576656c2e790000000000000000070000000000"
     "0000070000000000000008",
     [] { return encoded(obs::wire::encode_sampler, test::sample_sampler()); },
     [](Wire w) {
         return reencoded(obs::wire::decode_sampler, obs::wire::encode_sampler, w);
     }},
    {"episodes", 74,
     "00000002000000070000002a3ff00000000000003ff400000000000000000003"
     "00000001000100000000090000002b4000000000000000400400000000000000"
     "00000000000000010201",
     [] { return encoded(obs::wire::encode_episodes, test::sample_episodes()); },
     [](Wire w) {
         return reencoded(obs::wire::decode_episodes, obs::wire::encode_episodes, w);
     }},
    {"spans", 37,
     "00000001000b6576656e745f647261696e000000030000000000000064000000"
     "00000000fa",
     [] { return encoded(obs::wire::encode_spans, test::sample_spans()); },
     [](Wire w) { return reencoded(obs::wire::decode_spans, obs::wire::encode_spans, w); }},
    {"u64s", 28,
     "00000003000000000000000500000000000000060000000000000007",
     [] { return encoded(obs::wire::encode_u64s, test::sample_u64s()); },
     [](Wire w) { return reencoded(obs::wire::decode_u64s, obs::wire::encode_u64s, w); }},
};

TEST(WireLayout, RemoteEventAndTelemetryMatchRecordedBytes) {
    for (const CodecLayout& c : kCodecLayouts) {
        const std::vector<std::uint8_t> wire = c.encode_fixture();
        EXPECT_EQ(hex(wire), c.hex) << c.name << " (" << wire.size() << " bytes)";
        EXPECT_EQ(wire.size(), c.size) << c.name;
        const std::vector<std::uint8_t> recorded = unhex(c.hex);
        const auto back = c.reencode(recorded);
        ASSERT_TRUE(back.has_value()) << c.name;
        EXPECT_EQ(*back, recorded) << c.name;
    }
}

TEST(WireLayout, RemoteEventAndTelemetryRejectEveryTruncatedPrefix) {
    for (const CodecLayout& c : kCodecLayouts) {
        const std::vector<std::uint8_t> wire = c.encode_fixture();
        for (std::size_t len = 0; len < wire.size(); ++len)
            EXPECT_FALSE(c.reencode(Wire(wire.data(), len)).has_value())
                << c.name << " truncated to " << len;
    }
}

}  // namespace
}  // namespace lbrm
