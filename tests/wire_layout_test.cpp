// Byte-for-byte pins of every wire layout: the 19 packet types, the
// cross-shard RemoteEvent, the five telemetry field lists and the REPORT
// frame's ShardReport.
//
// Round-trip tests cannot see a symmetric mistake: if two fields of a field
// list swap places, encode and decode still agree with each other.  These
// tests compare each fixture's encoding (tests/wire_fixtures.hpp) and its
// size with literals recorded from the hand-written codecs the field lists
// replaced, check that decoding the recorded bytes gives the fixture back,
// and sweep every truncated prefix of the non-packet layouts
// (PacketRoundTrip.AnyTruncationFailsCleanly sweeps the packets).  The
// ShardReport literal is its own header followed by the telemetry literals
// above it, in field-list order.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
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

// --- RemoteEvent, the telemetry field lists and the REPORT ------------------

using Wire = std::span<const std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

template <typename... Ts>
Bytes encoded(const Ts&... xs) {
    ByteWriter w;
    write_fields(w, xs...);
    return w.take();
}

template <typename T>
Bytes encoded_list(const std::vector<T>& list) {
    return encoded(counted<std::uint32_t>(list));
}

Bytes encoded_remote(const sim::Network::RemoteEvent& ev) {
    ByteWriter w;
    sim::encode_remote(w, ev);
    return w.take();
}

template <typename T>
std::optional<T> read_value(ByteReader& r) {
    T value;
    if (!read_fields(r, value)) return std::nullopt;
    return value;
}

template <typename T>
std::optional<std::vector<T>> read_list(ByteReader& r) {
    std::vector<T> list;
    if (!read_fields(r, counted<std::uint32_t>(list))) return std::nullopt;
    return list;
}

/// Decode `wire` and encode the result again; nullopt when decoding fails.
template <typename T, typename Encode>
std::optional<Bytes> reencoded(Wire wire, std::optional<T> (*decode)(ByteReader&),
                               Encode encode) {
    ByteReader r{wire};
    std::optional<T> value = decode(r);
    if (!value) return std::nullopt;
    return encode(*value);
}

struct CodecLayout {
    const char* name;
    std::size_t size;
    const char* hex;
    Bytes (*encode_fixture)();
    std::optional<Bytes> (*reencode)(Wire);
};

const CodecLayout kCodecLayouts[] = {
    {"remote", 92,
     "0000000007735940000000110000109201010000000300000000000000000000"
     "00000000000900000002000000050000002a4c42010100000001000000020000"
     "00020000000700000001001000070e151c232a31383f464d545b6269",
     [] { return encoded_remote(test::sample_remote()); },
     [](Wire w) { return reencoded(w, sim::decode_remote, encoded_remote); }},
    {"registry", 100,
     "00000001000b70726f746f2e636f756e74401400000000000000000001000970"
     "726f746f2e6c6174000000023fb999999999999a3ff000000000000000000000"
     "000000020000000000000003000000000000000400000000000000093ffc0000"
     "00000000",
     [] { return encoded(test::sample_registry()); },
     [](Wire w) {
         return reencoded(w, read_value<obs::RegistrySnapshot>, encoded<obs::RegistrySnapshot>);
     }},
    {"sampler", 107,
     "3fa999999999999a000000033fa999999999999a3fb999999999999a3fc33333"
     "33333333000000020006726174652e7801000000000000000100000000000000"
     "02000000000000000300076c6576656c2e790000000000000000070000000000"
     "0000070000000000000008",
     [] { return encoded(test::sample_sampler()); },
     [](Wire w) {
         return reencoded(w, read_value<obs::SamplerSnapshot>, encoded<obs::SamplerSnapshot>);
     }},
    {"episodes", 74,
     "00000002000000070000002a3ff00000000000003ff400000000000000000003"
     "00000001000100000000090000002b4000000000000000400400000000000000"
     "00000000000000010201",
     [] { return encoded_list(test::sample_episodes()); },
     [](Wire w) {
         using Record = obs::EpisodeTracker::Record;
         return reencoded(w, read_list<Record>, encoded_list<Record>);
     }},
    {"spans", 37,
     "00000001000b6576656e745f647261696e000000030000000000000064000000"
     "00000000fa",
     [] { return encoded_list(test::sample_spans()); },
     [](Wire w) {
         return reencoded(w, read_list<obs::PortableSpan>, encoded_list<obs::PortableSpan>);
     }},
    {"u64s", 28,
     "00000003000000000000000500000000000000060000000000000007",
     [] { return encoded_list(test::sample_u64s()); },
     [](Wire w) {
         return reencoded(w, read_list<std::uint64_t>, encoded_list<std::uint64_t>);
     }},
    {"report", 418,
     // digest sum, packets and chain; window; windows; wait, wall and CPU ns;
     // peak RSS kB
     "0123456789abcdef" "0000000000000766" "fedcba9876543210" "00000000004c4b40"
     "00000000000000f0" "0000000000000012" "00000000000005dc" "00000000000004b0"
     "0000000000001000"
     // registry
     "00000001000b70726f746f2e636f756e74401400000000000000000001000970"
     "726f746f2e6c6174000000023fb999999999999a3ff000000000000000000000"
     "000000020000000000000003000000000000000400000000000000093ffc0000"
     "00000000"
     // sampler
     "3fa999999999999a000000033fa999999999999a3fb999999999999a3fc33333"
     "33333333000000020006726174652e7801000000000000000100000000000000"
     "02000000000000000300076c6576656c2e790000000000000000070000000000"
     "0000070000000000000008"
     // episodes
     "00000002000000070000002a3ff00000000000003ff400000000000000000003"
     "00000001000100000000090000002b4000000000000000400400000000000000"
     "00000000000000010201"
     // per-window waits (the u64s row)
     "00000003000000000000000500000000000000060000000000000007"
     // spans
     "00000001000b6576656e745f647261696e000000030000000000000064000000"
     "00000000fa",
     [] { return encoded(test::sample_report()); },
     [](Wire w) { return reencoded(w, sim::read_report, encoded<sim::ShardReport>); }},
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
