// One fixed value of every wire structure: each of the 19 packet types, a
// cross-shard RemoteEvent, and one of each telemetry REPORT payload.  The
// round-trip suites (packet_test, shard_test, episode_test) and WireLayout
// (wire_layout_test), which pins their encodings byte for byte, share them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/wire.hpp"
#include "packet/packet.hpp"
#include "sim/network.hpp"
#include "tests/test_util.hpp"

namespace lbrm::test {

inline Header header() { return Header{GroupId{7}, NodeId{3}, NodeId{12}}; }

inline std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
    std::vector<std::uint8_t> out;
    for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
    return out;
}

/// Every packet type once, in PacketType order, with non-trivial field values.
inline std::vector<Packet> all_packets() {
    return {
        {header(), DataBody{SeqNum{42}, EpochId{3}, bytes({1, 2, 3, 255})}},
        {header(), HeartbeatBody{SeqNum{42}, 7}},
        {header(), NackBody{{SeqNum{1}, SeqNum{5}, SeqNum{0xFFFFFFFF}}}},
        {header(), RetransmissionBody{SeqNum{9}, EpochId{2}, true, bytes({9})}},
        {header(), LogStoreBody{SeqNum{10}, EpochId{1}, bytes({})}},
        {header(), LogAckBody{SeqNum{10}, SeqNum{8}, true}},
        {header(), ReplicaUpdateBody{SeqNum{11}, EpochId{1}, bytes({4, 5})}},
        {header(), ReplicaAckBody{SeqNum{11}}},
        {header(), AckerSelectionBody{EpochId{4}, 0.04}},
        {header(), AckerResponseBody{EpochId{4}}},
        {header(), AckBody{EpochId{4}, SeqNum{42}}},
        {header(), ProbeRequestBody{2, 0.2}},
        {header(), ProbeReplyBody{2}},
        {header(), DiscoveryQueryBody{16, 0xCAFE}},
        {header(), DiscoveryReplyBody{0xCAFE, NodeId{55}, true}},
        {header(), PrimaryQueryBody{}},
        {header(), PrimaryReplyBody{NodeId{55}}},
        {header(), PromoteRequestBody{}},
        {header(), PromoteReplyBody{SeqNum{99}, true}},
    };
}

/// A multicast-run boundary crossing carrying a 16-byte DATA packet.
inline sim::Network::RemoteEvent sample_remote() {
    sim::Network::RemoteEvent ev;
    ev.at = at(0.125);
    ev.key = (std::uint64_t{17} << 32) | 4242;
    ev.kind = sim::Network::RemoteEvent::kMulticastRun;
    ev.scope = 1;
    ev.target_shard = 3;
    ev.packet = Packet{Header{GroupId{1}, NodeId{2}, NodeId{2}},
                       DataBody{SeqNum{7}, EpochId{1}, payload(16)}};
    ev.tree_root = 9;
    ev.entry_begin = 2;
    ev.entry_count = 5;
    return ev;
}

/// One scalar ("proto.count") and one two-bound histogram ("proto.lat").
inline obs::RegistrySnapshot make_snap(double c, std::uint64_t b0, std::uint64_t b1,
                                       std::uint64_t binf, double sum) {
    obs::RegistrySnapshot s;
    s.scalars["proto.count"] = c;
    obs::RegistrySnapshot::Hist h;
    h.bounds = {0.1, 1.0};
    h.counts = {b0, b1, binf};
    h.count = b0 + b1 + binf;
    h.sum = sum;
    s.histograms["proto.lat"] = h;
    return s;
}

inline obs::RegistrySnapshot sample_registry() { return make_snap(5, 2, 3, 4, 1.75); }

/// Three rows, one rate series and one level series.
inline obs::SamplerSnapshot sample_sampler() {
    obs::SamplerSnapshot snap;
    snap.interval_s = 0.05;
    snap.t = {0.05, 0.1, 0.15};
    snap.series.push_back({"rate.x", true, {1, 2, 3}});
    snap.series.push_back({"level.y", false, {7, 7, 8}});
    return snap;
}

/// A repaired recovery episode and an abandoned fetch episode.
inline std::vector<obs::EpisodeTracker::Record> sample_episodes() {
    using obs::EpisodeTracker;
    std::vector<EpisodeTracker::Record> eps(2);
    eps[0] = {7, 42, 1.0, 1.25, 3, 1, EpisodeTracker::Kind::kRecovery,
              EpisodeTracker::kTierFallback, EpisodeTracker::Reason::kRepaired};
    eps[1] = {9, 43, 2.0, 2.5, 0, 0, EpisodeTracker::Kind::kFetch,
              EpisodeTracker::kTierPrimary, EpisodeTracker::Reason::kAbandoned};
    return eps;
}

inline std::vector<obs::PortableSpan> sample_spans() { return {{"event_drain", 3, 100, 250}}; }

inline std::vector<std::uint64_t> sample_u64s() { return {5, 6, 7}; }

}  // namespace lbrm::test
