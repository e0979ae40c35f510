// Wire codecs for the cross-shard telemetry plane (see DESIGN.md
// "Cross-shard telemetry").
//
// Shard children ship their full observability state -- structured registry
// snapshots with histogram buckets intact, sampler series, completed
// recovery episodes, wall-time trace spans, and per-window wait profiles --
// inside the REPORT frame (sim/shard_proc.cpp).  Each payload's layout is
// one field list in wire.cpp, walked by the same encoder, decoder and
// big-endian substrate as the protocol packets (common/bytes.hpp); lists
// and maps carry u32 counts.  Every decoder is optional-on-failure so a
// truncated or malformed frame surfaces as std::nullopt, never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "obs/episode.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace lbrm::obs {

/// Owning, process-portable form of TraceRecorder::Span (whose `name` is a
/// string-literal pointer valid only inside the recording process).
struct PortableSpan {
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
};

namespace wire {

void encode_registry(ByteWriter& w, const RegistrySnapshot& snap);
[[nodiscard]] std::optional<RegistrySnapshot> decode_registry(ByteReader& r);

void encode_sampler(ByteWriter& w, const SamplerSnapshot& snap);
[[nodiscard]] std::optional<SamplerSnapshot> decode_sampler(ByteReader& r);

void encode_episodes(ByteWriter& w, const std::vector<EpisodeTracker::Record>& recs);
[[nodiscard]] std::optional<std::vector<EpisodeTracker::Record>> decode_episodes(
    ByteReader& r);

void encode_spans(ByteWriter& w, const std::vector<PortableSpan>& spans);
[[nodiscard]] std::optional<std::vector<PortableSpan>> decode_spans(ByteReader& r);

/// u32-count-prefixed list of u64s (per-window wait/splice profiles).
void encode_u64s(ByteWriter& w, const std::vector<std::uint64_t>& vals);
[[nodiscard]] std::optional<std::vector<std::uint64_t>> decode_u64s(ByteReader& r);

}  // namespace wire
}  // namespace lbrm::obs
