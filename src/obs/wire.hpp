// Field lists of the cross-shard telemetry plane (see DESIGN.md
// "Cross-shard telemetry").
//
// Shard children ship their full observability state -- structured registry
// snapshots with histogram buckets intact, sampler series, completed
// recovery episodes, wall-time trace spans -- inside the REPORT frame, as
// part of sim::ShardReport's field list (sim/shard.hpp).  Each payload's
// layout is one field list here, walked by the same encoder, decoder and
// big-endian substrate as the protocol packets (common/bytes.hpp); lists
// and maps carry u32 counts.
#pragma once

#include <cstdint>
#include <string>

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

void fields(auto& a, MaybeConst<RegistrySnapshot> auto& s) {
    a(counted<std::uint32_t>(s.scalars), counted<std::uint32_t>(s.histograms));
}

void fields(auto& a, MaybeConst<RegistrySnapshot::Hist> auto& h) {
    a(counted<std::uint32_t>(h.bounds));
    // One count per bound plus the +inf bucket; no count on the wire.
    a(implied(h.counts, h.bounds.size() + 1), h.count, h.sum);
}

void fields(auto& a, MaybeConst<SamplerSnapshot> auto& s) {
    a(s.interval_s, counted<std::uint32_t>(s.t));
    // Every series holds one value per row, so its length is the row count.
    a(counted<std::uint32_t>(s.series, [&s](auto& w, auto& series) {
        w(series.name, series.rate, implied(series.values, s.t.size()));
    }));
}

/// Any byte reads into the u8-backed kind, tier and reason, so a reader of
/// records from another process checks their range after the read
/// (sim::read_report).
void fields(auto& a, MaybeConst<EpisodeTracker::Record> auto& r) {
    a(r.node, r.seq, r.opened_s, r.closed_s, r.nacks, r.cold_restarts, r.kind, r.tier,
      r.reason);
}

void fields(auto& a, MaybeConst<PortableSpan> auto& s) { a(s.name, s.tid, s.start_ns, s.dur_ns); }

}  // namespace lbrm::obs
