#include "obs/wire.hpp"

namespace lbrm::obs {

// Field lists of the REPORT payloads (see common/bytes.hpp).  Telemetry
// lists and maps carry u32 counts.

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

void fields(auto& a, MaybeConst<EpisodeTracker::Record> auto& r) {
    a(r.node, r.seq, r.opened_s, r.closed_s, r.nacks, r.cold_restarts, r.kind, r.tier,
      r.reason);
}

void fields(auto& a, MaybeConst<PortableSpan> auto& s) { a(s.name, s.tid, s.start_ns, s.dur_ns); }

namespace wire {

namespace {

template <typename T>
std::optional<T> read_value(ByteReader& r) {
    T value;
    if (!read_fields(r, value)) return std::nullopt;
    return value;
}

/// A u32-counted list of `T`.
template <typename T>
std::optional<std::vector<T>> read_list(ByteReader& r) {
    std::vector<T> list;
    if (!read_fields(r, counted<std::uint32_t>(list))) return std::nullopt;
    return list;
}

}  // namespace

void encode_registry(ByteWriter& w, const RegistrySnapshot& snap) { write_fields(w, snap); }

std::optional<RegistrySnapshot> decode_registry(ByteReader& r) {
    return read_value<RegistrySnapshot>(r);
}

void encode_sampler(ByteWriter& w, const SamplerSnapshot& snap) { write_fields(w, snap); }

std::optional<SamplerSnapshot> decode_sampler(ByteReader& r) {
    return read_value<SamplerSnapshot>(r);
}

void encode_episodes(ByteWriter& w, const std::vector<EpisodeTracker::Record>& recs) {
    write_fields(w, counted<std::uint32_t>(recs));
}

std::optional<std::vector<EpisodeTracker::Record>> decode_episodes(ByteReader& r) {
    auto recs = read_list<EpisodeTracker::Record>(r);
    if (!recs) return std::nullopt;
    // Any byte reads into a u8-backed enum, so the range check follows the
    // read: an out-of-range kind, tier or reason fails the whole list.
    for (const EpisodeTracker::Record& rec : *recs)
        if (rec.kind > EpisodeTracker::Kind::kFetch || rec.tier > EpisodeTracker::kTierPrimary ||
            rec.reason > EpisodeTracker::Reason::kAbandoned)
            return std::nullopt;
    return recs;
}

void encode_spans(ByteWriter& w, const std::vector<PortableSpan>& spans) {
    write_fields(w, counted<std::uint32_t>(spans));
}

std::optional<std::vector<PortableSpan>> decode_spans(ByteReader& r) {
    return read_list<PortableSpan>(r);
}

void encode_u64s(ByteWriter& w, const std::vector<std::uint64_t>& vals) {
    write_fields(w, counted<std::uint32_t>(vals));
}

std::optional<std::vector<std::uint64_t>> decode_u64s(ByteReader& r) {
    return read_list<std::uint64_t>(r);
}

}  // namespace wire
}  // namespace lbrm::obs
