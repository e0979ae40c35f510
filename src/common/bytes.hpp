// Big-endian (network byte order) serialization primitives, and the field
// lists that state each LBRM wire structure's layout.
//
// All LBRM wire structures are encoded through ByteWriter/ByteReader so the
// on-the-wire format is identical regardless of host endianness, and so
// decode failures (truncation, garbage) surface as recoverable errors rather
// than undefined behaviour.  ByteReader never throws on malformed input: it
// returns std::nullopt and latches a failure flag, which lets packet decoding
// be driven by untrusted network data.
//
// Field lists.  A wire structure states its layout once, in wire order, as a
// `fields` overload in its own namespace (found by argument-dependent
// lookup):
//
//     void fields(auto& a, MaybeConst<DataBody> auto& b) {
//         a(b.seq, b.epoch, b.payload);
//     }
//
// write_fields() walks it into a ByteWriter (encode), fields_size() walks the
// same writer into a ByteCounter (encoded size), and read_fields() walks it
// out of a ByteReader (decode), so the three cannot disagree.  The same
// writer walked into an Fnv1aSink hashes an encoding without building it.
// Leaves:
//
//   u8, u16, u32, u64, i64, f64      as themselves
//   bool, u8-backed enums            one byte; a nonzero bool byte reads true
//   SeqNum, u32 strong ids           u32
//   TimePoint                        i64 nanosecond ticks
//   Payload, std::string             u16 length, then the bytes
//   std::pair                        first, then second (map entries)
//
// A sequence says how its length travels: counted<Count>(seq) puts a
// Count-wide element count in front; implied(seq, n) puts nothing, because
// the reader already knows n.  The reader appends element by element and
// stops at the first short read; it never reserves from a count it read.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"

namespace lbrm {

/// Appends integers/strings/blobs in network byte order to a growable buffer.
class ByteWriter {
public:
    ByteWriter() = default;
    explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u16(std::uint16_t v) {
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
        buf_.push_back(static_cast<std::uint8_t>(v));
    }

    void u32(std::uint32_t v) {
        for (int shift = 24; shift >= 0; shift -= 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }

    void u64(std::uint64_t v) {
        for (int shift = 56; shift >= 0; shift -= 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// IEEE-754 double, transported as its bit pattern.
    void f64(double v) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /// Raw bytes, no length prefix.
    void bytes(std::span<const std::uint8_t> data) {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }

    /// Length-prefixed (u16) byte string; `data.size()` must fit in 16 bits.
    void blob16(std::span<const std::uint8_t> data);

    /// Length-prefixed (u16) UTF-8 string.
    void str16(std::string_view s) {
        blob16({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }

    [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Consumes network-byte-order fields from a fixed buffer.
///
/// Every accessor returns std::nullopt once the buffer is exhausted or a
/// prior read failed; `ok()` reports whether the whole parse succeeded.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::optional<std::uint8_t> u8() {
        if (!ensure(1)) return std::nullopt;
        return data_[pos_++];
    }

    std::optional<std::uint16_t> u16() {
        if (!ensure(2)) return std::nullopt;
        std::uint16_t v = static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
        pos_ += 2;
        return v;
    }

    std::optional<std::uint32_t> u32() {
        if (!ensure(4)) return std::nullopt;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 4;
        return v;
    }

    std::optional<std::uint64_t> u64() {
        if (!ensure(8)) return std::nullopt;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 8;
        return v;
    }

    std::optional<std::int64_t> i64() {
        auto v = u64();
        if (!v) return std::nullopt;
        return static_cast<std::int64_t>(*v);
    }

    std::optional<double> f64() {
        auto bits = u64();
        if (!bits) return std::nullopt;
        double v = 0;
        std::memcpy(&v, &*bits, sizeof(v));
        return v;
    }

    /// Exactly n raw bytes.
    std::optional<std::span<const std::uint8_t>> bytes(std::size_t n) {
        if (!ensure(n)) return std::nullopt;
        auto out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    /// u16-length-prefixed byte string (see ByteWriter::blob16), copied
    /// straight from the input into a fresh Payload buffer.
    std::optional<Payload> blob16();

    /// u16-length-prefixed UTF-8 string.
    std::optional<std::string> str16();

    /// All bytes not yet consumed.
    [[nodiscard]] std::span<const std::uint8_t> remaining() const {
        return data_.subspan(pos_);
    }

    [[nodiscard]] std::size_t consumed() const { return pos_; }
    [[nodiscard]] bool ok() const { return !failed_; }
    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

private:
    bool ensure(std::size_t n) {
        if (failed_ || data_.size() - pos_ < n) {
            failed_ = true;
            return false;
        }
        return true;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/// Counts the bytes a ByteWriter would append, without writing them: the
/// sink that turns an encoder into its size function.  Unlike ByteWriter it
/// never throws, so sizing an oversize structure is not an error.
class ByteCounter {
public:
    void u8(std::uint8_t) { n_ += 1; }
    void u16(std::uint16_t) { n_ += 2; }
    void u32(std::uint32_t) { n_ += 4; }
    void u64(std::uint64_t) { n_ += 8; }
    void i64(std::int64_t) { n_ += 8; }
    void f64(double) { n_ += 8; }
    void blob16(std::span<const std::uint8_t> data) { n_ += 2 + data.size(); }
    void str16(std::string_view s) { n_ += 2 + s.size(); }

    [[nodiscard]] std::size_t size() const { return n_; }

private:
    std::size_t n_ = 0;
};

/// Folds the bytes a ByteWriter would append into a 64-bit FNV-1a hash,
/// without writing them: the sink that hashes an encoding in place.  Like
/// ByteCounter it never throws.
class Fnv1aSink {
public:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    explicit Fnv1aSink(std::uint64_t h) : h_(h) {}

    void u8(std::uint8_t v) { h_ = (h_ ^ v) * kPrime; }
    void u16(std::uint16_t v) {
        u8(static_cast<std::uint8_t>(v >> 8));
        u8(static_cast<std::uint8_t>(v));
    }
    void u32(std::uint32_t v) {
        for (int shift = 24; shift >= 0; shift -= 8) u8(static_cast<std::uint8_t>(v >> shift));
    }
    void u64(std::uint64_t v) {
        for (int shift = 56; shift >= 0; shift -= 8) u8(static_cast<std::uint8_t>(v >> shift));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void bytes(std::span<const std::uint8_t> data) {
        for (const std::uint8_t b : data) u8(b);
    }
    void blob16(std::span<const std::uint8_t> data) {
        u16(static_cast<std::uint16_t>(data.size()));
        bytes(data);
    }
    void str16(std::string_view s) {
        blob16({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }

    [[nodiscard]] std::uint64_t hash() const { return h_; }

private:
    std::uint64_t h_;
};

// --- field lists ---------------------------------------------------------------

/// `T` with or without const: one field list serves the writer, which walks
/// a const structure, and the reader, which fills a mutable one.
template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

/// An enum stored as its one-byte underlying value.
template <typename T>
concept ByteEnum = std::is_enum_v<T> && std::same_as<std::underlying_type_t<T>, std::uint8_t>;

/// Walks one sequence element through its own field list.
struct EachField {
    void operator()(auto& a, auto& element) const { a(element); }
};

/// A sequence preceded by its `Count`-wide element count.  `each(a, e)`
/// walks one element, for elements whose layout depends on the parent.
template <typename Count, typename Seq, typename Each>
struct Counted {
    Seq& seq;
    Each each;
};

/// A sequence whose length the reader already knows: no count on the wire.
template <typename Seq>
struct Implied {
    Seq& seq;
    std::size_t n;
};

template <typename Count, typename Seq, typename Each = EachField>
Counted<Count, Seq, Each> counted(Seq& seq, Each each = {}) { return {seq, each}; }

template <typename Seq>
Implied<Seq> implied(Seq& seq, std::size_t n) { return {seq, n}; }

/// Walks field lists into `Sink`: a ByteWriter to encode, a ByteCounter to
/// size.  Writing a sequence longer than its count field can hold throws
/// std::length_error, as ByteWriter::blob16 does.
template <typename Sink>
class FieldWriter {
public:
    explicit FieldWriter(Sink& sink) : sink_(sink) {}

    template <typename... Ts>
    void operator()(const Ts&... xs) { (field(xs), ...); }

private:
    void field(std::uint8_t v) { sink_.u8(v); }
    void field(std::uint16_t v) { sink_.u16(v); }
    void field(std::uint32_t v) { sink_.u32(v); }
    void field(std::uint64_t v) { sink_.u64(v); }
    void field(std::int64_t v) { sink_.i64(v); }
    void field(double v) { sink_.f64(v); }
    void field(bool v) { sink_.u8(v ? 1 : 0); }
    void field(SeqNum s) { sink_.u32(s.value()); }
    void field(TimePoint t) { sink_.i64(t.time_since_epoch().count()); }
    void field(const Payload& blob) { sink_.blob16(blob); }
    void field(const std::string& s) { sink_.str16(s); }

    template <typename Tag>
    void field(const detail::StrongId<Tag>& id) { sink_.u32(id.value()); }

    template <ByteEnum E>
    void field(const E& e) { sink_.u8(static_cast<std::uint8_t>(e)); }

    template <typename A, typename B>
    void field(const std::pair<A, B>& p) {
        field(p.first);
        field(p.second);
    }

    template <typename Count, typename Seq, typename Each>
    void field(const Counted<Count, Seq, Each>& c) {
        if constexpr (std::is_same_v<Sink, ByteWriter>) {
            if (c.seq.size() > std::numeric_limits<Count>::max())
                throw std::length_error("ByteWriter: sequence longer than its count field");
        }
        field(static_cast<Count>(c.seq.size()));
        for (const auto& e : c.seq) c.each(*this, e);
    }

    template <typename Seq>
    void field(const Implied<Seq>& s) { for (const auto& e : s.seq) field(e); }

    template <typename T>
    void field(const T& x) { fields(*this, x); }

    Sink& sink_;
};

namespace detail {
/// What a reader decodes one element of `Seq` into: the value type, or for
/// a map a (key, mapped) pair with a mutable key.
template <typename Seq>
struct ElementOf {
    using type = typename Seq::value_type;
};
template <typename Seq>
    requires requires { typename Seq::mapped_type; }
struct ElementOf<Seq> {
    using type = std::pair<typename Seq::key_type, typename Seq::mapped_type>;
};
}  // namespace detail

/// Walks field lists out of a ByteReader.  A short read latches the
/// reader's failure flag, every later read fails at once, and a sequence
/// stops at the first failed element without appending it.
class FieldReader {
public:
    explicit FieldReader(ByteReader& r) : r_(r) {}

    template <typename... Ts>
    void operator()(Ts&&... xs) { (field(xs), ...); }

private:
    void field(std::uint8_t& v) { if (auto x = r_.u8()) v = *x; }
    void field(std::uint16_t& v) { if (auto x = r_.u16()) v = *x; }
    void field(std::uint32_t& v) { if (auto x = r_.u32()) v = *x; }
    void field(std::uint64_t& v) { if (auto x = r_.u64()) v = *x; }
    void field(std::int64_t& v) { if (auto x = r_.i64()) v = *x; }
    void field(double& v) { if (auto x = r_.f64()) v = *x; }
    void field(bool& v) { if (auto x = r_.u8()) v = *x != 0; }
    void field(SeqNum& s) { if (auto x = r_.u32()) s = SeqNum{*x}; }
    void field(TimePoint& t) { if (auto x = r_.i64()) t = TimePoint{Duration{*x}}; }
    void field(Payload& blob) { if (auto x = r_.blob16()) blob = std::move(*x); }
    void field(std::string& s) { if (auto x = r_.str16()) s = std::move(*x); }

    template <typename Tag>
    void field(detail::StrongId<Tag>& id) {
        if (auto x = r_.u32()) id = detail::StrongId<Tag>{*x};
    }

    template <ByteEnum E>
    void field(E& e) { if (auto x = r_.u8()) e = static_cast<E>(*x); }

    template <typename A, typename B>
    void field(std::pair<A, B>& p) {
        field(p.first);
        field(p.second);
    }

    template <typename Count, typename Seq, typename Each>
    void field(Counted<Count, Seq, Each>& c) {
        Count n = 0;
        field(n);
        read_elements(c.seq, n, c.each);
    }

    template <typename Seq>
    void field(Implied<Seq>& s) { read_elements(s.seq, s.n, EachField{}); }

    template <typename T>
    void field(T& x) { fields(*this, x); }

    template <typename Seq, typename Each>
    void read_elements(Seq& seq, std::size_t n, const Each& each) {
        for (std::size_t i = 0; i < n && r_.ok(); ++i) {
            typename detail::ElementOf<Seq>::type e{};
            each(*this, e);
            if (r_.ok()) seq.insert(seq.end(), std::move(e));
        }
    }

    ByteReader& r_;
};

/// Append the field lists of `xs`, in order.
template <typename... Ts>
void write_fields(ByteWriter& w, const Ts&... xs) { FieldWriter<ByteWriter>{w}(xs...); }

/// The number of bytes write_fields(w, xs...) appends.
template <typename... Ts>
[[nodiscard]] std::size_t fields_size(const Ts&... xs) {
    ByteCounter counter;
    FieldWriter<ByteCounter>{counter}(xs...);
    return counter.size();
}

/// Fill `xs` from `r`, in order.  False when the input ran short; the
/// fields read before that point keep their values.
template <typename... Ts>
[[nodiscard]] bool read_fields(ByteReader& r, Ts&&... xs) {
    FieldReader{r}(xs...);
    return r.ok();
}

}  // namespace lbrm
