// Unit tests for the foundation library: byte codec, shared payload
// buffers, serial sequence numbers, EWMA, statistics and the deterministic
// RNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/bytes.hpp"
#include "common/ewma.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/seqnum.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

namespace lbrm {
namespace {

// --- bytes -----------------------------------------------------------------

TEST(Bytes, RoundTripsAllWidths) {
    ByteWriter w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(3.14159);
    w.str16("hello LBRM");

    ByteReader r{w.data()};
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str16(), "hello LBRM");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BigEndianOnTheWire) {
    ByteWriter w;
    w.u32(0x01020304);
    const auto& d = w.data();
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0], 0x01);
    EXPECT_EQ(d[3], 0x04);
}

TEST(Bytes, ReaderFailsGracefullyOnTruncation) {
    ByteWriter w;
    w.u32(7);
    ByteReader r{w.data()};
    EXPECT_TRUE(r.u16().has_value());
    EXPECT_TRUE(r.u16().has_value());
    EXPECT_FALSE(r.u8().has_value());  // exhausted
    EXPECT_FALSE(r.ok());
    // Failure latches: all further reads fail.
    EXPECT_FALSE(r.u8().has_value());
}

TEST(Bytes, Blob16LengthIsValidated) {
    ByteWriter w;
    w.u16(100);  // claims 100 bytes follow
    w.u8(1);     // ...but only one does
    ByteReader r{w.data()};
    EXPECT_FALSE(r.blob16().has_value());
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, Blob16RejectsOversizedPayloadOnWrite) {
    ByteWriter w;
    std::vector<std::uint8_t> big(70000, 0);
    EXPECT_THROW(w.blob16(big), std::length_error);
}

TEST(Bytes, EmptyStringRoundTrips) {
    ByteWriter w;
    w.str16("");
    ByteReader r{w.data()};
    EXPECT_EQ(r.str16(), "");
    EXPECT_TRUE(r.at_end());
}

TEST(Bytes, F64SpecialValues) {
    ByteWriter w;
    w.f64(0.0);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::infinity());
    ByteReader r{w.data()};
    EXPECT_EQ(r.f64(), 0.0);
    EXPECT_EQ(r.f64(), -0.0);
    EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
}

// --- payload ---------------------------------------------------------------

TEST(Payload, SeparatelyBuiltEqualPayloadsCompareEqual) {
    const std::vector<std::uint8_t> bytes{1, 2, 3, 255};
    const Payload a{bytes};
    const Payload b{std::span<const std::uint8_t>{bytes}};
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, bytes);
    EXPECT_EQ(bytes, b);
    EXPECT_NE(a, (Payload{1, 2, 3}));
    EXPECT_NE(a, (Payload{1, 2, 3, 254}));
    const Payload empty{std::vector<std::uint8_t>{}};
    EXPECT_EQ(empty, Payload{});
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.begin(), empty.end());
}

TEST(Payload, CopiesShareOneBuffer) {
    const Payload a{7, 8, 9};
    const Payload copy = a;
    EXPECT_EQ(copy.data(), a.data());
    ASSERT_EQ(copy.size(), 3u);
    EXPECT_EQ(copy[2], 9);
    const std::span<const std::uint8_t> view = copy;
    EXPECT_EQ(view.data(), a.data());
    EXPECT_EQ(view.size(), 3u);
}

// --- seqnum ----------------------------------------------------------------

TEST(SeqNum, BasicOrdering) {
    EXPECT_LT(SeqNum{1}, SeqNum{2});
    EXPECT_GT(SeqNum{100}, SeqNum{99});
    EXPECT_EQ(SeqNum{5}, SeqNum{5});
}

TEST(SeqNum, WrapAroundOrdering) {
    const SeqNum near_max{0xFFFFFFFFu};
    const SeqNum wrapped{2};
    EXPECT_LT(near_max, wrapped);  // serial arithmetic: 2 is "after" max
    EXPECT_GT(wrapped, near_max);
    EXPECT_EQ(near_max.next(), SeqNum{0});
}

TEST(SeqNum, DistanceSignedness) {
    EXPECT_EQ(SeqNum{10}.distance_to(SeqNum{15}), 5);
    EXPECT_EQ(SeqNum{15}.distance_to(SeqNum{10}), -5);
    EXPECT_EQ(SeqNum{0xFFFFFFFFu}.distance_to(SeqNum{1}), 2);
}

TEST(SeqNum, IncrementAndPlus) {
    SeqNum s{41};
    EXPECT_EQ((++s).value(), 42u);
    EXPECT_EQ(s.plus(-2), SeqNum{40});
    EXPECT_EQ(s.prev(), SeqNum{41});
}

TEST(SeqNum, IterationAcrossWrapTerminates) {
    int count = 0;
    for (SeqNum s{0xFFFFFFFEu}; s <= SeqNum{1}; ++s) ++count;
    EXPECT_EQ(count, 4);  // FFFFFFFE, FFFFFFFF, 0, 1
}

// --- ewma ------------------------------------------------------------------

TEST(Ewma, AdoptsFirstSampleWhenUnseeded) {
    Ewma e{0.125};
    EXPECT_FALSE(e.seeded());
    e.update(80.0);
    EXPECT_DOUBLE_EQ(e.value(), 80.0);
}

TEST(Ewma, JacobsonUpdateMatchesFormula) {
    Ewma e{0.125, 100.0};
    // t' = 0.125 * 60 + 0.875 * 100 = 95
    EXPECT_DOUBLE_EQ(e.update(60.0), 95.0);
}

TEST(Ewma, ConvergesToConstantInput) {
    Ewma e{0.25, 0.0};
    for (int i = 0; i < 100; ++i) e.update(42.0);
    EXPECT_NEAR(e.value(), 42.0, 1e-6);
}

TEST(Ewma, RejectsBadAlpha) {
    EXPECT_THROW(Ewma(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(Ewma(1.5, 1.0), std::invalid_argument);
}

// --- stats -----------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example: sigma = 2
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleSet, Quantiles) {
    SampleSet s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.p99(), 99.01, 0.1);
}

TEST(SampleSet, QuantileValidatesRange) {
    SampleSet s;
    s.add(1.0);
    EXPECT_THROW((void)s.quantile(1.5), std::invalid_argument);
}

TEST(Histogram, BucketsAndClamping) {
    Histogram h{0.0, 10.0, 10};
    h.add(0.5);    // bucket 0
    h.add(9.99);   // bucket 9
    h.add(-5.0);   // clamps to 0
    h.add(50.0);   // clamps to 9
    EXPECT_EQ(h.count_at(0), 2u);
    EXPECT_EQ(h.count_at(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
    Rng a{7};
    Rng b{7};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, BernoulliEdgeCases) {
    Rng rng{1};
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliFrequency) {
    Rng rng{99};
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, UniformDurationWithinBounds) {
    Rng rng{5};
    for (int i = 0; i < 1000; ++i) {
        const Duration d = rng.uniform_duration(millis(5), millis(15));
        EXPECT_GE(d, millis(5));
        EXPECT_LT(d, millis(15));
    }
}

// --- time helpers -------------------------------------------------------------

TEST(Time, SecondsRoundTrip) {
    EXPECT_DOUBLE_EQ(to_seconds(secs(0.25)), 0.25);
    EXPECT_EQ(millis(1500), secs(1.5));
    EXPECT_EQ(scale(secs(2.0), 2.0), secs(4.0));
}

}  // namespace
}  // namespace lbrm
