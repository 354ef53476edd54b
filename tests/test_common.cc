/**
 * @file
 * Unit tests for the common substrate: logging, RNG, stats, integer
 * math, saturating counters and the stop latch.
 */

#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/stop_latch.hh"

using namespace powerchop;

// --- logging ---------------------------------------------------------------

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("x=%d", 42), "x=42");
    EXPECT_EQ(csprintf("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(csprintf("%04x", 0xabu), "00ab");
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 1), PanicError);
    try {
        panic("code %d", 7);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("code 7"), std::string::npos);
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "nope"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, QuietSuppressesard)
{
    setQuiet(true);
    EXPECT_TRUE(quiet());
    warn("should not print");
    inform("should not print");
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
    EXPECT_THROW(r.below(0), PanicError);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(r.range(2, 1), PanicError);
}

TEST(Rng, BernoulliEdges)
{
    Rng r(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
        EXPECT_FALSE(r.bernoulli(-1.0));
        EXPECT_TRUE(r.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng r(23);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.15);
}

TEST(Rng, BurstLengthBounds)
{
    Rng r(29);
    for (int i = 0; i < 200; ++i) {
        auto b = r.burstLength(0.9, 16);
        ASSERT_GE(b, 1u);
        ASSERT_LE(b, 16u);
    }
    EXPECT_EQ(r.burstLength(0.0, 16), 1u);
    EXPECT_EQ(r.burstLength(1.0, 5), 5u);
}

// --- intmath ----------------------------------------------------------------

TEST(IntMath, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1023));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(IntMath, CeilPowerOf2)
{
    EXPECT_EQ(ceilPowerOf2(0), 1u);
    EXPECT_EQ(ceilPowerOf2(1), 1u);
    EXPECT_EQ(ceilPowerOf2(3), 4u);
    EXPECT_EQ(ceilPowerOf2(1025), 2048u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(67, 64), 64u);
    EXPECT_EQ(alignUp(67, 64), 128u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

// --- saturating counter -----------------------------------------------------

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_EQ(c.maxValue(), 3u);
}

TEST(SatCounter, IsSetAtUpperHalf)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.isSet());
    c.increment();
    EXPECT_TRUE(c.isSet());
    c.decrement();
    EXPECT_FALSE(c.isSet());
}

TEST(SatCounter, ResetClamps)
{
    SatCounter c(3);
    c.reset(100);
    EXPECT_EQ(c.value(), 7u);
    c.reset(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(SatCounter, RejectsBadWidth)
{
    EXPECT_THROW(SatCounter(0), PanicError);
    EXPECT_THROW(SatCounter(9), PanicError);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, ScalarAccumulates)
{
    stats::Scalar s;
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageMean)
{
    stats::Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(0, 10, 10);
    d.sample(0.5);
    d.sample(5.5);
    d.sample(9.9);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(5), 1u);
    EXPECT_EQ(d.bucketCount(9), 1u);
    EXPECT_EQ(d.totalSamples(), 3u);
    EXPECT_NEAR(d.mean(), (0.5 + 5.5 + 9.9) / 3, 1e-9);
}

TEST(Stats, DistributionEdges)
{
    stats::Distribution d(0, 10, 5);
    d.sample(-1);
    d.sample(100);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(4), 1u);
    EXPECT_THROW(d.bucketCount(5), PanicError);
}

TEST(Stats, DistributionValidation)
{
    EXPECT_THROW(stats::Distribution(0, 10, 0), PanicError);
    EXPECT_THROW(stats::Distribution(5, 5, 2), PanicError);
}

TEST(Stats, GroupDump)
{
    stats::Scalar s;
    s += 3;
    stats::Average a;
    a.sample(1.5);
    stats::Group g("core0");
    g.addScalar("insts", &s);
    g.addAverage("ipc", &a);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("core0.insts 3"), std::string::npos);
    EXPECT_NE(dump.find("core0.ipc 1.5"), std::string::npos);
}

TEST(Stats, DistributionPercentile)
{
    stats::Distribution d(0, 10, 10);
    for (int i = 0; i < 10; ++i)
        d.sample(i + 0.5); // One sample per bucket.

    // p of the mass is reached in bucket ceil(10p)-1, whose upper
    // edge is ceil(10p).
    EXPECT_DOUBLE_EQ(d.percentile(0.1), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.95), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 10.0);
    // p = 0 answers with the first bucket's upper edge.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
}

TEST(Stats, DistributionPercentileSkewed)
{
    stats::Distribution d(0, 100, 100);
    for (int i = 0; i < 99; ++i)
        d.sample(0.5);
    d.sample(99.5);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.999), 100.0);
}

TEST(Stats, DistributionPercentileClampsOutOfRange)
{
    stats::Distribution d(0, 10, 5);
    d.sample(-50);
    d.sample(500);
    // Out-of-range samples live in the edge buckets, so percentiles
    // stay within [min, max].
    EXPECT_DOUBLE_EQ(d.percentile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 10.0);
}

TEST(Stats, DistributionPercentileValidation)
{
    stats::Distribution d(0, 10, 5);
    EXPECT_THROW(d.percentile(0.5), PanicError); // Empty.
    d.sample(1);
    EXPECT_THROW(d.percentile(-0.1), PanicError);
    EXPECT_THROW(d.percentile(1.1), PanicError);
}

TEST(Stats, GroupToJson)
{
    stats::Scalar s;
    s += 42;
    stats::Average a;
    a.sample(1.0);
    a.sample(2.0);
    stats::Group g("core0");
    g.addScalar("insts", &s);
    g.addAverage("ipc", &a);
    EXPECT_EQ(g.toJson(), "{\"core0.insts\":42,\"core0.ipc\":1.5}");
}

TEST(Stats, GroupToJsonEmpty)
{
    stats::Group g("idle");
    EXPECT_EQ(g.toJson(), "{}");
}

TEST(Stats, GroupAccessorsSorted)
{
    stats::Scalar s1, s2;
    stats::Group g("g");
    g.addScalar("zeta", &s1);
    g.addScalar("alpha", &s2);
    ASSERT_EQ(g.scalars().size(), 2u);
    EXPECT_EQ(g.scalars().begin()->first, "alpha");
    EXPECT_TRUE(g.averages().empty());
}

// --- stop latch ------------------------------------------------------------

TEST(StopLatch, StopWakesAWaiterAtOnce)
{
    StopLatch latch;
    EXPECT_FALSE(latch.waitFor(std::chrono::milliseconds(1)));
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        latch.stop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(latch.waitFor(std::chrono::seconds(30)));
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    stopper.join();
    EXPECT_TRUE(latch.waitFor(std::chrono::seconds(30)))
        << "a stopped latch stays stopped";
}

TEST(StopLatch, StopRequestOnTheOtherTokenWakesAWaiter)
{
    StopLatch latch;
    std::stop_source other;
    std::thread requester([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        other.request_stop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(latch.waitUntil(t0 + std::chrono::seconds(30),
                                 other.get_token()))
        << "the other token wakes the waiter but does not stop the latch";
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    requester.join();
}
