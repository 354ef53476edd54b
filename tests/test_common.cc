/**
 * @file
 * Unit tests for the common substrate: logging, RNG, stats, integer
 * math, saturating counters, the stop latch and the flag table.
 */

#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
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

// Rng::chance(Chance(p)) must be bernoulli(p) to the bit: the same
// answers and the same draws, so the stream after each call agrees
// too. Covers the no-draw edges, the smallest subnormal, 2^-53 and
// 1 - 2^-53 (the extreme thresholds), and NaN (draws, never true).
TEST(Rng, ChanceMatchesBernoulli)
{
    const double ps[] = {-1.0, 0.0, 4.9e-324, 0x1p-53, 0.01, 0.3, 0.5,
                         0.95, 1.0 - 0x1p-53, 1.0, 2.0, std::nan("")};
    for (double p : ps) {
        SCOPED_TRACE(testing::Message() << "p = " << p);
        Rng a(31), b(31);
        const Chance c(p);
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(a.chance(c), b.bernoulli(p)) << "draw " << i;
            ASSERT_EQ(a.next(), b.next()) << "draw " << i;
        }
    }
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

// --- flag table ------------------------------------------------------------

namespace
{

/** A tool's options: a number, a text, a switch, two forwarded. */
struct FlagFixture
{
    unsigned count = 0;
    std::string name;
    bool verbose = false;
    std::vector<Flag> flags = {
        {"--count", "N", "a count", setNumber(count, 0u, 10u), true},
        {"--name", "S", "a name", setText(name)},
        {"--verbose", nullptr, "a switch", setSwitch(verbose), true},
    };

    std::vector<std::string>
    parse(const std::vector<std::string> &args)
    {
        return parseFlags(flags, args);
    }
};

} // namespace

TEST(FlagTable, UnknownFlagOrMissingValueIsAUsageError)
{
    FlagFixture f;
    EXPECT_THROW(f.parse({"--bogus"}), UsageError);
    EXPECT_THROW(f.parse({"--name", "x", "--count"}), UsageError);
    try {
        f.parse({"--count"});
        FAIL() << "a flag without its value parsed";
    } catch (const UsageError &e) {
        EXPECT_EQ(std::string(e.what()), "--count wants a value");
    }
    // The value goes through the flag's own checked parser.
    EXPECT_THROW(f.parse({"--count", "11"}), UsageError);
}

TEST(FlagTable, SwitchTakesNoValue)
{
    FlagFixture f;
    // The token after a switch is the next flag, not its value.
    f.parse({"--verbose", "--name", "x"});
    EXPECT_TRUE(f.verbose);
    EXPECT_EQ(f.name, "x");
    EXPECT_THROW(f.parse({"--verbose", "yes"}), UsageError);
}

TEST(FlagTable, LastValueWins)
{
    FlagFixture f;
    f.parse({"--count", "3", "--name", "a", "--count", "7", "--name", "b"});
    EXPECT_EQ(f.count, 7u);
    EXPECT_EQ(f.name, "b");
}

TEST(FlagTable, ForwardedTokensComeOutVerbatimInOrder)
{
    FlagFixture f;
    EXPECT_EQ(f.parse({"--name", "a", "--count", "07", "--verbose",
                       "--count", "5"}),
              (std::vector<std::string>{"--count", "07", "--verbose",
                                        "--count", "5"}));
    EXPECT_TRUE(f.parse({"--name", "a"}).empty());
}

TEST(FlagTable, UsageHasOneLinePerFlag)
{
    FlagFixture f;
    EXPECT_EQ(flagUsage(f.flags), "  --count N  a count\n"
                                  "  --name S   a name\n"
                                  "  --verbose  a switch\n");
}

TEST(FlagTable, SplitListDropsEmptyItems)
{
    EXPECT_EQ(splitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(splitList("").empty());
}
