/**
 * @file
 * Unit tests for the way-gateable set-associative cache and the
 * memory hierarchy with its shadow tag array.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "uarch/cache.hh"
#include "uarch/mem_hierarchy.hh"

using namespace powerchop;

namespace
{

CacheParams
smallCache()
{
    return CacheParams{8 * 1024, 4, 64};  // 32 sets x 4 ways
}

/**
 * Brute-force model of SetAssocCache's specification: explicit
 * per-line valid, dirty, drowsy and LRU state, "first invalid way,
 * else the LRU way" replacement and a drowseAll() that visits every
 * line. Slow and obvious, so SetAssocCache's packed encoding (tag
 * sentinels, LRU-stamp victims, sweep stamps) is checked against
 * something that shares none of it.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : activeWays_(p.assoc), assoc_(p.assoc), lineBytes_(p.lineBytes),
          sets_(p.sizeBytes / p.lineBytes / p.assoc),
          lines_(sets_ * p.assoc)
    {
    }

    CacheAccessResult
    access(Addr addr, bool write)
    {
        ++tick_;
        ++windowAccesses_;
        const Addr line_addr = addr / lineBytes_;
        Line *set = &lines_[(line_addr % sets_) * assoc_];
        const Addr tag = line_addr / sets_;
        CacheAccessResult r;
        for (unsigned w = 0; w < activeWays_; ++w) {
            Line &l = set[w];
            if (l.valid && l.tag == tag) {
                r.hit = true;
                ++hits_;
                ++windowHits_;
                if (l.drowsy) {
                    l.drowsy = false;
                    r.wokeDrowsy = true;
                    ++drowsyWakes_;
                }
                l.lru = tick_;
                l.dirty = l.dirty || write;
                return r;
            }
        }
        unsigned victim = activeWays_;
        for (unsigned w = 0; w < activeWays_ && victim == activeWays_; ++w)
            if (!set[w].valid)
                victim = w;
        if (victim == activeWays_) {
            victim = 0;
            for (unsigned w = 1; w < activeWays_; ++w)
                if (set[w].lru < set[victim].lru)
                    victim = w;
        }
        ++misses_;
        if (set[victim].valid && set[victim].dirty) {
            r.dirtyEviction = true;
            ++writebacks_;
        }
        set[victim] = Line{true, write, false, tag, tick_};
        return r;
    }

    std::uint64_t
    setActiveWays(unsigned ways)
    {
        std::uint64_t wb = 0;
        for (std::uint64_t s = 0; s < sets_; ++s)
            for (unsigned w = ways; w < activeWays_; ++w)
                wb += drop(lines_[s * assoc_ + w]);
        activeWays_ = ways;
        return wb;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t wb = 0;
        for (Line &l : lines_)
            wb += drop(l);
        return wb;
    }

    std::uint64_t
    drowseAll()
    {
        std::uint64_t n = 0;
        for (Line &l : lines_) {
            if (l.valid && !l.drowsy) {
                l.drowsy = true;
                ++n;
            }
        }
        return n;
    }

    void
    resetWindowStats()
    {
        windowHits_ = 0;
        windowAccesses_ = 0;
    }

    std::uint64_t
    awakeLineCount() const
    {
        std::uint64_t n = 0;
        for (const Line &l : lines_)
            n += l.valid && !l.drowsy;
        return n;
    }

    std::uint64_t
    validLineCount() const
    {
        std::uint64_t n = 0;
        for (const Line &l : lines_)
            n += l.valid;
        return n;
    }

    unsigned activeWays_;
    std::uint64_t hits_ = 0, misses_ = 0, writebacks_ = 0;
    std::uint64_t drowsyWakes_ = 0, windowHits_ = 0, windowAccesses_ = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool drowsy = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    /** Invalidate one line; @return 1 when it was written back. */
    std::uint64_t
    drop(Line &l)
    {
        const bool wb = l.valid && l.dirty;
        writebacks_ += wb;
        l = Line{};
        return wb;
    }

    unsigned assoc_;
    unsigned lineBytes_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
};

void
expectSameState(const SetAssocCache &c, const ReferenceCache &ref)
{
    ASSERT_EQ(c.hits(), ref.hits_);
    ASSERT_EQ(c.misses(), ref.misses_);
    ASSERT_EQ(c.writebacks(), ref.writebacks_);
    ASSERT_EQ(c.drowsyWakes(), ref.drowsyWakes_);
    ASSERT_EQ(c.windowHits(), ref.windowHits_);
    ASSERT_EQ(c.windowAccesses(), ref.windowAccesses_);
    ASSERT_EQ(c.activeWays(), ref.activeWays_);
    ASSERT_EQ(c.awakeLineCount(), ref.awakeLineCount());
    ASSERT_EQ(c.validLineCount(), ref.validLineCount());
}

} // namespace

TEST(Cache, GeometryValidation)
{
    EXPECT_THROW(SetAssocCache(CacheParams{1024, 4, 60}), FatalError);
    EXPECT_THROW(SetAssocCache(CacheParams{1024, 0, 64}), FatalError);
    EXPECT_THROW(SetAssocCache(CacheParams{1024, 3, 64}), FatalError);
    // One set of 1-byte lines: the tag is the whole address, so some
    // address would map to the invalid-line tag.
    EXPECT_THROW(SetAssocCache(CacheParams{4, 4, 1}), FatalError);
    // One index bit is enough.
    EXPECT_NO_THROW(SetAssocCache(CacheParams{8, 4, 1}));
    EXPECT_NO_THROW(SetAssocCache(CacheParams{128, 1, 64}));
}

class CacheSpec : public ::testing::TestWithParam<unsigned>
{
};

// Seeded random sequences of every state-changing operation, each
// result, counter and line count compared against the reference.
TEST_P(CacheSpec, MatchesBruteForceReference)
{
    const CacheParams geometries[] = {
        {8 * 1024, 4, 64},   // 32 sets
        {4 * 1024, 8, 64},   // 8 sets
        {256, 4, 64},        // one set
        {16, 2, 1},          // 1-byte lines, 8 sets
    };
    Rng rng(GetParam() * 104729 + 7);
    for (const CacheParams &p : geometries) {
        SCOPED_TRACE(testing::Message() << p.sizeBytes << " B, "
                                        << p.assoc << " ways, "
                                        << p.lineBytes << " B lines");
        SetAssocCache cache(p);
        ReferenceCache ref(p);
        const std::uint64_t lines = p.sizeBytes / p.lineBytes;
        // Three times the capacity in distinct lines, low in the
        // address space or at its top, where tags are largest.
        const Addr base = rng.chance(Chance(0.5)) ? 0x100000
                                                  : ~Addr(0) - 4 * lines *
                                                        p.lineBytes;
        for (int step = 0; step < 20'000; ++step) {
            const double u = rng.uniform();
            if (u < 0.90) {
                const Addr addr = base + rng.below(3 * lines) * p.lineBytes +
                                  rng.below(p.lineBytes);
                const bool write = rng.chance(Chance(0.3));
                const CacheAccessResult got = cache.access(addr, write);
                const CacheAccessResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "step " << step;
                ASSERT_EQ(got.dirtyEviction, want.dirtyEviction)
                    << "step " << step;
                ASSERT_EQ(got.wokeDrowsy, want.wokeDrowsy)
                    << "step " << step;
            } else if (u < 0.94) {
                const unsigned ways =
                    1 + static_cast<unsigned>(rng.below(p.assoc));
                ASSERT_EQ(cache.setActiveWays(ways), ref.setActiveWays(ways))
                    << "step " << step;
            } else if (u < 0.98) {
                ASSERT_EQ(cache.drowseAll(), ref.drowseAll())
                    << "step " << step;
            } else if (u < 0.99) {
                cache.resetWindowStats();
                ref.resetWindowStats();
            } else {
                ASSERT_EQ(cache.invalidateAll(), ref.invalidateAll())
                    << "step " << step;
            }
            expectSameState(cache, ref);
            if (testing::Test::HasFatalFailure())
                FAIL() << "state diverged at step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheSpec, ::testing::Range(1u, 5u));

TEST(Cache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionOrder)
{
    SetAssocCache c(smallCache());
    const Addr set_stride = 32 * 64;  // same set
    for (Addr i = 0; i < 4; ++i)
        c.access(0x10000 + i * set_stride, false);
    // Touch line 0 so line 1 is LRU.
    c.access(0x10000, false);
    c.access(0x10000 + 4 * set_stride, false);  // evicts line 1
    EXPECT_TRUE(c.access(0x10000, false).hit);
    EXPECT_FALSE(c.access(0x10000 + 1 * set_stride, false).hit);
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    SetAssocCache c(smallCache());
    const Addr set_stride = 32 * 64;
    c.access(0x10000, true);  // dirty line
    for (Addr i = 1; i <= 4; ++i)
        c.access(0x10000 + i * set_stride, false);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    SetAssocCache c(smallCache());
    const Addr set_stride = 32 * 64;
    for (Addr i = 0; i <= 4; ++i)
        c.access(0x10000 + i * set_stride, false);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(Cache, WayGatingDropsLinesAndWritesBackDirty)
{
    SetAssocCache c(smallCache());
    const Addr set_stride = 32 * 64;
    // Fill all four ways of one set; two dirty.
    c.access(0x10000 + 0 * set_stride, true);
    c.access(0x10000 + 1 * set_stride, true);
    c.access(0x10000 + 2 * set_stride, false);
    c.access(0x10000 + 3 * set_stride, false);
    EXPECT_EQ(c.validLineCount(), 4u);

    std::uint64_t wb = c.setActiveWays(1);
    // Lines in ways 1-3 were dropped; dirty ones written back. LRU
    // fill order means way 0 holds the first access.
    EXPECT_EQ(c.activeWays(), 1u);
    EXPECT_EQ(c.validLineCount(), 1u);
    EXPECT_EQ(wb, 1u);  // the dirty line in way 1
    EXPECT_TRUE(c.access(0x10000, false).hit);
}

TEST(Cache, WayUpgradeStartsEmpty)
{
    SetAssocCache c(smallCache());
    c.setActiveWays(1);
    c.access(0x1000, false);
    c.setActiveWays(4);
    EXPECT_EQ(c.activeWays(), 4u);
    // The way-0 line survives the upgrade.
    EXPECT_TRUE(c.access(0x1000, false).hit);
    // Upgrading adds capacity: four distinct same-set lines now fit.
    const Addr set_stride = 32 * 64;
    for (Addr i = 0; i < 4; ++i)
        c.access(0x40000 + i * set_stride, false);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(c.access(0x40000 + i * set_stride, false).hit);
}

TEST(Cache, ReducedWaysReduceCapacity)
{
    SetAssocCache c(smallCache());
    c.setActiveWays(1);
    const Addr set_stride = 32 * 64;
    c.access(0x10000, false);
    c.access(0x10000 + set_stride, false);  // evicts previous
    EXPECT_FALSE(c.access(0x10000, false).hit);
}

TEST(Cache, SetActiveWaysValidation)
{
    SetAssocCache c(smallCache());
    EXPECT_THROW(c.setActiveWays(0), FatalError);
    EXPECT_THROW(c.setActiveWays(5), FatalError);
}

TEST(Cache, InvalidateAllCountsDirty)
{
    SetAssocCache c(smallCache());
    c.access(0x1000, true);
    c.access(0x2000, false);
    EXPECT_EQ(c.invalidateAll(), 1u);
    EXPECT_EQ(c.validLineCount(), 0u);
}

TEST(Cache, WindowStats)
{
    SetAssocCache c(smallCache());
    c.access(0x1000, false);
    c.access(0x1000, false);
    EXPECT_EQ(c.windowAccesses(), 2u);
    EXPECT_EQ(c.windowHits(), 1u);
    c.resetWindowStats();
    EXPECT_EQ(c.windowAccesses(), 0u);
    EXPECT_EQ(c.hits(), 1u);  // lifetime survives
}

TEST(Cache, HitRate)
{
    SetAssocCache c(smallCache());
    c.access(0x1000, false);
    c.access(0x1000, false);
    c.access(0x1000, false);
    c.access(0x2000, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

// --- memory hierarchy ----------------------------------------------------------

TEST(MemHierarchy, L1FiltersMlc)
{
    MemHierarchy mem(CacheParams{1024, 2, 64}, CacheParams{8192, 4, 64});
    EXPECT_EQ(mem.access(0x1000, false).level, MemLevel::Memory);
    EXPECT_EQ(mem.access(0x1000, false).level, MemLevel::L1);
    EXPECT_EQ(mem.mlc().accesses(), 1u);
}

TEST(MemHierarchy, MlcCatchesL1Evictions)
{
    MemHierarchy mem(CacheParams{512, 1, 64}, CacheParams{8192, 4, 64});
    // Two addresses conflicting in the tiny 1-way L1 but coexisting
    // in the MLC.
    const Addr a = 0x10000, b = 0x10000 + 512;
    mem.access(a, false);
    mem.access(b, false);  // evicts a from L1
    EXPECT_EQ(mem.access(a, false).level, MemLevel::Mlc);
}

TEST(MemHierarchy, ShadowTracksFullConfigWhenGated)
{
    MemHierarchy mem(CacheParams{512, 1, 64}, CacheParams{8192, 4, 64});
    mem.setMlcActiveWays(1);

    // Four same-set MLC lines: the 1-way MLC thrashes, the shadow (4
    // ways) holds them all.
    const Addr set_stride = (8192 / 4 / 64) * 64;
    auto touch_all = [&](int reps) {
        for (int r = 0; r < reps; ++r) {
            for (Addr i = 0; i < 4; ++i) {
                mem.access(0x20000 + i * set_stride, false);
                // Flush the L1 in between so every access reaches the
                // MLC level.
                mem.access(0x20000 + i * set_stride + 512, false);
            }
        }
    };
    touch_all(4);
    mem.resetWindowStats();
    touch_all(4);
    EXPECT_GT(mem.mlcWindowHits(), mem.mlc().windowHits());
}

TEST(MemHierarchy, SetMlcActiveWaysReturnsDirtyCount)
{
    MemHierarchy mem(CacheParams{512, 1, 64}, CacheParams{8192, 4, 64});
    const Addr set_stride = (8192 / 4 / 64) * 64;
    for (Addr i = 0; i < 4; ++i)
        mem.access(0x20000 + i * set_stride, true);
    std::uint64_t wb = mem.setMlcActiveWays(1);
    EXPECT_GE(wb, 2u);  // at least the dropped dirty lines
}

// The MLC's shadow tag array is forked on the first way gating. An
// eager pair kept here (a gated MLC and a never-gated, never-drowsed
// read-only shadow, both fed exactly as MemHierarchy feeds them) must
// read the same profiling hits after every event of a random stream
// of accesses, gate and ungate events, drowse sweeps and window
// resets.
TEST(MemHierarchy, LazyShadowMatchesEagerShadow)
{
    const CacheParams l1p{1024, 2, 64};
    const CacheParams mlcp{16 * 1024, 8, 64};
    for (unsigned seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed * 7919);
        MemHierarchy mem(l1p, mlcp);
        SetAssocCache l1(l1p), mlc(mlcp), shadow(mlcp);
        // Seeds differ in how long the MLC runs ungated first.
        const int first_gate = static_cast<int>(rng.below(4000));
        for (int step = 0; step < 20'000; ++step) {
            const double u = rng.uniform();
            if (step == first_gate || (step > first_gate && u < 0.01)) {
                const unsigned ways =
                    1u << rng.below(4);  // 1, 2, 4 or 8 of 8 ways
                ASSERT_EQ(mem.setMlcActiveWays(ways),
                          mlc.setActiveWays(ways));
            } else if (u < 0.02) {
                mem.resetWindowStats();
                l1.resetWindowStats();
                mlc.resetWindowStats();
                shadow.resetWindowStats();
            } else if (u < 0.025) {
                ASSERT_EQ(mem.drowseMlc(), mlc.drowseAll());
            } else {
                // 512 lines against a 128-line L1 and 256-line MLC.
                const Addr addr = 0x200000 + rng.below(512) * 64;
                const bool write = rng.chance(Chance(0.3));
                const MemAccessResult got = mem.access(addr, write);
                MemLevel want = MemLevel::L1;
                const CacheAccessResult l1r = l1.access(addr, write);
                if (!l1r.hit) {
                    const CacheAccessResult l2r =
                        mlc.access(addr, write || l1r.dirtyEviction);
                    shadow.access(addr, false);
                    want = l2r.hit ? MemLevel::Mlc : MemLevel::Memory;
                    ASSERT_EQ(got.mlcWriteback, l2r.dirtyEviction);
                    ASSERT_EQ(got.mlcWokeDrowsy, l2r.wokeDrowsy);
                }
                ASSERT_EQ(got.level, want) << "step " << step;
            }
            ASSERT_EQ(mem.mlcWindowHits(), shadow.windowHits())
                << "step " << step;
            ASSERT_EQ(mem.shadowMlc().hits(), shadow.hits());
            ASSERT_EQ(mem.shadowMlc().windowAccesses(),
                      shadow.windowAccesses());
            ASSERT_EQ(mem.mlc().writebacks(), mlc.writebacks());
        }
        // The fork copied a never-written shadow: no dirty lines.
        EXPECT_EQ(mem.shadowMlc().writebacks(), 0u);
        EXPECT_EQ(mem.shadowMlc().validLineCount(), shadow.validLineCount());
    }
}
