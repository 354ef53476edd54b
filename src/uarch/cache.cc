#include "uarch/cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace powerchop
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    if (params.lineBytes == 0 || !isPowerOf2(params.lineBytes))
        fatal("cache line size must be a power of two");
    if (params.assoc == 0)
        fatal("cache associativity must be non-zero");
    std::uint64_t lines = params.sizeBytes / params.lineBytes;
    if (lines == 0 || lines % params.assoc != 0)
        fatal("cache size/assoc/line geometry inconsistent");
    numSets_ = static_cast<unsigned>(lines / params.assoc);
    if (!isPowerOf2(numSets_))
        fatal("cache set count (%u) must be a power of two", numSets_);

    activeWays_ = params.assoc;
    lineShift_ = floorLog2(params.lineBytes);
    setShift_ = floorLog2(numSets_);
    // With at least one index bit, tags stay below kNoTag.
    if (lineShift_ + setShift_ == 0)
        fatal("cache of one set of 1-byte lines: a tag could equal "
              "the invalid-line marker");
    tags_.assign(lines, kNoTag);
    dirty_.assign(lines, 0);
    lru_.assign(lines, 0);
}

std::uint64_t
SetAssocCache::drowseAll()
{
    if (wakeStamp_.empty()) {
        // First sweep: every valid line has been awake so far.
        wakeStamp_.assign(tags_.size(), 0);
        sweep_ = 0;
        awake_ = validLineCount();
    }
    const std::uint64_t slept = awake_;
    awake_ = 0;
    ++sweep_;
    return slept;
}

std::uint64_t
SetAssocCache::setActiveWays(unsigned ways)
{
    if (ways == 0 || ways > params_.assoc)
        fatal("active ways %u out of [1, %u]", ways, params_.assoc);

    std::uint64_t dirty_writebacks = 0;
    if (ways < activeWays_) {
        // Ways [ways, activeWays_) power down: dirty lines are written
        // back to the LLC, clean lines are simply lost.
        for (unsigned set = 0; set < numSets_; ++set) {
            const std::size_t base =
                static_cast<std::size_t>(set) * params_.assoc;
            for (std::size_t line = base + ways;
                 line < base + activeWays_; ++line) {
                if (dirty_[line]) {
                    ++dirty_writebacks;
                    ++writebacks_;
                }
                if (!wakeStamp_.empty() && lru_[line] != 0 &&
                    wakeStamp_[line] == sweep_) {
                    --awake_;
                }
                tags_[line] = kNoTag;
                dirty_[line] = 0;
                lru_[line] = 0;
            }
        }
    }
    // Ways powering up come back empty and re-warm through misses.
    activeWays_ = ways;
    return dirty_writebacks;
}

std::uint64_t
SetAssocCache::invalidateAll()
{
    std::uint64_t dirty = 0;
    for (auto d : dirty_)
        dirty += d;
    writebacks_ += dirty;
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), 0);
    awake_ = 0;
    return dirty;
}

std::uint64_t
SetAssocCache::validLineCount() const
{
    std::uint64_t n = 0;
    for (auto t : tags_)
        if (t != kNoTag)
            ++n;
    return n;
}

SetAssocCache
SetAssocCache::cleanCopy() const
{
    SetAssocCache c(*this);
    std::fill(c.dirty_.begin(), c.dirty_.end(), 0);
    c.wakeStamp_ = {};
    c.writebacks_ = 0;
    c.drowsyWakes_ = 0;
    return c;
}

} // namespace powerchop
