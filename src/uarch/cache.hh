/**
 * @file
 * Set-associative write-back cache with way-level power gating.
 *
 * The middle-level cache (MLC) of the paper is way-gated to three
 * states: all ways on, half the ways on, or one way on (Section
 * IV-B3). Deactivating ways writes back their dirty lines and loses
 * clean lines; the cache then re-warms through normal misses.
 */

#ifndef POWERCHOP_UARCH_CACHE_HH
#define POWERCHOP_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"

namespace powerchop
{

/** Geometry of a set-associative cache. */
struct CacheParams
{
    std::uint64_t sizeBytes = 1024 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
};

/** Result of one cache access. One-bit fields pack it into a single
 *  byte that returns in a register: three separate bools return
 *  through a stack slot whose 16-bit reload of two byte stores cannot
 *  be store-forwarded, which stalls every out-of-line lookup. */
struct CacheAccessResult
{
    bool hit : 1 = false;
    /** A dirty line was evicted to make room (write-back traffic). */
    bool dirtyEviction : 1 = false;
    /** The hit line was drowsy and had to be woken (costs a short
     *  wake penalty; drowsy-cache baseline only). */
    bool wokeDrowsy : 1 = false;
};

/**
 * Set-associative LRU write-back, write-allocate cache.
 *
 * Ways [activeWays, assoc) are powered off: they hold no lines and
 * are skipped by lookup and replacement.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Access one address.
     *
     * Defined inline below: the access path is the single hottest
     * function of the whole simulator (every load/store runs it one
     * to three times), so it must inline into the simulation loop.
     *
     * @param addr  Byte address.
     * @param write true for stores (sets the dirty bit).
     * @return hit/miss and write-back information.
     */
    CacheAccessResult access(Addr addr, bool write);

    /**
     * Reconfigure the number of powered ways.
     *
     * Lines in deactivated ways are lost; dirty ones are written back.
     *
     * @param ways New active way count in [1, assoc].
     * @return the number of dirty lines written back.
     */
    std::uint64_t setActiveWays(unsigned ways);

    /** Invalidate everything (dirty lines counted as write-backs). */
    std::uint64_t invalidateAll();

    /**
     * Drowsy-cache support (Flautner et al., the paper's Section VI
     * alternative for cache energy): put every valid line into the
     * low-voltage drowsy state. Lines retain contents; the next
     * access to a drowsy line wakes it at a small latency cost.
     *
     * @return the number of lines put to sleep.
     */
    std::uint64_t drowseAll();

    /** Valid lines currently awake (non-drowsy). */
    std::uint64_t
    awakeLineCount() const
    {
        return wakeStamp_.empty() ? validLineCount() : awake_;
    }

    /** Lifetime count of drowsy-line wakeups. */
    std::uint64_t drowsyWakes() const { return drowsyWakes_; }

    unsigned activeWays() const { return activeWays_; }
    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /** @return number of currently valid lines (for tests). */
    std::uint64_t validLineCount() const;

    /** Lifetime statistics. @{ */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double
    hitRate() const
    {
        auto a = accesses();
        return a ? static_cast<double>(hits_) / a : 0.0;
    }
    /** @} */

    /** Per-window statistics for CDE profiling. @{ */
    std::uint64_t windowHits() const { return windowHits_; }
    std::uint64_t windowAccesses() const { return windowAccesses_; }
    void
    resetWindowStats()
    {
        windowHits_ = 0;
        windowAccesses_ = 0;
    }
    /** @} */

    /**
     * @return this cache as it would be had it seen the same accesses
     * as reads and never been drowsed: the same tags, LRU stamps, hit
     * and window counts, but no dirty or drowsy lines, write-backs or
     * wakes. MemHierarchy forks its shadow tag array with it.
     */
    SetAssocCache cleanCopy() const;

  private:
    /** Tag of an invalid line. No address maps to it (the constructor
     *  rejects geometries where one could), so the match scan needs
     *  no valid bit. */
    static constexpr Addr kNoTag = ~Addr(0);

    // Line size and set count are powers of two (checked at
    // construction), so indexing is shifts and masks; a division per
    // access would dominate the lookup cost.
    std::size_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr >> lineShift_) >> setShift_;
    }

    CacheParams params_;
    unsigned numSets_;
    unsigned activeWays_;
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;

    // Structure-of-arrays line state: the hit path scans only tags_
    // (one host cache line covers a whole 8-way set); lru_ is touched
    // on the hit update and the victim scan. An invalid line holds
    // kNoTag, LRU stamp 0 and no dirty bit.
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t tick_ = 0;

    // Drowsy state, allocated by the first drowseAll(): a valid line
    // is awake when its stamp equals sweep_, so a sweep is one
    // increment. awake_ counts the valid awake lines.
    std::vector<std::uint64_t> wakeStamp_;
    std::uint64_t sweep_ = 0;
    std::uint64_t awake_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t drowsyWakes_ = 0;
    std::uint64_t windowHits_ = 0;
    std::uint64_t windowAccesses_ = 0;
};

inline CacheAccessResult
SetAssocCache::access(Addr addr, bool write)
{
    ++tick_;
    ++windowAccesses_;

    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const std::size_t base = set * params_.assoc;
    const Addr *tags = &tags_[base];

    // Invalid ways hold kNoTag, so the match scan reads only tags.
    const unsigned ways = activeWays_;
    unsigned match = ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == tag) {
            match = w;
            break;
        }
    }

    CacheAccessResult res;
    if (match != ways) {
        const std::size_t line = base + match;
        res.hit = true;
        ++hits_;
        ++windowHits_;
        if (!wakeStamp_.empty() && wakeStamp_[line] != sweep_) {
            wakeStamp_[line] = sweep_;
            ++awake_;
            res.wokeDrowsy = true;
            ++drowsyWakes_;
        }
        lru_[line] = tick_;
        if (write)
            dirty_[line] = 1;
        return res;
    }

    // Victim: the first way with the smallest LRU stamp. Invalid ways
    // stamp 0 and valid stamps are distinct ticks >= 1, so this is
    // the first invalid way, else the LRU way.
    const std::uint64_t *lru = &lru_[base];
    unsigned victim = 0;
    for (unsigned w = 1; w < ways; ++w) {
        if (lru[w] < lru[victim])
            victim = w;
    }

    const std::size_t line = base + victim;
    ++misses_;
    if (dirty_[line]) {
        res.dirtyEviction = true;
        ++writebacks_;
    }
    if (!wakeStamp_.empty()) {
        // The fill is awake; it adds to the count unless it replaces
        // a valid awake line.
        if (lru[victim] == 0 || wakeStamp_[line] != sweep_)
            ++awake_;
        wakeStamp_[line] = sweep_;
    }
    dirty_[line] = write;
    tags_[line] = tag;
    lru_[line] = tick_;
    return res;
}

} // namespace powerchop

#endif // POWERCHOP_UARCH_CACHE_HH
