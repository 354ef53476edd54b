/**
 * @file
 * The data memory hierarchy: a fixed L1 in front of the way-gateable
 * MLC, backed by main memory (the LLC/memory side is modelled as a
 * flat latency).
 */

#ifndef POWERCHOP_UARCH_MEM_HIERARCHY_HH
#define POWERCHOP_UARCH_MEM_HIERARCHY_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "uarch/cache.hh"

namespace powerchop
{

/** Where a memory access was serviced. */
enum class MemLevel : std::uint8_t
{
    L1,      ///< Hit in the (always-on) L1.
    Mlc,     ///< Hit in the middle-level cache.
    Memory,  ///< Missed everywhere; serviced by memory.
};

/** Result of one memory reference through the hierarchy. */
struct MemAccessResult
{
    MemLevel level = MemLevel::L1;
    /** Dirty line written back from the MLC on this access. */
    bool mlcWriteback = false;
    /** The MLC hit woke a drowsy line (drowsy baseline). */
    bool mlcWokeDrowsy = false;
};

/**
 * Two-level data hierarchy (L1 + MLC) with way gating on the MLC.
 *
 * The L1 is not managed by PowerChop and is always fully powered;
 * it exists so the MLC sees a realistic filtered reference stream
 * (Section III: MLC accesses occur roughly once per 100-200
 * instructions).
 *
 * Criticality profiling reads a *shadow tag array*: a tag-only copy
 * of the MLC at full associativity that is never way-gated, in the
 * style of UCP-like shadow-tag monitors. The CDE's Phase_L2Hit
 * counter therefore measures the hits the full MLC *would* provide,
 * independent of its current gating state — otherwise a way-gated
 * phase measures few hits and stays gated forever (see DESIGN.md).
 *
 * Until the MLC first loses ways its tags, LRU stamps and hits equal
 * the shadow's, so profiling reads the MLC itself until then and the
 * shadow is forked off it at that moment. Every MLC change therefore
 * goes through this class.
 */
class MemHierarchy
{
  public:
    /**
     * @param l1  L1 geometry.
     * @param mlc MLC geometry (the unit PowerChop manages).
     */
    MemHierarchy(const CacheParams &l1, const CacheParams &mlc);

    /** Run one reference through L1 then (on miss) the MLC. Defined
     *  inline below so the whole lookup chain folds into the
     *  simulation loop's memory pass. */
    MemAccessResult access(Addr addr, bool write);

    /**
     * Set the active way count of the MLC. The first reduction below
     * full associativity forks the shadow tag array.
     * @return the number of dirty lines written back.
     */
    std::uint64_t setMlcActiveWays(unsigned ways);

    /** Put every valid MLC line to sleep (drowsy baseline).
     *  @return the number of lines put to sleep. */
    std::uint64_t drowseMlc() { return mlc_.drowseAll(); }

    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &mlc() const { return mlc_; }

    /** Window counters for CDE profiling (MLC side): hits in the
     *  never-gated shadow tag array. @{ */
    std::uint64_t mlcWindowHits() const { return shadowMlc().windowHits(); }
    void resetWindowStats();
    /** @} */

    /** The shadow tag array. Before the MLC's first way gating this
     *  is the MLC itself, which holds the same tags and hit counts
     *  until then. */
    const SetAssocCache &
    shadowMlc() const
    {
        return shadowMlc_ ? *shadowMlc_ : mlc_;
    }

  private:
    SetAssocCache l1_;
    SetAssocCache mlc_;
    /** Tag-only shadow of the MLC at full ways; profiling only.
     *  Empty until the MLC first loses ways. */
    std::optional<SetAssocCache> shadowMlc_;
};

inline MemAccessResult
MemHierarchy::access(Addr addr, bool write)
{
    MemAccessResult res;

    CacheAccessResult l1r = l1_.access(addr, write);
    if (l1r.hit) {
        res.level = MemLevel::L1;
        return res;
    }

    // L1 victim write-backs also pass through the MLC; modelling them
    // as MLC writes keeps dirty state in the MLC realistic.
    CacheAccessResult l2r = mlc_.access(addr, write || l1r.dirtyEviction);
    // The shadow tag array sees the same filtered stream but is never
    // gated; its hits feed criticality profiling.
    if (shadowMlc_)
        shadowMlc_->access(addr, false);
    res.level = l2r.hit ? MemLevel::Mlc : MemLevel::Memory;
    res.mlcWriteback = l2r.dirtyEviction;
    res.mlcWokeDrowsy = l2r.wokeDrowsy;
    return res;
}

} // namespace powerchop

#endif // POWERCHOP_UARCH_MEM_HIERARCHY_HH
