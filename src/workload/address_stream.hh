/**
 * @file
 * Per-phase memory address generation.
 *
 * MLC criticality in the paper (Section III, Figure 3) is driven by
 * how the phase's working set relates to the cache hierarchy: sets
 * that fit in L1 make the MLC non-critical, sets that fit only in the
 * full MLC make it critical, and streaming sets that fit nowhere make
 * it non-critical again. The address stream reproduces those regimes
 * with three knobs: working-set size, streaming vs. looping reuse, and
 * a hot-region fraction modelling stack/local traffic that always hits
 * in L1 (keeping MLC access rates near the paper's ~1 per 100-200
 * instructions).
 */

#ifndef POWERCHOP_WORKLOAD_ADDRESS_STREAM_HH
#define POWERCHOP_WORKLOAD_ADDRESS_STREAM_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"

namespace powerchop
{

/** Parameters of one phase's memory behaviour. */
struct AddressStreamSpec
{
    /** Base address of this phase's data region. Distinct phases use
     *  disjoint regions so recurring phases re-touch their own data. */
    Addr base = 0x10000000;

    /** Bytes of the primary working set. */
    std::uint64_t workingSetBytes = 64 * 1024;

    /** If true the stream walks forward without reuse (e.g. lbm-style
     *  streaming); if false it loops over the working set. */
    bool streaming = false;

    /** Fraction of working-set accesses that are random within the set
     *  rather than the sequential walk. */
    double randomFrac = 0.1;

    /** Fraction of all accesses that go to a small always-L1-resident
     *  hot region (stack/locals). */
    double hotRegionFrac = 0.9;

    /** Size of the hot region in bytes. */
    std::uint64_t hotRegionBytes = 4 * 1024;

    /** Access granularity (stride of the sequential walk). */
    unsigned strideBytes = 64;
};

/**
 * Generates the effective addresses of a phase's loads and stores.
 *
 * State (the sequential cursor) persists across phase recurrences so a
 * looping phase keeps re-touching the same lines, which is what lets
 * the MLC re-warm after way gating.
 */
class AddressStream
{
  public:
    explicit AddressStream(const AddressStreamSpec &spec);

    /** @return the effective address of the next memory reference.
     *  Defined inline below: one call per dynamic load/store. */
    Addr next(Rng &rng);

    const AddressStreamSpec &spec() const { return spec_; }

    /** Reset the sequential cursor to the region base. */
    void reset();

  private:
    AddressStreamSpec spec_;
    /** Sequential cursor offset within the working set (or the
     *  unbounded streaming offset). */
    std::uint64_t cursor_;
    /** Cursor within the hot region. */
    std::uint64_t hotCursor_;

    /** Precomputed per-access constants: the working set in stride
     *  lines, and wrap masks (size - 1) when the respective region
     *  size is a power of two, 0 to fall back to the modulo. The
     *  masked and modulo forms produce identical addresses; the mask
     *  just avoids a hardware divide per reference. @{ */
    std::uint64_t wsLines_;
    std::uint64_t hotMask_;
    std::uint64_t wsMask_;
    /** @} */

    /** spec_.hotRegionFrac and spec_.randomFrac, prepared for
     *  Rng::chance(). @{ */
    Chance hotChance_;
    Chance randomChance_;
    /** @} */
};

inline Addr
AddressStream::next(Rng &rng)
{
    if (rng.chance(hotChance_)) {
        // Stack-like traffic: small region, sequential-ish, always
        // resident in L1. The hot region sits just below the phase's
        // data region.
        std::uint64_t hc = hotCursor_ + spec_.strideBytes;
        hotCursor_ = hotMask_ ? (hc & hotMask_)
                              : (hc % spec_.hotRegionBytes);
        return spec_.base - spec_.hotRegionBytes + hotCursor_;
    }

    const std::uint64_t ws = spec_.workingSetBytes;
    if (rng.chance(randomChance_)) {
        std::uint64_t line = rng.below(wsLines_);
        std::uint64_t off = 0;
        if (spec_.streaming) {
            // Random within the current window.
            off = wsMask_ ? (cursor_ & ~wsMask_) : (cursor_ / ws) * ws;
        }
        return spec_.base + off + line * spec_.strideBytes;
    }

    Addr a;
    if (spec_.streaming) {
        // Forward walk without reuse; wrap at 1 GiB to keep addresses
        // bounded while never re-touching lines soon enough to hit.
        a = spec_.base + (cursor_ & ((1ull << 30) - 1));
    } else {
        a = spec_.base + (wsMask_ ? (cursor_ & wsMask_) : cursor_ % ws);
    }
    cursor_ += spec_.strideBytes;
    return a;
}

} // namespace powerchop

#endif // POWERCHOP_WORKLOAD_ADDRESS_STREAM_HH
