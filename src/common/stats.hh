/**
 * @file
 * Host-side latency statistics: Log2Histogram and its Quantiles.
 *
 * The runner, the campaign journal, the shard supervisor, the stage
 * profiler and powerchopd time themselves into these histograms.
 * They hold host measurements only; the simulator's own per-window
 * counters live in PerfMonitor's WindowProfile, which the CDE reads.
 */

#ifndef POWERCHOP_COMMON_STATS_HH
#define POWERCHOP_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace powerchop
{
namespace stats
{

/** Summary quantiles of a Log2Histogram, in the sampled unit. */
struct Quantiles
{
    std::uint64_t samples = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;

    /** {"samples":N,"p50":..,"p90":..,"p99":..}, six decimals: the
     *  one JSON form of every report, snapshot and STATS block. */
    std::string toJson() const;

    /** "p50=.. p90=.. p99=..", three decimals, for log lines. */
    std::string toString() const;
};

/**
 * A lock-free fixed-bucket log2 histogram over unsigned values.
 *
 * Bucket i > 0 covers [2^(i-1), 2^i); bucket 0 holds zeros. With 64
 * buckets the full uint64 range is covered, so latencies recorded in
 * nanoseconds never overflow. sample() is wait-free (one relaxed
 * fetch_add per bucket plus the sum/count tallies), so worker threads
 * of the job runner and the journal writer can record concurrently
 * with no shared lock; readers obtain a consistent-enough view for
 * monitoring (quantiles are approximations by construction — a
 * slightly torn read moves them less than the bucketing already
 * does).
 *
 * merge() is bucket-wise addition, which is associative and
 * commutative: merging per-shard histograms in any order yields the
 * same aggregate, the property the statusboard aggregation relies on.
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    Log2Histogram() = default;

    /** Copyable via relaxed snapshots (for report structs). @{ */
    Log2Histogram(const Log2Histogram &other) { *this = other; }
    Log2Histogram &operator=(const Log2Histogram &other);
    /** @} */

    /** Record one value (wait-free, thread-safe). */
    void sample(std::uint64_t v);

    /** Bucket index of a value: 0 for 0, else floor(log2 v) + 1,
     *  clamped to kBuckets - 1. */
    static unsigned bucketIndex(std::uint64_t v);

    /** Inclusive low edge of bucket i (0 for buckets 0 and 1). */
    static std::uint64_t bucketLow(unsigned i);

    /** Exclusive high edge of bucket i. */
    static std::uint64_t bucketHigh(unsigned i);

    std::uint64_t bucketCount(unsigned i) const;
    std::uint64_t samples() const;
    std::uint64_t sum() const;

    /** Mean of all samples (exact: the sum is tallied, not
     *  reconstructed from buckets), or 0 with no samples. */
    double mean() const;

    /**
     * Approximate quantile q in [0, 1] by cumulative bucket walk
     * with linear interpolation inside the target bucket. Monotone
     * in q; returns 0 with no samples.
     */
    double quantile(double q) const;

    /** p50/p90/p99 in one call (milliseconds when the histogram was
     *  sampled in nanoseconds and scale = 1e-6). */
    Quantiles quantiles(double scale = 1.0) const;

    /** Add another histogram's buckets into this one. */
    void merge(const Log2Histogram &other);

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> samples_{0};
    std::atomic<std::uint64_t> sum_{0};
};

} // namespace stats
} // namespace powerchop

#endif // POWERCHOP_COMMON_STATS_HH
