#include "common/stats.hh"

#include "common/logging.hh"

namespace powerchop
{
namespace stats
{

std::string
Quantiles::toJson() const
{
    return csprintf("{\"samples\":%llu,\"p50\":%.6f,\"p90\":%.6f,"
                    "\"p99\":%.6f}",
                    static_cast<unsigned long long>(samples), p50, p90,
                    p99);
}

std::string
Quantiles::toString() const
{
    return csprintf("p50=%.3f p90=%.3f p99=%.3f", p50, p90, p99);
}

Log2Histogram &
Log2Histogram::operator=(const Log2Histogram &other)
{
    if (this == &other)
        return *this;
    for (unsigned i = 0; i < kBuckets; ++i) {
        buckets_[i].store(
            other.buckets_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    samples_.store(other.samples_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
}

unsigned
Log2Histogram::bucketIndex(std::uint64_t v)
{
    if (v == 0)
        return 0;
    // floor(log2 v) + 1 == the bit width of v.
    unsigned width = 0;
    while (v != 0) {
        ++width;
        v >>= 1;
    }
    return width < kBuckets ? width : kBuckets - 1;
}

std::uint64_t
Log2Histogram::bucketLow(unsigned i)
{
    if (i <= 1)
        return 0;
    return std::uint64_t{1} << (i - 1);
}

std::uint64_t
Log2Histogram::bucketHigh(unsigned i)
{
    if (i == 0)
        return 1;
    if (i >= kBuckets - 1)
        return ~std::uint64_t{0};
    return std::uint64_t{1} << i;
}

void
Log2Histogram::sample(std::uint64_t v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::bucketCount(unsigned i) const
{
    if (i >= kBuckets)
        panic("Log2Histogram bucket index %u out of range", i);
    return buckets_[i].load(std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::samples() const
{
    return samples_.load(std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Log2Histogram::mean() const
{
    const std::uint64_t n = samples();
    return n ? static_cast<double>(sum()) / static_cast<double>(n)
             : 0.0;
}

double
Log2Histogram::quantile(double q) const
{
    // Written as !(in-range) so a NaN q is rejected too: NaN compares
    // false against both bounds, and a NaN target would fall through
    // the bucket walk and report the top bucket bound (~1.8e19) as a
    // "quantile".
    if (!(q >= 0.0 && q <= 1.0))
        panic("Log2Histogram quantile %f outside [0, 1]", q);
    // Quantiles over a snapshot of the buckets: a concurrent sampler
    // may land between the loads, which only perturbs an already
    // approximate answer. The snapshot's own total (not samples_) is
    // the denominator so the walk always terminates inside it.
    std::array<std::uint64_t, kBuckets> counts;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return 0.0;

    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (counts[i] == 0)
            continue;
        if (static_cast<double>(seen + counts[i]) >= target) {
            // Linear interpolation inside the bucket keeps the
            // function monotone in q and the answer within the
            // bucket's bounds.
            const double lo = static_cast<double>(bucketLow(i));
            const double hi = static_cast<double>(bucketHigh(i));
            const double frac = counts[i]
                ? (target - static_cast<double>(seen)) /
                      static_cast<double>(counts[i])
                : 0.0;
            const double f = frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
            return lo + (hi - lo) * f;
        }
        seen += counts[i];
    }
    return static_cast<double>(bucketHigh(kBuckets - 1));
}

Quantiles
Log2Histogram::quantiles(double scale) const
{
    Quantiles q;
    q.samples = samples();
    if (q.samples == 0)
        return q;
    q.p50 = quantile(0.50) * scale;
    q.p90 = quantile(0.90) * scale;
    q.p99 = quantile(0.99) * scale;
    return q;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i) {
        const std::uint64_t n =
            other.buckets_[i].load(std::memory_order_relaxed);
        if (n)
            buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    samples_.fetch_add(
        other.samples_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void
Log2Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    samples_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

} // namespace stats
} // namespace powerchop
