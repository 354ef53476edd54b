#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace powerchop
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Chance::Chance(double p)
{
    if (p <= 0.0 || p >= 1.0) {
        threshold_ = p >= 1.0 ? 1 : 0;
        return;
    }
    // NaN draws and always loses, as uniform() < NaN does. Otherwise
    // p * 2^53 is exact (p is at least the smallest subnormal, and
    // scaling it by 2^53 stays normal) and its ceiling is <= 2^53.
    draws_ = true;
    threshold_ = std::isnan(p) ? 0
        : static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Rng::Rng(std::uint64_t s)
{
    seed(s);
}

void
Rng::seed(std::uint64_t s)
{
    for (auto &word : state_)
        word = splitmix64(s);
}

void
Rng::belowZeroBound()
{
    panic("Rng::below called with zero bound");
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::range called with lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::normal(double mean, double stddev)
{
    // Irwin-Hall with n = 3: variance of the sum is 3/12 = 1/4, so the
    // sum of three uniforms minus 1.5 has stddev 0.5.
    double s = uniform() + uniform() + uniform() - 1.5;
    return mean + stddev * (s / 0.5);
}

std::uint64_t
Rng::burstLength(double p, std::uint64_t max)
{
    std::uint64_t n = 1;
    while (n < max && bernoulli(p))
        ++n;
    return n;
}

} // namespace powerchop
