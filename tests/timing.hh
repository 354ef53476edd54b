/**
 * @file
 * Timing helper for tests that bound how long an operation takes.
 */

#ifndef POWERCHOP_TESTS_TIMING_HH
#define POWERCHOP_TESTS_TIMING_HH

#include <algorithm>
#include <vector>

#include "common/clock.hh"

namespace powerchop
{

/** Median wall time of fn(0) ... fn(n - 1), seconds: robust to a run
 *  that gets descheduled, so timing bounds hold on a busy host. */
template <typename Fn>
double
medianSeconds(int n, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < n; ++i) {
        const double t0 = monotonicSeconds();
        fn(i);
        t.push_back(monotonicSeconds() - t0);
    }
    std::nth_element(t.begin(), t.begin() + n / 2, t.end());
    return t[n / 2];
}

} // namespace powerchop

#endif // POWERCHOP_TESTS_TIMING_HH
