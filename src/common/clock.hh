/**
 * @file
 * The single monotonic time source for every deadline in the tree.
 *
 * Watchdogs, retry backoff, drain grace periods, worker heartbeats
 * and restart backoff all compare "now" against a deadline computed
 * earlier in the same process. Those comparisons must never observe a
 * system clock step (NTP slew, manual date change, suspend/resume
 * adjustment): a backwards step would suppress a timeout forever and
 * a forwards step would fire every timeout at once. All deadline
 * arithmetic therefore goes through these helpers, which are pinned
 * to std::chrono::steady_clock; wall-clock sources (system_clock,
 * time(), gettimeofday()) are not allowed in deadline code.
 */

#ifndef POWERCHOP_COMMON_CLOCK_HH
#define POWERCHOP_COMMON_CLOCK_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace powerchop
{

/** Monotonic seconds since an arbitrary (per-process) epoch. */
inline double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Monotonic nanoseconds since the same arbitrary epoch. */
inline std::int64_t
monotonicNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * A monotonic deadline: "at most `seconds` from now".
 *
 * Immune to system clock steps by construction. A default-constructed
 * or non-positive-duration deadline never expires, so optional
 * timeouts ("0 disables") need no special-casing at the call site.
 */
class MonotonicDeadline
{
  public:
    MonotonicDeadline() = default;

    explicit MonotonicDeadline(double seconds)
    {
        if (seconds > 0) {
            armed_ = true;
            deadlineNs_ = monotonicNanos() +
                          static_cast<std::int64_t>(seconds * 1e9);
        }
    }

    /** @return true when armed and the deadline has passed. */
    bool
    expired() const
    {
        return armed_ && monotonicNanos() >= deadlineNs_;
    }

    /** @return seconds left (0 when expired; +inf when unarmed). */
    double
    remainingSeconds() const
    {
        if (!armed_)
            return std::numeric_limits<double>::infinity();
        const std::int64_t left = deadlineNs_ - monotonicNanos();
        return left > 0 ? static_cast<double>(left) * 1e-9 : 0.0;
    }

    bool armed() const { return armed_; }

    /** @return the deadline on std::chrono::steady_clock, for timed
     *  waits (time_point::max() when unarmed). */
    std::chrono::steady_clock::time_point
    timePoint() const
    {
        return armed_ ? std::chrono::steady_clock::time_point(
                            std::chrono::nanoseconds(deadlineNs_))
                      : std::chrono::steady_clock::time_point::max();
    }

  private:
    bool armed_ = false;
    std::int64_t deadlineNs_ = 0;
};

/** Exponential backoff: `base` seconds doubled `doublings` times,
 *  capped at `max`. The runner's retries, the serve client's
 *  reconnects and the shard supervisor's restarts wait this long. */
inline double
cappedBackoff(double base, double max, unsigned doublings)
{
    double delay = base;
    for (unsigned i = 0; i < doublings && delay < max; ++i)
        delay *= 2;
    return std::min(delay, max);
}

} // namespace powerchop

#endif // POWERCHOP_COMMON_CLOCK_HH
