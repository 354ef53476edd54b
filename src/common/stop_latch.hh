/**
 * @file
 * A stop flag that sleeping threads wake on.
 *
 * Background loops that a caller joins on its way out — the runner's
 * batch watchdog, the status heartbeats, the daemon's drain wait —
 * sleep in waitFor()/waitUntil(), which return the moment stop() is
 * called rather than at the end of the period. Joining such a loop
 * costs one wake-up, not the rest of a sleep tick. Flags raised by
 * signal handlers cannot notify a condition variable, so loops that
 * watch one still bound their sleep with a short tick.
 */

#ifndef POWERCHOP_COMMON_STOP_LATCH_HH
#define POWERCHOP_COMMON_STOP_LATCH_HH

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stop_token>

namespace powerchop
{

/** A stop flag that stays raised once stopped, with sleeps that end
 *  the moment it is raised. */
class StopLatch
{
  public:
    StopLatch() = default;
    StopLatch(const StopLatch &) = delete;
    StopLatch &operator=(const StopLatch &) = delete;

    /** Raise the flag (it stays raised) and wake every waiter. */
    void stop();

    /** Sleep up to `period`, returning early on stop().
     *  @return true once stop() has been called. */
    bool waitFor(std::chrono::nanoseconds period);

    /**
     * Sleep until the monotonic clock reaches `deadline`, returning
     * early on stop() or when `also` is asked to stop.
     *
     * @return true once stop() has been called.
     */
    bool waitUntil(std::chrono::steady_clock::time_point deadline,
                   std::stop_token also = {});

  private:
    std::mutex mutex_;
    std::condition_variable_any cv_;
    bool stopped_ = false;
};

} // namespace powerchop

#endif // POWERCHOP_COMMON_STOP_LATCH_HH
