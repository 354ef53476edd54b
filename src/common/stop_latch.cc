#include "common/stop_latch.hh"

namespace powerchop
{

void
StopLatch::stop()
{
    // Notify under the lock: a waiter that sees the flag may go on
    // to destroy the latch, which must not happen mid-notify.
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    cv_.notify_all();
}

bool
StopLatch::waitFor(std::chrono::nanoseconds period)
{
    return waitUntil(std::chrono::steady_clock::now() + period);
}

bool
StopLatch::waitUntil(std::chrono::steady_clock::time_point deadline,
                     std::stop_token also)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, also, deadline,
                          [this] { return stopped_; });
}

} // namespace powerchop
