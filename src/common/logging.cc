#include "common/logging.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>
#include <vector>

#include "common/clock.hh"

namespace powerchop
{

namespace
{

std::atomic<bool> quietFlag{false};

/** Serializes warn()/inform() lines so messages emitted from the
 *  parallel job runner's workers never interleave mid-line. */
std::mutex &
outputMutex()
{
    static std::mutex m;
    return m;
}

/**
 * Drain every buffered sink before an error leaves the library.
 *
 * A fatal()/panic() raised on a worker thread can unwind into a
 * caller that terminates the process (or the exception may escape and
 * abort it outright); anything still sitting in stdio buffers — a
 * half-printed results table, earlier warnings — would be lost.
 * fflush(nullptr) flushes every open output stream, so the error
 * message and all output preceding it are durable before the throw.
 */
void
flushAllSinks()
{
    std::fflush(nullptr);
}

/** One registered durable-sink flush hook. */
struct FlushHook
{
    int id = 0;
    std::string name;
    std::function<void()> fn;
    bool armed = false;
};

/** Hook registry state, guarded by its own mutex (never the output
 *  mutex: hooks run user code that may warn()). */
struct FlushHookRegistry
{
    std::mutex mutex;
    std::vector<FlushHook> hooks;
    int nextId = 1;
};

FlushHookRegistry &
flushHooks()
{
    // Never destroyed: objects with static storage (the process-wide
    // flight recorder) unregister their hooks from their destructors
    // at exit, which may run after a static registry's would.
    static FlushHookRegistry *r = new FlushHookRegistry;
    return *r;
}

} // namespace

int
registerFlushHook(const char *name, std::function<void()> fn)
{
    FlushHookRegistry &r = flushHooks();
    std::lock_guard<std::mutex> lock(r.mutex);
    FlushHook hook;
    hook.id = r.nextId++;
    hook.name = name;
    hook.fn = std::move(fn);
    r.hooks.push_back(std::move(hook));
    return r.hooks.back().id;
}

void
unregisterFlushHook(int id)
{
    FlushHookRegistry &r = flushHooks();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < r.hooks.size(); ++i) {
        if (r.hooks[i].id == id) {
            r.hooks.erase(r.hooks.begin() +
                          static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
armFlushHook(int id)
{
    FlushHookRegistry &r = flushHooks();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto &hook : r.hooks) {
        if (hook.id == id) {
            hook.armed = true;
            return;
        }
    }
}

std::size_t
drainFlushHooks()
{
    // Claim the armed hooks under the lock, run them outside it: a
    // flush action may itself log, and a concurrent drain must not
    // run the same pending flush twice.
    std::vector<std::pair<std::string, std::function<void()>>> due;
    {
        FlushHookRegistry &r = flushHooks();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (auto &hook : r.hooks) {
            if (hook.armed) {
                hook.armed = false;
                due.emplace_back(hook.name, hook.fn);
            }
        }
    }

    std::size_t ran = 0;
    for (auto &[name, fn] : due) {
        try {
            fn();
            ++ran;
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "warn: flush hook '%s' failed: %s\n",
                         name.c_str(), e.what());
        } catch (...) {
            std::fprintf(stderr, "warn: flush hook '%s' failed\n",
                         name.c_str());
        }
    }
    return ran;
}

LogRateLimiter::LogRateLimiter(double ratePerSecond, double burst)
    : ratePerSecond_(std::max(ratePerSecond, 0.0)),
      burst_(std::max(burst, 1.0)), tokens_(burst_),
      lastRefill_(monotonicSeconds())
{
}

bool
LogRateLimiter::allow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double now = monotonicSeconds();
    tokens_ = std::min(
        burst_, tokens_ + (now - lastRefill_) * ratePerSecond_);
    lastRefill_ = now;
    if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        return true;
    }
    ++suppressed_;
    return false;
}

std::uint64_t
LogRateLimiter::suppressed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return suppressed_;
}

std::uint64_t
LogRateLimiter::takeSuppressed()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t n = suppressed_;
    suppressed_ = 0;
    return n;
}

namespace
{

/** Shared body of warnLimited()/informLimited(). */
void
limitedVlog(const char *prefix, LogRateLimiter &limiter,
            const char *fmt, std::va_list args)
{
    if (quiet())
        return;
    if (!limiter.allow())
        return;
    std::string msg = vcsprintf(fmt, args);
    const std::uint64_t dropped = limiter.takeSuppressed();
    if (dropped > 0) {
        msg += csprintf(" (%llu suppressed)",
                        static_cast<unsigned long long>(dropped));
    }
    std::lock_guard<std::mutex> lock(outputMutex());
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace

void
warnLimited(LogRateLimiter &limiter, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    limitedVlog("warn", limiter, fmt, args);
    va_end(args);
}

void
informLimited(LogRateLimiter &limiter, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    limitedVlog("info", limiter, fmt, args);
    va_end(args);
}

void
setQuiet(bool q)
{
    quietFlag = q;
}

bool
quiet()
{
    return quietFlag;
}

std::string
vcsprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";

    std::string out(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
csprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vcsprintf(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    drainFlushHooks();
    {
        std::lock_guard<std::mutex> lock(outputMutex());
        if (!quietFlag)
            std::fprintf(stderr, "panic: %s\n", msg.c_str());
        flushAllSinks();
    }
    throw PanicError("panic: " + msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    drainFlushHooks();
    {
        std::lock_guard<std::mutex> lock(outputMutex());
        if (!quietFlag)
            std::fprintf(stderr, "fatal: %s\n", msg.c_str());
        flushAllSinks();
    }
    throw FatalError("fatal: " + msg);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::lock_guard<std::mutex> lock(outputMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::lock_guard<std::mutex> lock(outputMutex());
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace powerchop
