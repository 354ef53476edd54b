/**
 * @file
 * Wall-clock stage profiling for the simulation job runner.
 *
 * A StageProfiler keeps one nanosecond Log2Histogram per Stage, so
 * the runner report can break total busy time down by where it went.
 * Unlike the trace recorder and metrics registry — whose contents are
 * deterministic simulation state — stage times are host measurements:
 * they never appear in simulation results or traces, only in the
 * (already wall-clock-bearing) runner report, so determinism
 * guarantees are unaffected.
 *
 * Recording is one relaxed fetch_add per histogram tally, so the
 * worker threads of one runner share a profiler without a lock; a
 * disabled profiler (the default, see POWERCHOP_PROFILE) costs one
 * branch per scope.
 */

#ifndef POWERCHOP_TELEMETRY_PROFILER_HH
#define POWERCHOP_TELEMETRY_PROFILER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace powerchop
{
namespace telemetry
{

/** The timed stages, declared in name order (snapshot() order). */
enum class Stage : unsigned
{
    Decode,    ///< Pre-decoding blocks into slot streams.
    Retry,     ///< Re-attempts of transient runner jobs.
    Simulate,  ///< simulate()'s execution loop.
    Translate, ///< simulate()'s machine construction.
};

constexpr unsigned kStageCount =
    static_cast<unsigned>(Stage::Translate) + 1;

/** Accumulated wall-clock time of one named stage. */
struct StageTime
{
    std::string name;
    double seconds = 0;
    std::uint64_t count = 0; ///< Scopes recorded into this stage.
};

/**
 * Thread-safe per-stage wall-clock accumulator.
 */
class StageProfiler
{
  public:
    /** @param enabled A disabled profiler ignores record() calls. */
    explicit StageProfiler(bool enabled = false) : enabled_(enabled) {}

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Arm or disarm the profiler at runtime: the --profile CLI flag
     *  is parity for POWERCHOP_PROFILE, which global() latched at
     *  first use. Atomic, so drivers may flip it while workers run
     *  (scopes in flight record or not — stage *totals* are host
     *  measurements either way, never simulation state). */
    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Add one timed scope to a stage, in whole nanoseconds. No-op
     *  when disabled. */
    void record(Stage stage, double seconds);

    /** All stages with recorded scopes, sorted by name: empty until
     *  the profiler has been enabled. */
    std::vector<StageTime> snapshot() const;

    /** Drop all recorded stages. */
    void reset();

    /** @return true when POWERCHOP_PROFILE is set to a non-zero
     *  value (the runner's enable knob). */
    static bool enabledByEnv();

    /**
     * The process-wide profiler, enabled by POWERCHOP_PROFILE at
     * first use. simulate() and the job runner record into it, and
     * the runner snapshots it into the runner report — so stage
     * times cover every simulation of the process, including ones
     * driven through generic runTasks() closures that build their
     * own SimOptions.
     */
    static StageProfiler &global();

  private:
    std::atomic<bool> enabled_;
    std::array<stats::Log2Histogram, kStageCount> ns_;
};

/**
 * RAII timer recording one scope into a profiler stage.
 *
 * The profiler pointer may be null or disabled (records nothing, and
 * reads no clock), so call sites need no conditional scoping.
 */
class ScopedStageTimer
{
  public:
    ScopedStageTimer(StageProfiler *profiler, Stage stage)
        : profiler_(profiler && profiler->enabled() ? profiler
                                                    : nullptr),
          stage_(stage)
    {
        if (profiler_)
            start_ = std::chrono::steady_clock::now();
    }

    ScopedStageTimer(const ScopedStageTimer &) = delete;
    ScopedStageTimer &operator=(const ScopedStageTimer &) = delete;

    ~ScopedStageTimer() { stop(); }

    /** Record the elapsed time now; the destructor becomes a no-op. */
    void
    stop()
    {
        if (!profiler_)
            return;
        const auto end = std::chrono::steady_clock::now();
        profiler_->record(
            stage_,
            std::chrono::duration<double>(end - start_).count());
        profiler_ = nullptr;
    }

  private:
    StageProfiler *profiler_;
    Stage stage_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace telemetry
} // namespace powerchop

#endif // POWERCHOP_TELEMETRY_PROFILER_HH
