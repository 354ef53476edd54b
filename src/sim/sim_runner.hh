/**
 * @file
 * The parallel simulation job runner.
 *
 * Every evaluation figure re-runs `simulate()` for many independent
 * (machine, workload, mode) points; the points share nothing — the
 * simulator builds all machine state per call and Rng is
 * instance-based — so they are embarrassingly parallel. SimJobRunner
 * owns a fixed pool of worker threads (sized by POWERCHOP_JOBS or the
 * hardware concurrency), accepts batches of SimJob descriptors, and
 * returns results in deterministic submission order regardless of
 * which worker finishes when.
 *
 * The runner also keeps a cumulative throughput report (wall-clock,
 * busy time across workers, instructions simulated) so each bench can
 * print aggregate MIPS, jobs/sec and the effective speedup over a
 * single thread, and persist them as BENCH_runner.json for tracking
 * the perf trajectory across changes.
 */

#ifndef POWERCHOP_SIM_SIM_RUNNER_HH
#define POWERCHOP_SIM_SIM_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "bt/translation_cache.hh"
#include "common/clock.hh"
#include "common/stats.hh"
#include "sim/simulator.hh"
#include "telemetry/profiler.hh"

namespace powerchop
{

/** One independent simulation: a design point, an application model
 *  and the run options (mode, budget, instrumentation). */
struct SimJob
{
    MachineConfig machine;
    WorkloadSpec workload;
    SimOptions opts;

    /** Jobs flagged transient are retried (up to the batch's
     *  maxRetries) when they fail with an exception; permanent
     *  failures and timeouts are never retried. */
    bool transient = false;
};

/** Terminal state of one job in a robust batch. */
enum class JobStatus : std::uint8_t
{
    Ok,          ///< Completed; its SimResult is valid.
    Failed,      ///< Threw on every allowed attempt; result is empty.
    TimedOut,    ///< Cancelled by the per-job deadline; result is empty.
    Skipped,     ///< Batch cancelled before the job started (resumable).
    Interrupted, ///< In-flight when the batch was cancelled (resumable).
};

/** @return a display name for a job status. */
const char *jobStatusName(JobStatus s);

/** Inverse of jobStatusName(), for journal records.
 *  @return false when `name` names no status. */
bool jobStatusFromName(const std::string &name, JobStatus &out);

/** What happened to one job of a robust batch. */
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;

    /** The final attempt's exception message (Failed/TimedOut). */
    std::string error;

    /** Attempts consumed (> 1 only for retried transient jobs;
     *  0 for Skipped jobs, which never started). */
    unsigned attempts = 1;

    /** Total retry-backoff delay charged before re-attempts.
     *  Deterministic (computed, not measured): it depends only on
     *  the batch's backoff policy, the job index and the attempt
     *  count, never on wall-clock randomness or worker count. */
    double backoffSeconds = 0;
};

/** Error-handling knobs of a robust batch. */
struct RobustRunOptions
{
    /** Per-job wall-clock deadline in seconds; 0 disables. Jobs over
     *  the deadline are cooperatively cancelled (the simulator polls
     *  a flag at block boundaries) and reported TimedOut. */
    double timeoutSeconds = 0;

    /** Extra attempts granted to jobs flagged transient. */
    unsigned maxRetries = 0;

    /** Retry backoff: before re-attempt n (n >= 2) the worker waits
     *  backoffBaseSeconds * 2^(n-2), capped at backoffMaxSeconds,
     *  plus a deterministic jitter in [0, backoffJitterFraction *
     *  delay) seeded from (backoffSeed, job index, attempt) — no
     *  wall-clock randomness, so retried faulted runs report
     *  identical backoff totals for any worker count. A base of 0
     *  disables waiting entirely. @{ */
    double backoffBaseSeconds = 0.001;
    double backoffMaxSeconds = 0.25;
    double backoffJitterFraction = 0.25;
    std::uint64_t backoffSeed = 0;
    /** @} */

    /** Batch-wide cooperative cancellation (signal-aware shutdown):
     *  when the flag rises mid-batch, jobs not yet dispatched report
     *  Skipped immediately, in-flight jobs get drainSeconds to
     *  finish and are then cancelled, reporting Interrupted. Both
     *  states are resumable — a campaign reruns them on --resume.
     *  A signal handler can raise this flag but cannot wake anyone,
     *  so the watchdog polls it every 10ms while the batch runs. */
    const std::atomic<bool> *cancelFlag = nullptr;

    /** Batch wall deadline: once it passes, the batch is cancelled
     *  exactly as when cancelFlag rises. Unarmed by default. */
    MonotonicDeadline deadline;

    /** Batch cancellation on request: a stop request cancels the
     *  batch exactly as cancelFlag does, and wakes the watchdog
     *  instead of waiting to be polled. */
    std::stop_token stop;

    /** Grace period granted to in-flight jobs after a batch cancel
     *  (any of the three sources above); 0 cancels them at the next
     *  block boundary. */
    double drainSeconds = 0;

    /** Invoked on the worker thread as each job reaches a terminal
     *  state (the campaign layer journals results through this).
     *  Must be thread-safe; a throwing callback fails the batch. */
    std::function<void(std::size_t, const SimResult &,
                       const JobOutcome &)>
        onComplete;

    /** Invoked on the worker thread just before a job's first attempt
     *  begins executing (never for Skipped jobs). The statusboard
     *  tracks in-flight keys through this. Must be thread-safe. */
    std::function<void(std::size_t)> onStart;
};

/**
 * The deterministic backoff delay charged before attempt `attempt`
 * of job `jobIndex` (attempt 1 is the initial try: delay 0).
 * Exposed for tests and report auditing.
 */
double retryBackoffSeconds(const RobustRunOptions &opts,
                           std::size_t jobIndex, unsigned attempt);

/** Results of a robust batch: one result + one outcome per job, in
 *  submission order. Failed/timed-out jobs leave a default
 *  SimResult; check the outcome before using a result. */
struct RobustBatchResult
{
    std::vector<SimResult> results;
    std::vector<JobOutcome> outcomes;

    std::size_t okCount() const;
    std::size_t failedCount() const;
    std::size_t timedOutCount() const;
    std::size_t skippedCount() const;
    std::size_t interruptedCount() const;

    /** Jobs in a resumable (not permanently failed) non-ok state. */
    std::size_t resumableCount() const
    {
        return skippedCount() + interruptedCount();
    }

    /** Jobs that completed but tripped the QoS watchdog into safe
     *  mode at least once (bounded, observable degradation). */
    std::size_t degradedCount() const;

    /** @return true when every job completed. */
    bool allOk() const { return okCount() == outcomes.size(); }

    /** One-line "N ok, N failed, N timed out, N degraded" summary. */
    std::string summary() const;
};

/** Cumulative throughput accounting for a runner's batches. */
struct RunnerReport
{
    /** Jobs (or generic tasks) completed. */
    std::size_t jobs = 0;

    /** Worker threads in the pool. */
    unsigned threads = 1;

    /** Wall-clock seconds spent inside run()/runTasks() batches. */
    double wallSeconds = 0;

    /** Summed per-job CPU seconds across all workers — what a
     *  single-threaded run of the same batches would take on an idle
     *  machine. Measured as thread CPU time, not wall time, so
     *  oversubscription doesn't inflate it. */
    double busySeconds = 0;

    /** Guest instructions simulated during the batches. */
    InsnCount instructions = 0;

    /** Robust-batch accounting (runRobust() only). All zero for
     *  plain run()/runTasks() batches; toString()/toJson() render
     *  them only when a robust batch actually ran, so reports from
     *  fault-free benches stay byte-identical. @{ */
    std::size_t okJobs = 0;
    std::size_t failedJobs = 0;
    std::size_t timedOutJobs = 0;
    std::size_t degradedJobs = 0;
    std::size_t retries = 0;

    /** Batch-cancellation tallies (resumable jobs) and the summed
     *  deterministic retry-backoff delay; rendered only when
     *  non-zero, keeping pre-existing reports byte-identical. */
    std::size_t skippedJobs = 0;
    std::size_t interruptedJobs = 0;
    double backoffSeconds = 0;
    /** @} */

    /** Shard-supervision tallies (sharded campaigns only): worker
     *  processes that crashed or hung, and restarts performed.
     *  Rendered only when non-zero, keeping reports from in-process
     *  runs byte-identical. @{ */
    std::size_t workerCrashes = 0;
    std::size_t workerRestarts = 0;
    /** @} */

    /** Translation-metadata cache traffic (bt/translation_cache.hh)
     *  across the runner's batches: misses count per-workload
     *  derivations performed, hits count derivations shared. Both
     *  deterministic for a given job list at any worker count;
     *  rendered only when the cache saw traffic, keeping reports
     *  from cache-less drivers byte-identical. @{ */
    std::uint64_t translationCacheHits = 0;
    std::uint64_t translationCacheMisses = 0;
    /** @} */

    /** Wall-clock stage breakdown (one entry per telemetry::Stage),
     *  populated only when POWERCHOP_PROFILE or --profile enables
     *  the stage profiler; toString()/toJson() render it only when
     *  non-empty, keeping unprofiled reports byte-identical. */
    std::vector<telemetry::StageTime> stages;

    /** Per-task wall latency in nanoseconds (every run()/runTasks()/
     *  runRobust() task, all attempts included). Host timing like
     *  wallSeconds, never simulation state; toString()/toJson()
     *  render its quantiles only when samples exist, so reports from
     *  drivers that never ran a batch stay byte-identical. */
    stats::Log2Histogram taskLatencyNs;

    /** Realized speedup over serial execution of the same jobs
     *  (equivalently, the average number of cores kept busy). */
    double speedup() const
    {
        return wallSeconds > 0 ? busySeconds / wallSeconds : 0.0;
    }

    double jobsPerSecond() const
    {
        return wallSeconds > 0 ? jobs / wallSeconds : 0.0;
    }

    /** Aggregate millions of simulated instructions per second. */
    double mips() const
    {
        return wallSeconds > 0 ? instructions / wallSeconds / 1e6 : 0.0;
    }

    /** One-line human-readable summary. */
    std::string toString() const;

    /** JSON object (for BENCH_runner.json); `name` labels the bench
     *  or experiment the report belongs to. */
    std::string toJson(const std::string &name) const;
};

/**
 * Worker-thread count for parallel evaluation runs.
 *
 * @return POWERCHOP_JOBS from the environment if set and valid, else
 *         std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultJobCount();

/**
 * Fixed-size worker pool executing batches of simulation jobs.
 *
 * Threads are created once at construction and persist across
 * batches. run() and runTasks() are synchronous: they return when
 * every job of the batch has completed, with results ordered by
 * submission index. The pool itself must be driven from one thread at
 * a time (benches and examples are single-threaded drivers); the jobs
 * it executes run concurrently.
 *
 * If a job throws, the batch still runs to completion and the
 * lowest-index exception is rethrown to the caller afterwards.
 */
class SimJobRunner
{
  public:
    /** @param threads Pool size; 0 means defaultJobCount(). */
    explicit SimJobRunner(unsigned threads = 0);
    ~SimJobRunner();

    SimJobRunner(const SimJobRunner &) = delete;
    SimJobRunner &operator=(const SimJobRunner &) = delete;

    /** @return the worker-pool size. */
    unsigned threads() const { return threads_; }

    /**
     * Execute a batch of simulation jobs concurrently.
     *
     * @param jobs Job descriptors.
     * @return one SimResult per job, in submission order.
     */
    std::vector<SimResult> run(const std::vector<SimJob> &jobs);

    /**
     * Execute a batch with per-job error isolation.
     *
     * Unlike run(), a throwing job does not poison the batch: its
     * outcome records Failed with the exception message and every
     * other job still completes. With opts.timeoutSeconds > 0 each
     * job also gets a wall-clock deadline enforced by cooperative
     * cancellation (SimOptions::cancelFlag), reported as TimedOut.
     * Jobs flagged transient are retried up to opts.maxRetries extra
     * times after an exception (never after a timeout).
     *
     * @param jobs Job descriptors.
     * @param opts Timeout / retry policy.
     * @return one result + one outcome per job, in submission order.
     */
    RobustBatchResult runRobust(const std::vector<SimJob> &jobs,
                                const RobustRunOptions &opts = {});

    /**
     * Execute `count` generic index-addressed tasks concurrently.
     * task(i) is invoked exactly once for each i in [0, count); any
     * result ordering is the caller's responsibility (index into a
     * pre-sized vector).
     */
    void runTasks(std::size_t count,
                  const std::function<void(std::size_t)> &task);

    /** Cumulative report over all batches run so far. */
    const RunnerReport &report() const { return report_; }

    /** The runner's shared translation-metadata cache, wired into
     *  every job that didn't bring its own (SimOptions::
     *  translationCache). Exposed so drivers can clear it between
     *  unrelated experiment sets. */
    TranslationMetadataCache &translationCache() { return transCache_; }

  private:
    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;

    // Current batch, guarded by mutex_.
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t batchCount_ = 0;
    std::size_t nextIndex_ = 0;
    std::size_t completed_ = 0;
    std::uint64_t batchId_ = 0;
    double batchBusySeconds_ = 0;
    std::vector<std::exception_ptr> errors_;
    bool stopping_ = false;

    RunnerReport report_;
    TranslationMetadataCache transCache_;
};

} // namespace powerchop

#endif // POWERCHOP_SIM_SIM_RUNNER_HH
