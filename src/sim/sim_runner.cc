#include "sim/sim_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <limits>

#include "common/clock.hh"
#include "common/env.hh"
#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stop_latch.hh"

namespace powerchop
{

namespace
{

/**
 * CPU time consumed by the calling thread. Using CPU rather than wall
 * time for the busy tally means busy/wall reports the parallelism
 * actually realized: on an oversubscribed machine descheduled time
 * doesn't count as "busy", so the speedup estimate stays honest.
 */
double
threadCpuSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return monotonicSeconds();
}

/** POWERCHOP_AUDIT=1 runs the invariant auditor on every job the
 *  runner executes; a violated conservation law fails the job (plain
 *  run() propagates the InvariantViolationError, runRobust() records
 *  it as a Failed outcome). */
bool
auditEveryJob()
{
    return envUint64("POWERCHOP_AUDIT", 0, 1).value_or(0) != 0;
}

} // namespace

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::TimedOut:
        return "timed-out";
      case JobStatus::Skipped:
        return "skipped";
      case JobStatus::Interrupted:
        return "interrupted";
    }
    panic("unknown JobStatus %d", static_cast<int>(s));
}

bool
jobStatusFromName(const std::string &name, JobStatus &out)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::TimedOut, JobStatus::Skipped,
                        JobStatus::Interrupted}) {
        if (name == jobStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

double
retryBackoffSeconds(const RobustRunOptions &opts,
                    std::size_t jobIndex, unsigned attempt)
{
    if (attempt <= 1 || opts.backoffBaseSeconds <= 0)
        return 0;
    // Bounded exponential growth...
    double delay = opts.backoffBaseSeconds;
    for (unsigned a = 2; a < attempt && delay < opts.backoffMaxSeconds;
         ++a) {
        delay *= 2;
    }
    if (delay > opts.backoffMaxSeconds)
        delay = opts.backoffMaxSeconds;
    // ...plus seeded jitter: a pure function of (seed, job, attempt),
    // so totals reproduce exactly across runs and worker counts.
    Rng rng(opts.backoffSeed ^
            (static_cast<std::uint64_t>(jobIndex) * 0x9e3779b97f4a7c15ull +
             attempt));
    return delay + delay * opts.backoffJitterFraction * rng.uniform();
}

std::size_t
RobustBatchResult::okCount() const
{
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const JobOutcome &o) { return o.status == JobStatus::Ok; }));
}

std::size_t
RobustBatchResult::failedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const JobOutcome &o) {
                          return o.status == JobStatus::Failed;
                      }));
}

std::size_t
RobustBatchResult::timedOutCount() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const JobOutcome &o) {
                          return o.status == JobStatus::TimedOut;
                      }));
}

std::size_t
RobustBatchResult::skippedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const JobOutcome &o) {
                          return o.status == JobStatus::Skipped;
                      }));
}

std::size_t
RobustBatchResult::interruptedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const JobOutcome &o) {
                          return o.status == JobStatus::Interrupted;
                      }));
}

std::size_t
RobustBatchResult::degradedCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status == JobStatus::Ok &&
            results[i].safeModeActivations > 0) {
            ++n;
        }
    }
    return n;
}

std::string
RobustBatchResult::summary() const
{
    std::string s =
        csprintf("%zu ok, %zu failed, %zu timed out, %zu degraded",
                 okCount(), failedCount(), timedOutCount(),
                 degradedCount());
    // Cancellation states appear only when a batch was actually
    // cancelled, keeping pre-existing summaries byte-identical.
    if (resumableCount() > 0) {
        s += csprintf(", %zu skipped, %zu interrupted",
                      skippedCount(), interruptedCount());
    }
    return s;
}

std::string
RunnerReport::toString() const
{
    std::string s =
        csprintf("%zu jobs on %u threads: %.2fs wall (%.2fs busy), "
                 "%.1f MIPS, %.2f jobs/s, %.2fx vs 1 thread",
                 jobs, threads, wallSeconds, busySeconds, mips(),
                 jobsPerSecond(), speedup());
    // Robust-batch tallies are appended only when such a batch ran,
    // keeping fault-free bench output byte-identical.
    if (okJobs + failedJobs + timedOutJobs + skippedJobs +
            interruptedJobs > 0) {
        s += csprintf("; robust: %zu ok, %zu failed, %zu timed out, "
                      "%zu degraded, %zu retries",
                      okJobs, failedJobs, timedOutJobs, degradedJobs,
                      retries);
        if (skippedJobs + interruptedJobs > 0) {
            s += csprintf(", %zu skipped, %zu interrupted",
                          skippedJobs, interruptedJobs);
        }
        if (backoffSeconds > 0)
            s += csprintf(", %.3fs backoff", backoffSeconds);
    }
    if (workerCrashes + workerRestarts > 0) {
        s += csprintf("; supervisor: %zu worker crashes, %zu restarts",
                      workerCrashes, workerRestarts);
    }
    if (translationCacheHits + translationCacheMisses > 0) {
        s += csprintf("; trans-meta cache: %llu hits, %llu misses",
                      static_cast<unsigned long long>(
                          translationCacheHits),
                      static_cast<unsigned long long>(
                          translationCacheMisses));
    }
    if (!stages.empty()) {
        s += "; stages:";
        for (const auto &st : stages) {
            s += csprintf(" %s=%.2fs/%llu", st.name.c_str(),
                          st.seconds,
                          static_cast<unsigned long long>(st.count));
        }
    }
    if (taskLatencyNs.samples() > 0) {
        s += "; task latency ms: " +
             taskLatencyNs.quantiles(1e-6).toString();
    }
    return s;
}

std::string
RunnerReport::toJson(const std::string &name) const
{
    std::string s =
        csprintf("{\"bench\":\"%s\",\"jobs\":%zu,\"threads\":%u,"
                 "\"wall_seconds\":%.6f,\"busy_seconds\":%.6f,"
                 "\"instructions\":%llu,\"mips\":%.3f,"
                 "\"jobs_per_second\":%.3f,\"speedup\":%.3f",
                 name.c_str(), jobs, threads, wallSeconds, busySeconds,
                 static_cast<unsigned long long>(instructions), mips(),
                 jobsPerSecond(), speedup());
    if (okJobs + failedJobs + timedOutJobs + skippedJobs +
            interruptedJobs > 0) {
        s += csprintf(",\"ok_jobs\":%zu,\"failed_jobs\":%zu,"
                      "\"timed_out_jobs\":%zu,\"degraded_jobs\":%zu,"
                      "\"retries\":%zu",
                      okJobs, failedJobs, timedOutJobs, degradedJobs,
                      retries);
        if (skippedJobs + interruptedJobs > 0) {
            s += csprintf(",\"skipped_jobs\":%zu,"
                          "\"interrupted_jobs\":%zu",
                          skippedJobs, interruptedJobs);
        }
        if (backoffSeconds > 0)
            s += csprintf(",\"backoff_seconds\":%.6f", backoffSeconds);
    }
    if (workerCrashes + workerRestarts > 0) {
        s += csprintf(",\"worker_crashes\":%zu,\"worker_restarts\":%zu",
                      workerCrashes, workerRestarts);
    }
    if (translationCacheHits + translationCacheMisses > 0) {
        s += csprintf(",\"translation_cache_hits\":%llu,"
                      "\"translation_cache_misses\":%llu",
                      static_cast<unsigned long long>(
                          translationCacheHits),
                      static_cast<unsigned long long>(
                          translationCacheMisses));
    }
    if (!stages.empty()) {
        s += ",\"stages\":{";
        bool first = true;
        for (const auto &st : stages) {
            s += csprintf("%s\"%s\":{\"seconds\":%.6f,\"count\":%llu}",
                          first ? "" : ",", st.name.c_str(),
                          st.seconds,
                          static_cast<unsigned long long>(st.count));
            first = false;
        }
        s += "}";
    }
    if (taskLatencyNs.samples() > 0) {
        s += ",\"task_latency_ms\":" +
             taskLatencyNs.quantiles(1e-6).toJson();
    }
    s += "}";
    return s;
}

unsigned
defaultJobCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return static_cast<unsigned>(
        envUint64("POWERCHOP_JOBS", 1, 1024).value_or(hw));
}

SimJobRunner::SimJobRunner(unsigned threads)
    : threads_(threads ? threads : defaultJobCount())
{
    report_.threads = threads_;
    workers_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

SimJobRunner::~SimJobRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
SimJobRunner::workerLoop()
{
    std::uint64_t last_batch = 0;
    while (true) {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
            return stopping_ ||
                   (task_ && batchId_ != last_batch &&
                    nextIndex_ < batchCount_);
        });
        if (stopping_)
            return;

        const std::uint64_t batch = batchId_;
        const std::function<void(std::size_t)> &task = *task_;
        double busy = 0;

        while (nextIndex_ < batchCount_) {
            const std::size_t idx = nextIndex_++;
            lock.unlock();

            const double cpu_start = threadCpuSeconds();
            const std::int64_t wall_start = monotonicNanos();
            std::exception_ptr err;
            try {
                task(idx);
            } catch (...) {
                err = std::current_exception();
            }
            // Per-task wall latency (not CPU): the statusboard's
            // question is "how long does a job take end to end",
            // descheduled time included. Atomic buckets — no lock
            // needed on this path.
            report_.taskLatencyNs.sample(static_cast<std::uint64_t>(
                monotonicNanos() - wall_start));
            busy += threadCpuSeconds() - cpu_start;

            lock.lock();
            if (err)
                errors_[idx] = err;
            ++completed_;
            if (completed_ == batchCount_)
                done_.notify_all();
        }

        batchBusySeconds_ += busy;
        last_batch = batch;
    }
}

void
SimJobRunner::runTasks(std::size_t count,
                       const std::function<void(std::size_t)> &task)
{
    if (count == 0)
        return;

    const double start = monotonicSeconds();
    const InsnCount tally_before = simulatedInstructionTally();

    {
        std::unique_lock<std::mutex> lock(mutex_);
        panicIf(task_ != nullptr,
                "SimJobRunner batches cannot be nested");
        task_ = &task;
        batchCount_ = count;
        nextIndex_ = 0;
        completed_ = 0;
        batchBusySeconds_ = 0;
        errors_.assign(count, nullptr);
        ++batchId_;
    }
    wake_.notify_all();

    std::exception_ptr first_error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return completed_ == batchCount_; });
        task_ = nullptr;

        for (auto &err : errors_) {
            if (err) {
                first_error = err;
                break;
            }
        }
        errors_.clear();

        report_.jobs += count;
        report_.wallSeconds += monotonicSeconds() - start;
        report_.busySeconds += batchBusySeconds_;
        report_.instructions +=
            simulatedInstructionTally() - tally_before;
        report_.stages = telemetry::StageProfiler::global().snapshot();
    }

    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<SimResult>
SimJobRunner::run(const std::vector<SimJob> &jobs)
{
    std::vector<SimResult> results(jobs.size());
    const bool audit = auditEveryJob();
    runTasks(jobs.size(), [&](std::size_t i) {
        SimOptions run_opts = jobs[i].opts;
        run_opts.audit = run_opts.audit || audit;
        if (!run_opts.translationCache)
            run_opts.translationCache = &transCache_;
        results[i] =
            simulate(jobs[i].machine, jobs[i].workload, run_opts);
    });
    report_.translationCacheHits = transCache_.hits();
    report_.translationCacheMisses = transCache_.misses();
    return results;
}

RobustBatchResult
SimJobRunner::runRobust(const std::vector<SimJob> &jobs,
                        const RobustRunOptions &opts)
{
    RobustBatchResult batch;
    batch.results.resize(jobs.size());
    batch.outcomes.resize(jobs.size());
    if (jobs.empty())
        return batch;

    // Per-job cancellation slot. deadlineNs < 0 means "not running";
    // the watchdog thread only arms cancel for slots whose deadline
    // has passed. Sized once up front so worker threads never race a
    // reallocation.
    struct Slot
    {
        std::atomic<bool> cancel{false};
        std::atomic<std::int64_t> deadlineNs{-1};
    };
    std::vector<Slot> slots(jobs.size());

    const auto nowNs = [] { return monotonicNanos(); };

    const auto batchCancelled = [&] {
        return (opts.cancelFlag &&
                opts.cancelFlag->load(std::memory_order_relaxed)) ||
               opts.stop.stop_requested() || opts.deadline.expired();
    };

    const auto timeout_ns = static_cast<std::int64_t>(
        opts.timeoutSeconds * 1e9);

    // Raised once a batch cancel's drain grace is over: from then on
    // every in-flight job is cancelled, including one that armed its
    // slot after the watchdog's last sweep (workers check this after
    // arming; seq_cst on both sides means one of them sees the other).
    std::atomic<bool> cancel_all{false};

    // Deadlines and the post-cancel drain are enforced by a watchdog
    // rather than by preempting workers: the simulator checks its
    // cancel flag at block boundaries. The watchdog sleeps until the
    // earliest thing it has to act on — a job deadline, the batch
    // deadline, the end of a drain grace — and wakes early when the
    // batch ends or a stop is requested; only a flag raised by a
    // signal handler needs its 10ms poll. It also turns a stuck job
    // into a journaled timeout record instead of hanging the
    // campaign.
    StopLatch finished;
    StopLatch cancelled; // stopped when the watchdog sees a cancel
    const bool watched = opts.timeoutSeconds > 0 || opts.cancelFlag ||
                         opts.stop.stop_possible() ||
                         opts.deadline.armed();
    std::thread watchdog;
    if (watched) {
        watchdog = std::thread([&] {
            const std::int64_t drain_ns =
                static_cast<std::int64_t>(opts.drainSeconds * 1e9);
            const std::int64_t batch_deadline_ns =
                opts.deadline.timePoint().time_since_epoch().count();
            std::int64_t cancel_seen_ns = -1;
            while (true) {
                const std::int64_t now = nowNs();
                std::int64_t next =
                    std::numeric_limits<std::int64_t>::max();
                if (opts.cancelFlag)
                    next = now + 10'000'000;

                // Batch cancellation: give in-flight jobs the drain
                // grace period, then cancel whatever is still
                // running.
                if (batchCancelled()) {
                    if (cancel_seen_ns < 0) {
                        cancel_seen_ns = now;
                        cancelled.stop();
                    }
                    if (now >= cancel_seen_ns + drain_ns) {
                        cancel_all.store(true);
                        for (auto &slot : slots) {
                            if (slot.deadlineNs.load() >= 0)
                                slot.cancel.store(true);
                        }
                    } else {
                        next = std::min(next, cancel_seen_ns + drain_ns);
                    }
                } else if (opts.deadline.armed()) {
                    next = std::min(next, batch_deadline_ns);
                }

                // Every job arms its deadline at now + timeout, so a
                // job that starts while the watchdog sleeps cannot be
                // due before now + timeout.
                if (opts.timeoutSeconds > 0) {
                    next = std::min(next, now + timeout_ns);
                    for (auto &slot : slots) {
                        const std::int64_t deadline =
                            slot.deadlineNs.load(
                                std::memory_order_relaxed);
                        if (deadline < 0)
                            continue;
                        if (now >= deadline) {
                            slot.cancel.store(
                                true, std::memory_order_relaxed);
                        } else {
                            next = std::min(next, deadline);
                        }
                    }
                }

                // A stop request already seen has nothing more to
                // wake us for.
                if (finished.waitUntil(
                        std::chrono::steady_clock::time_point(
                            std::chrono::nanoseconds(next)),
                        cancel_seen_ns < 0 ? opts.stop
                                           : std::stop_token())) {
                    return;
                }
            }
        });
    }
    const bool audit = auditEveryJob();

    const auto task = [&](std::size_t i) {
        const SimJob &job = jobs[i];
        JobOutcome &outcome = batch.outcomes[i];
        Slot &slot = slots[i];

        // A cancelled batch stops dispatching: undispatched jobs are
        // Skipped (resumable), drained immediately.
        if (batchCancelled()) {
            outcome.status = JobStatus::Skipped;
            outcome.error = "batch cancelled before start";
            outcome.attempts = 0;
            if (opts.onComplete)
                opts.onComplete(i, batch.results[i], outcome);
            return;
        }

        if (opts.onStart)
            opts.onStart(i);

        const unsigned max_attempts =
            1 + (job.transient ? opts.maxRetries : 0);
        for (unsigned attempt = 1; attempt <= max_attempts;
             ++attempt) {
            outcome.attempts = attempt;

            SimOptions run_opts = job.opts;
            run_opts.audit = run_opts.audit || audit;
            if (!run_opts.translationCache)
                run_opts.translationCache = &transCache_;
            slot.cancel.store(false, std::memory_order_relaxed);
            if (watched) {
                // The deadline slot doubles as the "in flight" mark
                // the drain logic keys off; with no per-job timeout
                // it is set far enough out to never fire on its own.
                const std::int64_t deadline = opts.timeoutSeconds > 0
                    ? nowNs() + timeout_ns
                    : std::numeric_limits<std::int64_t>::max();
                slot.deadlineNs.store(deadline);
                if (cancel_all.load())
                    slot.cancel.store(true);
                run_opts.cancelFlag = &slot.cancel;
            }

            // Re-attempts of transient jobs are counted into their
            // own stage so the report separates productive first-run
            // time from recovery time.
            telemetry::ScopedStageTimer retry_timer(
                attempt > 1 ? &telemetry::StageProfiler::global()
                            : nullptr,
                telemetry::Stage::Retry);

            try {
                batch.results[i] =
                    simulate(job.machine, job.workload, run_opts);
                outcome.status = JobStatus::Ok;
                outcome.error.clear();
            } catch (const SimCancelledError &e) {
                // Distinguish why the flag rose: a batch cancel
                // leaves the job resumable, a per-job deadline is a
                // property of the job and is never retried.
                outcome.status = batchCancelled()
                    ? JobStatus::Interrupted
                    : JobStatus::TimedOut;
                outcome.error = e.what();
            } catch (const std::exception &e) {
                outcome.status = JobStatus::Failed;
                outcome.error = e.what();
            } catch (...) {
                outcome.status = JobStatus::Failed;
                outcome.error = "unknown exception";
            }
            slot.deadlineNs.store(-1, std::memory_order_relaxed);

            if (outcome.status != JobStatus::Failed ||
                attempt == max_attempts || batchCancelled()) {
                break;
            }

            FlightRecorder::global().record(
                FlightEventType::Retry, 0,
                csprintf("job %zu attempt %u: %s", i, attempt,
                         outcome.error.c_str()));

            // Bounded exponential backoff before the re-attempt. The
            // charged delay is computed, never measured, so reports
            // reproduce bit-identically across worker counts; the
            // actual wait ends early when the batch is cancelled.
            const double delay =
                retryBackoffSeconds(opts, i, attempt + 1);
            outcome.backoffSeconds += delay;
            cancelled.waitFor(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double>(delay)));
        }

        if (opts.onComplete)
            opts.onComplete(i, batch.results[i], outcome);
    };

    // The watchdog is stopped and joined on every way out, including
    // a throwing onComplete callback, which fails the batch.
    const auto stopWatchdog = [&] {
        if (watchdog.joinable()) {
            finished.stop();
            watchdog.join();
        }
    };
    try {
        runTasks(jobs.size(), task);
    } catch (...) {
        stopWatchdog();
        throw;
    }
    stopWatchdog();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        report_.okJobs += batch.okCount();
        report_.failedJobs += batch.failedCount();
        report_.timedOutJobs += batch.timedOutCount();
        report_.degradedJobs += batch.degradedCount();
        report_.skippedJobs += batch.skippedCount();
        report_.interruptedJobs += batch.interruptedCount();
        for (const auto &o : batch.outcomes) {
            if (o.attempts > 1)
                report_.retries += o.attempts - 1;
            report_.backoffSeconds += o.backoffSeconds;
        }
        report_.translationCacheHits = transCache_.hits();
        report_.translationCacheMisses = transCache_.misses();
    }
    return batch;
}

} // namespace powerchop
