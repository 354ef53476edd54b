/**
 * @file
 * Process-isolated sharded campaigns: the shard supervisor.
 *
 * PR 5 made campaigns durable against crashes of the *whole* process,
 * but every job still shared one address space: a single std::abort,
 * invariant panic or segfault anywhere killed the entire campaign.
 * The supervisor adds fault containment by partitioning the job
 * matrix into content-key ranges and running each shard in its own
 * worker *process* — a re-exec of this binary's `campaign-worker`
 * subcommand — so the blast radius of any crash is one shard, whose
 * write-ahead journal survives.
 *
 * Supervision loop (single-threaded, monotonic-clock deadlines):
 *  - a worker works out its jobs from its argv (shardWorkerJobs()),
 *    and progress is read from the records it appends to its shard
 *    journal (readJournalFrom()), so workers get no pipes;
 *  - a worker whose CPU time stands still for the heartbeat window
 *    is hung;
 *  - death is detected with waitpid and classified — a clean exit
 *    is completion, an exit code is a reported error, a fatal signal
 *    (SIGSEGV, SIGKILL, ...) is a crash — and crashed or hung shards
 *    are restarted with bounded exponential backoff, resuming from
 *    their shard journal.
 *
 * Every other rule is the single-process campaign's: at start only an
 * ok record satisfies a job, so --resume reruns failed and timed-out
 * jobs (a restarted worker skips the failures of this run); the
 * merged campaign is interrupted exactly when the
 * interrupt flag rose or a job is left resumable, so permanent
 * failures exit 1; and workers get the per-job knobs from the same
 * flags the single-process campaign reads.
 *
 * The final merge assembles every shard journal into the same
 * report.json a single-process, uninterrupted runCampaign() of the
 * same spec writes — byte-identical, extending PR 5's resume
 * guarantee to "any subset of workers SIGKILLed at any time".
 */

#ifndef POWERCHOP_SIM_SHARD_SUPERVISOR_HH
#define POWERCHOP_SIM_SHARD_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/campaign.hh"

namespace powerchop
{

/** Supervision knobs of a sharded campaign. */
struct ShardSupervisorOptions
{
    /** Worker processes (= shards). Clamped to the job count. */
    unsigned shards = 2;

    /** Resume from existing shard journals; without it a directory
     *  that already holds shard journals is refused. */
    bool resume = false;

    /** Restarts granted to each shard before its remaining jobs are
     *  marked failed. Each restart waits out a bounded exponential
     *  backoff (0.1 s doubling to 2 s). */
    unsigned maxRestarts = 3;

    /** A worker that uses no CPU time for this long is declared
     *  hung, SIGKILLed and restarted like a crash; 0 disables. This
     *  bounds detection latency for a wedged (not dead) process; a
     *  worker blocked this long inside one system call counts as
     *  hung too. */
    double heartbeatTimeoutSeconds = 30.0;

    /** Grace period granted to workers (SIGTERM, drain) when the
     *  supervisor itself is interrupted. */
    double drainSeconds = 5.0;

    /** Path of the binary to re-exec; empty means /proc/self/exe. */
    std::string exePath;

    /** Arguments of the `campaign-worker` subcommand: the matrix
     *  flags (--workloads/--machine/--modes/--insns...), from which
     *  the worker must rebuild the exact job matrix so the content
     *  keys it derives match the supervisor's, and the per-job knobs
     *  (--timeout-seconds/--retries...), each written so it reads
     *  back exactly. The supervisor appends only --shards N and
     *  --shard I@B. */
    std::vector<std::string> workerArgs;

    /** Interrupt flag; defaults to the process-wide campaign flag. */
    const std::atomic<bool> *interruptFlag = nullptr;

    /** Supervision event log callback (spawn/crash/restart), for
     *  CLI progress output. */
    std::function<void(const std::string &)> onEvent;

    /** Publish live status to `dir`/status/ (statusboard.hh): the
     *  aggregate campaign.json with one per-shard health entry each.
     *  Worker deaths and restarts force an immediate snapshot, so a
     *  reader sees them within one cadence interval. Write-only side
     *  channel: report.json is byte-identical with it on or off. */
    bool publishStatus = false;
};

/** What a supervised campaign accomplished. */
struct ShardSupervisorResult
{
    /** The merged campaign: report.json content, with the worker
     *  crash and restart tallies in its summary fields. */
    CampaignResult campaign;

    std::size_t shards = 0;

    /** BENCH accounting: supervisor wall-clock (monotonic), the CPU
     *  time of the workers it reaped, and the guest instructions of
     *  the jobs that finished ok in this run (replayed jobs excluded;
     *  an ok job simulates exactly its budget). @{ */
    double wallSeconds = 0;
    double busySeconds = 0;
    InsnCount instructions = 0;
    /** @} */
};

/**
 * Partition job indices into `shards` contiguous content-key ranges.
 *
 * Indices are ordered by ascending key, then cut into near-equal
 * chunks, so every shard owns one range of the key space and the
 * partition is a pure function of the job matrix (deterministic
 * across supervisor restarts and resumes).
 */
std::vector<std::vector<std::size_t>>
partitionByKeyRange(const std::vector<std::uint64_t> &keys,
                    unsigned shards);

/** Journal path of shard `shard` in `dir`. */
std::string shardJournalPath(const std::string &dir, unsigned shard);

/**
 * The jobs of the worker of shard `shard` of `shards` (`--shard
 * shard@runStart`): its part of `jobs` (partitionByKeyRange()), minus
 * those with an ok record in any shard journal in `dir`, minus those
 * with any record after byte `runStart` of its own, where this run's
 * records begin. Fatal when the split has no shard `shard`.
 */
std::vector<SimJob>
shardWorkerJobs(const std::vector<SimJob> &jobs, const std::string &dir,
                unsigned shards, unsigned shard, std::uint64_t runStart);

/**
 * Run (or resume) a campaign across worker processes.
 *
 * Creates `dir`, partitions `jobs` by content-key range, forks one
 * `campaign-worker` per shard and supervises them to completion
 * (restart on crash/hang), then merges the shard journals into
 * `dir`/report.json — byte-identical to a single-process
 * runCampaign() of the same jobs.
 */
ShardSupervisorResult
runShardedCampaign(const std::vector<SimJob> &jobs,
                   const std::string &dir,
                   const ShardSupervisorOptions &opts);

} // namespace powerchop

#endif // POWERCHOP_SIM_SHARD_SUPERVISOR_HH
