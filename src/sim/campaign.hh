/**
 * @file
 * Durable simulation campaigns: crash-safe, resumable evaluation
 * sweeps on top of SimJobRunner.
 *
 * The paper's evaluation is a wide matrix — workloads x machines x
 * modes x fault seeds — and a crash or Ctrl-C at hour N must not
 * throw away completed points. A campaign gives every job a
 * deterministic content key (a hash of the workload spec, the full
 * MachineConfig, the mode and run options, and the instruction
 * budget) and journals each finished SimResult to an fsync'd
 * write-ahead JSONL file before counting it done. Resuming replays
 * the journal, verifies each record's key and checksum, skips every
 * completed job and dispatches only the remainder; the merged
 * campaign report is bit-identical to an uninterrupted run.
 *
 * Shutdown is signal-aware: SIGINT/SIGTERM raise the campaign
 * interrupt flag, undispatched jobs are skipped, in-flight jobs get a
 * drain deadline (cooperative cancellation through the existing
 * SimOptions::cancelFlag), the journal is flushed, and the CLI exits
 * with a distinct "interrupted, resumable" status.
 */

#ifndef POWERCHOP_SIM_CAMPAIGN_HH
#define POWERCHOP_SIM_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/journal.hh"
#include "sim/sim_runner.hh"

namespace powerchop
{

/**
 * Deterministic content key of one campaign job: FNV-1a 64 over the
 * canonical text of (workload spec, machine config, mode, unit
 * management switches, timeout override, static policy, instruction
 * budget). Any change to a field that can change the job's result
 * changes the key, so stale journal records never satisfy a resumed
 * job they no longer describe.
 */
std::uint64_t campaignJobKey(const SimJob &job);

/**
 * The content key of every job, in job order. Two jobs with one key
 * describe the byte-identical job, which no journal could tell
 * apart, so a duplicate is fatal.
 */
std::vector<std::uint64_t> campaignJobKeys(const std::vector<SimJob> &jobs);

/**
 * Expand a campaign matrix into jobs, workload-major: for each
 * workload, each machine (machineByName()), each mode.
 * The CLI's campaign, its shard workers and powerchopd's SIM all
 * expand through here, so one matrix always yields the same jobs in
 * the same order, and so the same content keys.
 * @throws FatalError naming an unknown machine.
 */
std::vector<SimJob>
expandCampaignMatrix(const std::vector<WorkloadSpec> &workloads,
                     const std::vector<std::string> &machines,
                     const std::vector<SimMode> &modes, InsnCount insns,
                     double timeoutCycles);

/** Campaign execution knobs. */
struct CampaignOptions
{
    /** Resume from an existing journal. Without this flag a campaign
     *  directory that already holds a journal is refused (fatal), so
     *  accidental reuse cannot silently mix unrelated sweeps. A
     *  shard (runCampaignShard) always resumes its journal. */
    bool resume = false;

    /** Per-job stuck-run watchdog in wall-clock seconds; 0 disables.
     *  An overrunning job is cooperatively cancelled and journaled
     *  as a timed-out record instead of hanging the campaign. */
    double timeoutSeconds = 0;

    /** Extra attempts for jobs flagged transient. */
    unsigned maxRetries = 0;

    /** Grace period for in-flight jobs after an interrupt. */
    double drainSeconds = 5.0;

    /** Interrupt flag the campaign polls; defaults to the process-
     *  wide flag raised by installCampaignSignalHandlers(). Tests
     *  point it at their own flag. */
    const std::atomic<bool> *interruptFlag = nullptr;

    /** Publish live status snapshots (statusboard.hh) while the
     *  campaign runs: to `dir`/status/campaign.json, or for a shard
     *  to status/<journal basename>.json beside its journal.
     *  Write-only side channel: report.json and the journal are
     *  byte-identical with it on or off. */
    bool publishStatus = false;

    /** Invoked on the worker thread for every outcome immediately
     *  BEFORE its record is appended to the journal. The shard
     *  worker's crash injection lives here: a crash at this point is
     *  the worst case, after the work but before durability, so the
     *  job must rerun after a restart. */
    std::function<void(std::uint64_t key, const JobOutcome &)>
        preJournal;

    /** Invoked once per job as it settles: during journal replay for
     *  jobs an ok record satisfies (replayed = true), otherwise on
     *  the worker thread once its record is durable (skipped and
     *  interrupted jobs journal nothing). Must be thread-safe. */
    std::function<void(std::uint64_t key, const JobOutcome &,
                       bool replayed)>
        onJobDone;
};

/** The journal payload of a failed or timed-out job: a single-line
 *  `{"error":"<text>","attempts":N}` object. */
std::string errorPayload(const JobOutcome &outcome);

/**
 * Decode a payload errorPayload() wrote back into the outcome
 * fields. Used by the shard merge step so a merged report renders
 * the same error text a live single-process run would.
 * @return false when the payload is not such an object.
 */
bool parseErrorPayload(const std::string &payload, std::string &error,
                       unsigned &attempts);

/** Outcomes by report column; skipped and interrupted jobs are
 *  resumable. */
struct OutcomeTally
{
    std::size_t ok = 0, failed = 0, timedOut = 0, resumable = 0;
};

/** What a campaign invocation accomplished. */
struct CampaignResult
{
    /** One entry per job, in spec order. @{ */
    std::vector<std::uint64_t> keys;
    std::vector<JobOutcome> outcomes;
    /** The job's SimResult JSON ("" when not completed): journal
     *  payloads for replayed jobs, freshly rendered for executed
     *  ones — byte-identical either way. */
    std::vector<std::string> payloads;
    /** @} */

    /** Jobs satisfied from the journal without re-running. */
    std::size_t replayed = 0;

    /** Jobs dispatched to the runner this invocation. */
    std::size_t executed = 0;

    /** Journal records whose key matched no current job (stale:
     *  the spec or a MachineConfig changed since they were
     *  written). They are ignored, never merged. */
    std::size_t staleRecords = 0;

    /** Journal lines dropped as corrupt or torn. */
    std::size_t corruptedRecords = 0;
    std::size_t truncatedRecords = 0;

    /** The campaign was interrupted (resumable): the interrupt flag
     *  rose or a job is left resumable. Single-process and sharded
     *  campaigns set it by this one rule. */
    bool interrupted = false;

    /** Supervision tallies (sharded campaigns only; all zero for
     *  in-process runs). Summary-only: reportJson() excludes them so
     *  a supervised run's report stays byte-identical to a
     *  single-process run's. @{ */
    std::size_t workerCrashes = 0;
    std::size_t workerRestarts = 0;
    /** @} */

    /** @return true when every job has an ok result. */
    bool complete() const;

    /** The outcomes counted by report column. */
    OutcomeTally tally() const;

    /** One-line human-readable summary. */
    std::string summary() const;

    /**
     * The merged campaign report: job count, ok/failed tallies and
     * every per-job record (key, status, SimResult JSON) in spec
     * order. Deliberately excludes run-varying data (timings,
     * replay/executed split), so an interrupted-and-resumed campaign
     * renders byte-identically to an uninterrupted one.
     */
    std::string reportJson() const;
};

/**
 * Run (or resume) a campaign.
 *
 * Creates `dir` if needed, replays `dir`/journal.jsonl when resuming,
 * dispatches the remaining jobs on `runner` with write-ahead
 * journaling, and atomically rewrites `dir`/report.json from the
 * merged results.
 *
 * @param runner Worker pool to dispatch on.
 * @param jobs   The full campaign matrix, in canonical order.
 * @param dir    Campaign state directory (journal + report).
 * @param opts   Durability / shutdown knobs.
 * @return the merged result.
 */
CampaignResult runCampaign(SimJobRunner &runner,
                           const std::vector<SimJob> &jobs,
                           const std::string &dir,
                           const CampaignOptions &opts = {});

/**
 * Run one shard of a sharded campaign (the campaign-worker
 * subcommand): runCampaign()'s job loop against the shard journal
 * `journalPath`, minus the directory checks and report.json, which
 * the supervisor writes from the merged shard journals. The journal
 * may already exist: resume is implied. Records for keys outside
 * `jobs` are ignored without a warning, since a restarted worker is
 * assigned only the keys its shard still lacks. Status goes to
 * status/<journal basename>.json beside the journal, with role
 * "shard-worker".
 */
CampaignResult runCampaignShard(SimJobRunner &runner,
                                const std::vector<SimJob> &jobs,
                                const std::string &journalPath,
                                const CampaignOptions &opts = {});

/** A shard journal's basename without ".jsonl" ("shard-0000"): the
 *  worker's statusboard label, also naming its status and flight
 *  files. */
std::string shardLabel(const std::string &journalPath);

/** Create `dir` (and parents), tolerating existing directories;
 *  throws IoError naming the path on failure. Shared by campaign,
 *  supervisor and daemon. */
void makeCampaignDirs(const std::string &dir);

/** The process-wide campaign interrupt flag. */
std::atomic<bool> &campaignInterruptFlag();

/**
 * Install SIGINT/SIGTERM handlers that raise the campaign interrupt
 * flag (first signal: graceful drain; second signal: immediate
 * _exit(128+sig) for a wedged drain). Idempotent.
 */
void installCampaignSignalHandlers();

/** Exit status of a campaign that was interrupted but is cleanly
 *  resumable with --resume. */
constexpr int campaignInterruptedExitStatus = 3;

} // namespace powerchop

#endif // POWERCHOP_SIM_CAMPAIGN_HH
