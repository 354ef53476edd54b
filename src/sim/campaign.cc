#include "sim/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/flight_recorder.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stop_latch.hh"
#include "sim/machine_config.hh"
#include "sim/statusboard.hh"
#include "workload/spec_io.hh"

namespace powerchop
{

namespace
{

/** Process-wide interrupt flag raised by the signal handlers. A
 *  namespace-scope atomic (zero-initialized before main) so the
 *  handler never races static-local initialization. */
std::atomic<bool> g_campaignInterrupt{false};

extern "C" void
campaignSignalHandler(int sig)
{
    // First signal: request a graceful drain. Second signal: the
    // drain is wedged or the user is insistent — exit immediately
    // with the conventional fatal-signal status. Both paths are
    // async-signal-safe (lock-free atomic + _exit).
    if (g_campaignInterrupt.exchange(true))
        ::_exit(128 + sig);
}

/** Canonical text of the SimOptions fields that can change a job's
 *  result (instrumentation options deliberately excluded: traces,
 *  metrics and audits never feed back into simulation). */
std::string
canonicalOptionsText(const SimOptions &opts)
{
    return csprintf(
        "options-v1\nmode=%s\nmaxInstructions=%llu\nmanageVpu=%d\n"
        "manageBpu=%d\nmanageMlc=%d\ntimeoutCycles=%.17g\n"
        "staticPolicy=%d,%d,%u\n",
        simModeName(opts.mode),
        static_cast<unsigned long long>(opts.maxInstructions),
        opts.manageVpu ? 1 : 0, opts.manageBpu ? 1 : 0,
        opts.manageMlc ? 1 : 0, opts.timeoutCycles,
        opts.staticPolicy.vpuOn ? 1 : 0,
        opts.staticPolicy.bpuOn ? 1 : 0,
        static_cast<unsigned>(opts.staticPolicy.mlc));
}

} // namespace

OutcomeTally
CampaignResult::tally() const
{
    OutcomeTally n;
    for (const auto &o : outcomes) {
        switch (o.status) {
          case JobStatus::Ok:
            ++n.ok;
            break;
          case JobStatus::Failed:
            ++n.failed;
            break;
          case JobStatus::TimedOut:
            ++n.timedOut;
            break;
          case JobStatus::Skipped:
          case JobStatus::Interrupted:
            ++n.resumable;
            break;
        }
    }
    return n;
}

std::string
errorPayload(const JobOutcome &outcome)
{
    return csprintf("{\"error\":\"%s\",\"attempts\":%u}",
                    json::escape(outcome.error).c_str(),
                    outcome.attempts);
}

bool
parseErrorPayload(const std::string &payload, std::string &error,
                  unsigned &attempts)
{
    json::Value doc;
    if (!json::parse(payload, doc) || !doc.isObject())
        return false;
    const json::Value *text = doc.find("error");
    const json::Value *tries = doc.find("attempts");
    const double n = tries ? tries->asDouble(-1) : -1;
    if (!text || !text->isString() || !(n >= 0) ||
        n > std::numeric_limits<unsigned>::max() || n != std::trunc(n)) {
        return false;
    }
    error = text->asString();
    attempts = static_cast<unsigned>(n);
    return true;
}

std::uint64_t
campaignJobKey(const SimJob &job)
{
    std::string text = "powerchop-campaign-job-v1\n";
    text += "workload:\n";
    text += formatWorkloadSpec(job.workload);
    text += "machine:\n";
    text += job.machine.canonicalText();
    text += canonicalOptionsText(job.opts);
    return fnv1a64(text);
}

std::vector<std::uint64_t>
campaignJobKeys(const std::vector<SimJob> &jobs)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(jobs.size());
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::uint64_t key = campaignJobKey(jobs[i]);
        const auto [it, fresh] = first.emplace(key, i);
        if (!fresh) {
            fatal("campaign: jobs %zu and %zu have identical "
                  "content keys (duplicate matrix entry?)",
                  it->second, i);
        }
        keys.push_back(key);
    }
    return keys;
}

std::vector<SimJob>
expandCampaignMatrix(const std::vector<WorkloadSpec> &workloads,
                     const std::vector<std::string> &machines,
                     const std::vector<SimMode> &modes, InsnCount insns,
                     double timeoutCycles)
{
    std::vector<MachineConfig> configs;
    for (const std::string &name : machines)
        configs.push_back(machineByName(name));
    std::vector<SimJob> jobs;
    jobs.reserve(workloads.size() * configs.size() * modes.size());
    for (const WorkloadSpec &workload : workloads) {
        for (const MachineConfig &machine : configs) {
            for (SimMode mode : modes) {
                SimJob job;
                job.workload = workload;
                job.machine = machine;
                job.opts.mode = mode;
                job.opts.maxInstructions = insns;
                job.opts.timeoutCycles = timeoutCycles;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

bool
CampaignResult::complete() const
{
    if (outcomes.empty())
        return true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != JobStatus::Ok ||
            payloads[i].empty()) {
            return false;
        }
    }
    return true;
}

std::string
CampaignResult::summary() const
{
    const OutcomeTally n = tally();
    std::string s = csprintf(
        "%zu jobs: %zu replayed from journal, %zu executed; "
        "%zu ok, %zu failed, %zu timed out, %zu resumable",
        outcomes.size(), replayed, executed, n.ok, n.failed,
        n.timedOut, n.resumable);
    if (staleRecords > 0)
        s += csprintf("; %zu stale records rejected", staleRecords);
    if (corruptedRecords + truncatedRecords > 0) {
        s += csprintf("; journal recovered around %zu corrupt / %zu "
                      "torn lines",
                      corruptedRecords, truncatedRecords);
    }
    if (workerCrashes + workerRestarts > 0) {
        s += csprintf("; supervisor: %zu worker crashes, %zu restarts",
                      workerCrashes, workerRestarts);
    }
    if (interrupted)
        s += " [interrupted: resume with --resume]";
    return s;
}

std::string
CampaignResult::reportJson() const
{
    // Only run-invariant data belongs here: a resumed campaign's
    // report must be byte-identical to an uninterrupted run's.
    const OutcomeTally n = tally();
    std::string s = csprintf(
        "{\"campaign\":{\"jobs\":%zu,\"ok\":%zu,\"failed\":%zu,"
        "\"timed_out\":%zu,\"resumable\":%zu},\n\"results\":[\n",
        outcomes.size(), n.ok, n.failed, n.timedOut, n.resumable);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        s += csprintf("{\"key\":\"%016llx\",\"status\":\"%s\"",
                      static_cast<unsigned long long>(keys[i]),
                      jobStatusName(outcomes[i].status));
        if (outcomes[i].status == JobStatus::Ok &&
            !payloads[i].empty()) {
            s += ",\"result\":" + payloads[i];
        } else if (!outcomes[i].error.empty()) {
            s += csprintf(
                ",\"error\":\"%s\"",
                json::escape(outcomes[i].error).c_str());
        }
        s += "}";
        if (i + 1 < outcomes.size())
            s += ",";
        s += "\n";
    }
    s += "]}\n";
    return s;
}

void
makeCampaignDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw IoError(csprintf("%s: mkdir failed: %s", dir.c_str(),
                               ec.message().c_str()));
    }
}

std::atomic<bool> &
campaignInterruptFlag()
{
    return g_campaignInterrupt;
}

void
installCampaignSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = campaignSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: let blocking waits observe it
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

namespace
{

/**
 * The one journaled job loop, behind runCampaign() and
 * runCampaignShard(): content keys, journal replay, dispatch with a
 * write-ahead record per outcome, flight events and the statusboard.
 * A shard differs in three ways: stale records pass silently, its
 * status file and role are its own, and it writes no report.json.
 */
CampaignResult
runJournaledJobs(SimJobRunner &runner, const std::vector<SimJob> &jobs,
                 const std::string &dir, const std::string &journalPath,
                 bool shard, const CampaignOptions &opts)
{
    CampaignResult result;
    result.keys = campaignJobKeys(jobs);
    result.outcomes.resize(jobs.size());
    result.payloads.resize(jobs.size());

    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        index.emplace(result.keys[i], i);

    const JournalReplay replay = loadJournalIfPresent(journalPath);
    result.corruptedRecords = replay.corrupted;
    result.truncatedRecords = replay.truncated;
    for (const JournalRecord &rec : replay.records) {
        const auto it = index.find(rec.key);
        if (it == index.end()) {
            ++result.staleRecords;
            continue;
        }
        // Only completed records satisfy a job; failed and timed-out
        // records document history but rerun.
        if (rec.status != jobStatusName(JobStatus::Ok))
            continue;
        const std::size_t i = it->second;
        result.outcomes[i].attempts = 0; // replayed
        result.payloads[i] = rec.payload;
        ++result.replayed;
        if (opts.onJobDone)
            opts.onJobDone(rec.key, result.outcomes[i], true);
    }
    if (!shard && result.staleRecords > 0) {
        warn("campaign: %zu journal records match no current "
             "job (spec or machine config changed); they are "
             "ignored and the jobs rerun",
             result.staleRecords);
    }

    // Pending jobs: everything the journal did not satisfy.
    std::vector<SimJob> pending;
    std::vector<std::size_t> pendingIndex;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (result.payloads[i].empty()) {
            pending.push_back(jobs[i]);
            pendingIndex.push_back(i);
        }
    }
    result.executed = pending.size();

    const std::atomic<bool> *interrupt =
        opts.interruptFlag ? opts.interruptFlag
                           : &campaignInterruptFlag();

    // Live observability (statusboard.hh). Everything below is a
    // write-only side channel: snapshots are derived from the same
    // outcomes the report uses, and nothing feeds back, so the
    // journal and report.json are byte-identical with it on or off.
    const std::string label = shard ? shardLabel(journalPath)
                                    : std::string("campaign");
    std::unique_ptr<StatusPublisher> publisher;
    if (opts.publishStatus) {
        makeCampaignDirs(statusDirPath(dir));
        publisher = std::make_unique<StatusPublisher>(
            shard ? statusDirPath(dir) + "/" + label + ".json"
                  : campaignStatusPath(dir));
    }
    stats::Log2Histogram fsync_latency_ns;
    std::mutex inflight_mutex;
    std::vector<std::uint64_t> inflight;
    std::atomic<std::size_t> ok_jobs{0}, failed_jobs{0};
    std::atomic<std::size_t> retried_jobs{0};
    const double obs_start = monotonicSeconds();
    const InsnCount obs_tally_start = simulatedInstructionTally();

    const auto makeSnapshot = [&](bool finished) {
        StatusSnapshot snap;
        snap.role = shard ? "shard-worker" : "campaign";
        snap.label = label;
        snap.jobsTotal = jobs.size();
        // A job is done once it has a terminal record (ok, failed or
        // timed out); skipped and interrupted jobs rerun on resume.
        const std::size_t ok = ok_jobs.load();
        const std::size_t failed = failed_jobs.load();
        snap.jobsOk = result.replayed + ok;
        snap.jobsFailed = failed;
        snap.jobsDone = snap.jobsOk + snap.jobsFailed;
        snap.jobsRetried = retried_jobs.load();
        {
            std::lock_guard<std::mutex> lock(inflight_mutex);
            snap.inFlight = inflight;
        }
        const double elapsed = monotonicSeconds() - obs_start;
        if (elapsed > 0) {
            snap.mips =
                static_cast<double>(simulatedInstructionTally() -
                                    obs_tally_start) /
                elapsed / 1e6;
        }
        const std::size_t settled = ok + failed;
        if (!finished && settled > 0 && elapsed > 0 &&
            settled < pending.size()) {
            snap.etaSeconds =
                (pending.size() - settled) * (elapsed / settled);
        }
        snap.finished = finished;
        snap.jobLatencyMs =
            runner.report().taskLatencyNs.quantiles(1e-6);
        snap.fsyncLatencyMs = fsync_latency_ns.quantiles(1e-6);
        snap.stages = telemetry::StageProfiler::global().snapshot();
        return snap;
    };

    if (!pending.empty()) {
        JournalWriter writer(journalPath);
        if (publisher)
            writer.setFlushLatencyHistogram(&fsync_latency_ns);

        RobustRunOptions robust;
        robust.timeoutSeconds = opts.timeoutSeconds;
        robust.maxRetries = opts.maxRetries;
        robust.cancelFlag = interrupt;
        robust.drainSeconds = opts.drainSeconds;
        robust.onStart = [&](std::size_t pi) {
            const std::uint64_t key = result.keys[pendingIndex[pi]];
            FlightRecorder::global().record(FlightEventType::JobStart,
                                            key);
            if (!publisher)
                return;
            {
                std::lock_guard<std::mutex> lock(inflight_mutex);
                inflight.push_back(key);
            }
            publisher->publish(makeSnapshot(false));
        };
        robust.onComplete = [&](std::size_t pi, const SimResult &res,
                                const JobOutcome &outcome) {
            // Write-ahead: the record is durable (fsync'd) before
            // the job counts as done. Resumable states (skipped /
            // interrupted) journal nothing — they carry no result
            // and rerun on resume.
            const std::size_t i = pendingIndex[pi];
            const std::uint64_t key = result.keys[i];
            if (opts.preJournal)
                opts.preJournal(key, outcome);
            result.outcomes[i] = outcome;
            JournalRecord rec;
            rec.key = key;
            rec.status = jobStatusName(outcome.status);
            switch (outcome.status) {
              case JobStatus::Ok:
                rec.payload = res.toJson();
                writer.append(rec);
                result.payloads[i] = std::move(rec.payload);
                ok_jobs.fetch_add(1);
                break;
              case JobStatus::Failed:
              case JobStatus::TimedOut:
                rec.payload = errorPayload(outcome);
                writer.append(rec);
                failed_jobs.fetch_add(1);
                break;
              case JobStatus::Skipped:
              case JobStatus::Interrupted:
                break;
            }

            FlightRecorder::global().record(
                FlightEventType::JobFinish, key,
                jobStatusName(outcome.status));
            if (outcome.attempts > 1)
                retried_jobs.fetch_add(outcome.attempts - 1);
            if (publisher) {
                {
                    std::lock_guard<std::mutex> lock(inflight_mutex);
                    const auto it = std::find(
                        inflight.begin(), inflight.end(), key);
                    if (it != inflight.end())
                        inflight.erase(it);
                }
                publisher->publish(makeSnapshot(false));
            }
            if (opts.onJobDone)
                opts.onJobDone(key, outcome, false);
        };

        // A heartbeat publisher alongside the workers: with only
        // per-job publishing, one long job would leave the snapshot
        // (and its heartbeat mtime) stale for its whole runtime. It
        // is joined on every way out, a throwing batch included.
        StopLatch status_stop;
        std::thread status_thread;
        if (publisher) {
            status_thread = std::thread([&] {
                do {
                    publisher->publish(makeSnapshot(false));
                } while (!status_stop.waitFor(
                    std::chrono::milliseconds(100)));
            });
        }
        const auto stopHeartbeat = [&] {
            if (status_thread.joinable()) {
                status_stop.stop();
                status_thread.join();
            }
        };
        try {
            runner.runRobust(pending, robust);
        } catch (...) {
            stopHeartbeat();
            throw;
        }
        stopHeartbeat();

        // Interrupted-exit hygiene: drain the flush hooks exactly
        // once (the journal disarms after flushing, so a fatal()
        // fired later cannot double-flush), then close the journal.
        writer.flush();
        drainFlushHooks();
    }

    result.interrupted = interrupt->load(std::memory_order_relaxed) ||
                         result.tally().resumable > 0;

    // The merged report is rebuilt from scratch on every invocation
    // and written crash-safely: readers never see a torn file.
    if (!shard)
        atomicWriteFile(dir + "/report.json", result.reportJson());

    // Terminal snapshot, forced past the cadence gate: `powerchop
    // status` on a finished campaign must show the final tallies.
    if (publisher)
        publisher->publish(makeSnapshot(true), true);
    return result;
}

} // namespace

CampaignResult
runCampaign(SimJobRunner &runner, const std::vector<SimJob> &jobs,
            const std::string &dir, const CampaignOptions &opts)
{
    makeCampaignDirs(dir);
    const std::string journal_path = dir + "/journal.jsonl";
    const bool journal_exists = std::filesystem::exists(journal_path);
    if (!journal_exists && opts.resume) {
        // A --resume that finds no journal is a mistyped directory,
        // not a fresh campaign: failing loudly here beats silently
        // re-running the whole matrix somewhere unexpected.
        fatal("campaign: --resume but no journal at %s; check the "
              "campaign directory",
              journal_path.c_str());
    }
    if (journal_exists && !opts.resume) {
        fatal("campaign: %s already exists; pass --resume to "
              "continue it or choose a fresh directory",
              journal_path.c_str());
    }
    return runJournaledJobs(runner, jobs, dir, journal_path, false,
                            opts);
}

CampaignResult
runCampaignShard(SimJobRunner &runner, const std::vector<SimJob> &jobs,
                 const std::string &journalPath,
                 const CampaignOptions &opts)
{
    std::string dir =
        std::filesystem::path(journalPath).parent_path().string();
    if (dir.empty())
        dir = ".";
    return runJournaledJobs(runner, jobs, dir, journalPath, true, opts);
}

std::string
shardLabel(const std::string &journalPath)
{
    return std::filesystem::path(journalPath).stem().string();
}

} // namespace powerchop
