#include "sim/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/stop_latch.hh"
#include "sim/statusboard.hh"
#include "telemetry/trace.hh"
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

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Single-line JSON error payload for a non-ok journal record. */
std::string
errorPayload(const JobOutcome &outcome)
{
    return csprintf("{\"error\":\"%s\",\"attempts\":%u}",
                    telemetry::jsonEscape(outcome.error).c_str(),
                    outcome.attempts);
}

} // namespace

bool
parseErrorPayload(const std::string &payload, std::string &error,
                  unsigned &attempts)
{
    // Inverse of errorPayload(): {"error":"<escaped>","attempts":N}.
    std::size_t pos = 0;
    if (payload.compare(pos, 10, "{\"error\":\"") != 0)
        return false;
    pos += 10;

    std::string text;
    while (pos < payload.size() && payload[pos] != '"') {
        char c = payload[pos++];
        if (c != '\\') {
            text += c;
            continue;
        }
        if (pos >= payload.size())
            return false;
        const char esc = payload[pos++];
        switch (esc) {
          case '"':
            text += '"';
            break;
          case '\\':
            text += '\\';
            break;
          case 'n':
            text += '\n';
            break;
          case 't':
            text += '\t';
            break;
          case 'u': {
            std::uint64_t code = 0;
            if (pos + 4 > payload.size())
                return false;
            for (int i = 0; i < 4; ++i) {
                const char h = payload[pos++];
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code |= static_cast<std::uint64_t>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code |= static_cast<std::uint64_t>(h - 'a' + 10);
                else
                    return false;
            }
            text += static_cast<char>(code);
            break;
          }
          default:
            return false;
        }
    }

    const std::string tail = ",\"attempts\":";
    if (payload.compare(pos, 1, "\"") != 0)
        return false;
    ++pos;
    if (payload.compare(pos, tail.size(), tail) != 0)
        return false;
    pos += tail.size();
    char *end = nullptr;
    const unsigned long n =
        std::strtoul(payload.c_str() + pos, &end, 10);
    if (end == payload.c_str() + pos ||
        std::string(end) != "}") {
        return false;
    }
    error = std::move(text);
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
    std::size_t ok = 0, failed = 0, timed_out = 0, resumable = 0;
    for (const auto &o : outcomes) {
        switch (o.status) {
          case JobStatus::Ok:
            ++ok;
            break;
          case JobStatus::Failed:
            ++failed;
            break;
          case JobStatus::TimedOut:
            ++timed_out;
            break;
          case JobStatus::Skipped:
          case JobStatus::Interrupted:
            ++resumable;
            break;
        }
    }
    std::string s = csprintf(
        "%zu jobs: %zu replayed from journal, %zu executed; "
        "%zu ok, %zu failed, %zu timed out, %zu resumable",
        outcomes.size(), replayed, executed, ok, failed, timed_out,
        resumable);
    if (staleRecords > 0)
        s += csprintf("; %zu stale records rejected", staleRecords);
    if (corruptedRecords + truncatedRecords > 0) {
        s += csprintf("; journal recovered around %zu corrupt / %zu "
                      "torn lines",
                      corruptedRecords, truncatedRecords);
    }
    if (workerCrashes + workerRestarts + redispatches > 0) {
        s += csprintf("; supervisor: %zu worker crashes, %zu "
                      "restarts, %zu re-dispatches",
                      workerCrashes, workerRestarts, redispatches);
    }
    if (interrupted)
        s += " [interrupted: resume with --resume]";
    return s;
}

std::string
CampaignResult::reportJson() const
{
    std::size_t ok = 0, failed = 0, timed_out = 0, resumable = 0;
    for (const auto &o : outcomes) {
        switch (o.status) {
          case JobStatus::Ok:
            ++ok;
            break;
          case JobStatus::Failed:
            ++failed;
            break;
          case JobStatus::TimedOut:
            ++timed_out;
            break;
          case JobStatus::Skipped:
          case JobStatus::Interrupted:
            ++resumable;
            break;
        }
    }

    // Only run-invariant data belongs here: a resumed campaign's
    // report must be byte-identical to an uninterrupted run's.
    std::string s = csprintf(
        "{\"campaign\":{\"jobs\":%zu,\"ok\":%zu,\"failed\":%zu,"
        "\"timed_out\":%zu,\"resumable\":%zu},\n\"results\":[\n",
        outcomes.size(), ok, failed, timed_out, resumable);
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
                telemetry::jsonEscape(outcomes[i].error).c_str());
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
    std::string prefix;
    std::size_t start = 0;
    while (start <= dir.size()) {
        std::size_t slash = dir.find('/', start);
        if (slash == std::string::npos)
            slash = dir.size();
        prefix = dir.substr(0, slash);
        start = slash + 1;
        if (prefix.empty() || prefix == ".")
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
            throw IoError(csprintf("%s: mkdir failed: %s",
                                   prefix.c_str(),
                                   std::strerror(errno)));
        }
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

CampaignResult
runCampaign(SimJobRunner &runner, const std::vector<SimJob> &jobs,
            const std::string &dir, const CampaignOptions &opts)
{
    CampaignResult result;
    result.keys.reserve(jobs.size());
    result.outcomes.resize(jobs.size());
    result.payloads.resize(jobs.size());

    makeCampaignDirs(dir);
    const std::string journal_path = dir + "/journal.jsonl";
    const std::string report_path = dir + "/report.json";

    // Content keys. A duplicate key means two spec entries describe
    // the byte-identical job — refuse rather than journal ambiguity.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::uint64_t key = campaignJobKey(jobs[i]);
        for (std::size_t j = 0; j < result.keys.size(); ++j) {
            if (result.keys[j] == key) {
                fatal("campaign: jobs %zu and %zu have identical "
                      "content keys (duplicate matrix entry?)",
                      j, i);
            }
        }
        result.keys.push_back(key);
    }

    // Replay the journal (resume) or refuse a dirty directory.
    if (!fileExists(journal_path) && opts.resume) {
        // A --resume that finds no journal is a mistyped directory,
        // not a fresh campaign: failing loudly here beats silently
        // re-running the whole matrix somewhere unexpected.
        fatal("campaign: --resume but no journal at %s; check the "
              "campaign directory",
              journal_path.c_str());
    }
    if (fileExists(journal_path)) {
        if (!opts.resume) {
            fatal("campaign: %s already exists; pass --resume to "
                  "continue it or choose a fresh directory",
                  journal_path.c_str());
        }
        const JournalReplay replay = loadJournal(journal_path);
        result.corruptedRecords = replay.corrupted;
        result.truncatedRecords = replay.truncated;

        std::size_t matched = 0;
        for (const auto &rec : replay.records) {
            bool found = false;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (result.keys[i] != rec.key)
                    continue;
                found = true;
                // Only completed records satisfy a job; failed and
                // timed-out records document history but rerun.
                if (rec.status == jobStatusName(JobStatus::Ok)) {
                    result.outcomes[i].status = JobStatus::Ok;
                    result.outcomes[i].attempts = 0; // replayed
                    result.payloads[i] = rec.payload;
                    ++result.replayed;
                }
                ++matched;
                break;
            }
            if (!found)
                ++result.staleRecords;
        }
        if (result.staleRecords > 0) {
            warn("campaign: %zu journal records match no current "
                 "job (spec or machine config changed); they are "
                 "ignored and the jobs rerun",
                 result.staleRecords);
        }
        (void)matched;
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
    // tallies the report uses, and nothing feeds back, so the journal
    // and report.json are byte-identical with it on or off.
    std::unique_ptr<StatusPublisher> publisher;
    stats::Log2Histogram fsync_latency_ns;
    std::mutex inflight_mutex;
    std::vector<std::uint64_t> inflight;
    std::atomic<std::size_t> done_jobs{0}, ok_jobs{0};
    std::atomic<std::size_t> failed_jobs{0}, retried_jobs{0};
    const double obs_start = monotonicSeconds();
    const InsnCount obs_tally_start = simulatedInstructionTally();

    if (opts.publishStatus) {
        makeCampaignDirs(statusDirPath(dir));
        publisher.reset(new StatusPublisher(
            campaignStatusPath(dir), opts.statusIntervalSeconds));
    }

    const auto makeSnapshot = [&](bool finished) {
        StatusSnapshot snap;
        snap.role = "campaign";
        snap.label = "campaign";
        snap.jobsTotal = jobs.size();
        const std::size_t executed_done = done_jobs.load();
        snap.jobsDone = result.replayed + executed_done;
        snap.jobsOk = result.replayed + ok_jobs.load();
        snap.jobsFailed = failed_jobs.load();
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
        if (!finished && executed_done > 0 && elapsed > 0 &&
            executed_done < pending.size()) {
            snap.etaSeconds = (pending.size() - executed_done) *
                              (elapsed / executed_done);
        }
        snap.finished = finished;
        snap.jobLatencyMs =
            runner.report().taskLatencyNs.quantiles(1e-6);
        snap.fsyncLatencyMs = fsync_latency_ns.quantiles(1e-6);
        snap.stages = telemetry::StageProfiler::global().snapshot();
        return snap;
    };

    if (!pending.empty()) {
        JournalWriter writer(journal_path);
        if (publisher)
            writer.setFlushLatencyHistogram(&fsync_latency_ns);

        std::atomic<std::size_t> done{0};
        RobustRunOptions robust;
        robust.timeoutSeconds = opts.timeoutSeconds;
        robust.maxRetries = opts.maxRetries;
        robust.cancelFlag = interrupt;
        robust.drainSeconds = opts.drainSeconds;
        robust.backoffBaseSeconds = opts.backoffBaseSeconds;
        robust.backoffMaxSeconds = opts.backoffMaxSeconds;
        robust.onComplete = [&](std::size_t pi, const SimResult &res,
                                const JobOutcome &outcome) {
            // Write-ahead: the record is durable (fsync'd) before
            // the job counts as done. Resumable states (skipped /
            // interrupted) journal nothing — they carry no result
            // and rerun on resume.
            const std::size_t i = pendingIndex[pi];
            JournalRecord rec;
            rec.key = result.keys[i];
            rec.status = jobStatusName(outcome.status);
            switch (outcome.status) {
              case JobStatus::Ok:
                rec.payload = res.toJson();
                writer.append(rec);
                break;
              case JobStatus::Failed:
              case JobStatus::TimedOut:
                rec.payload = errorPayload(outcome);
                writer.append(rec);
                break;
              case JobStatus::Skipped:
              case JobStatus::Interrupted:
                break;
            }

            FlightRecorder::global().record(
                FlightEventType::JobFinish, rec.key,
                jobStatusName(outcome.status));
            done_jobs.fetch_add(1);
            if (outcome.status == JobStatus::Ok)
                ok_jobs.fetch_add(1);
            else if (outcome.status == JobStatus::Failed ||
                     outcome.status == JobStatus::TimedOut)
                failed_jobs.fetch_add(1);
            if (outcome.attempts > 1)
                retried_jobs.fetch_add(outcome.attempts - 1);
            if (publisher) {
                {
                    std::lock_guard<std::mutex> lock(inflight_mutex);
                    const auto it = std::find(
                        inflight.begin(), inflight.end(), rec.key);
                    if (it != inflight.end())
                        inflight.erase(it);
                }
                publisher->publish(makeSnapshot(false));
            }

            if (opts.onProgress)
                opts.onProgress(done.fetch_add(1) + 1,
                                pending.size());
        };
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

        // A heartbeat publisher alongside the workers: with only
        // per-job publishing, one long job would leave the snapshot
        // (and its heartbeat mtime) stale for its whole runtime.
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

        const RobustBatchResult batch =
            runner.runRobust(pending, robust);

        if (status_thread.joinable()) {
            status_stop.stop();
            status_thread.join();
        }

        for (std::size_t pi = 0; pi < pending.size(); ++pi) {
            const std::size_t i = pendingIndex[pi];
            result.outcomes[i] = batch.outcomes[pi];
            if (batch.outcomes[pi].status == JobStatus::Ok)
                result.payloads[i] = batch.results[pi].toJson();
        }

        // Interrupted-exit hygiene: drain the flush hooks exactly
        // once (the journal disarms after flushing, so a fatal()
        // fired later cannot double-flush), then close the journal.
        writer.flush();
        drainFlushHooks();
    }

    result.interrupted =
        interrupt->load(std::memory_order_relaxed) ||
        std::any_of(result.outcomes.begin(), result.outcomes.end(),
                    [](const JobOutcome &o) {
                        return o.status == JobStatus::Skipped ||
                               o.status == JobStatus::Interrupted;
                    });

    // The merged report is rebuilt from scratch on every invocation
    // and written crash-safely: readers never see a torn file.
    atomicWriteFile(report_path, result.reportJson());

    // Terminal snapshot, forced past the cadence gate: `powerchop
    // status` on a finished campaign must show the final tallies.
    if (publisher)
        publisher->publish(makeSnapshot(true), true);
    return result;
}

ShardRunResult
runCampaignShard(SimJobRunner &runner,
                 const std::vector<SimJob> &jobs,
                 const std::string &journalPath,
                 const ShardRunOptions &opts)
{
    ShardRunResult result;
    result.assigned = jobs.size();

    std::vector<std::uint64_t> keys;
    keys.reserve(jobs.size());
    for (const auto &job : jobs)
        keys.push_back(campaignJobKey(job));

    // Resume from the shard journal: only ok records satisfy a job;
    // failed / timed-out records document history but rerun, exactly
    // like a single-process --resume.
    std::vector<bool> satisfied(jobs.size(), false);
    const JournalReplay replay = loadJournalIfPresent(journalPath);
    for (const auto &rec : replay.records) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] != rec.key || satisfied[i])
                continue;
            if (rec.status == jobStatusName(JobStatus::Ok)) {
                satisfied[i] = true;
                ++result.replayed;
                if (opts.onJobDone) {
                    JobOutcome replayed_outcome;
                    replayed_outcome.status = JobStatus::Ok;
                    replayed_outcome.attempts = 0;
                    opts.onJobDone(keys[i], replayed_outcome, true);
                }
            }
            break;
        }
    }

    std::vector<SimJob> pending;
    std::vector<std::size_t> pendingIndex;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!satisfied[i]) {
            pending.push_back(jobs[i]);
            pendingIndex.push_back(i);
        }
    }
    result.executed = pending.size();

    const std::atomic<bool> *interrupt =
        opts.interruptFlag ? opts.interruptFlag
                           : &campaignInterruptFlag();

    bool all_terminal = true;
    if (!pending.empty()) {
        JournalWriter writer(journalPath);
        if (opts.fsyncLatencyNs)
            writer.setFlushLatencyHistogram(opts.fsyncLatencyNs);

        RobustRunOptions robust;
        robust.timeoutSeconds = opts.timeoutSeconds;
        robust.maxRetries = opts.maxRetries;
        robust.cancelFlag = interrupt;
        robust.drainSeconds = opts.drainSeconds;
        robust.backoffBaseSeconds = opts.backoffBaseSeconds;
        robust.backoffMaxSeconds = opts.backoffMaxSeconds;
        robust.onComplete = [&](std::size_t pi, const SimResult &res,
                                const JobOutcome &outcome) {
            const std::uint64_t key = keys[pendingIndex[pi]];
            if (opts.preJournal)
                opts.preJournal(key, outcome);
            JournalRecord rec;
            rec.key = key;
            rec.status = jobStatusName(outcome.status);
            switch (outcome.status) {
              case JobStatus::Ok:
                rec.payload = res.toJson();
                writer.append(rec);
                break;
              case JobStatus::Failed:
              case JobStatus::TimedOut:
                rec.payload = errorPayload(outcome);
                writer.append(rec);
                break;
              case JobStatus::Skipped:
              case JobStatus::Interrupted:
                break; // resumable: no record, the job reruns
            }
            FlightRecorder::global().record(
                FlightEventType::JobFinish, key,
                jobStatusName(outcome.status));
            if (opts.onJobDone)
                opts.onJobDone(key, outcome, false);
        };
        robust.onStart = [&](std::size_t pi) {
            const std::uint64_t key = keys[pendingIndex[pi]];
            FlightRecorder::global().record(FlightEventType::JobStart,
                                            key);
            if (opts.onJobStart)
                opts.onJobStart(key);
        };

        const RobustBatchResult batch =
            runner.runRobust(pending, robust);
        for (const auto &outcome : batch.outcomes) {
            if (outcome.status == JobStatus::Skipped ||
                outcome.status == JobStatus::Interrupted) {
                all_terminal = false;
            }
        }

        writer.flush();
        drainFlushHooks();
    }

    result.interrupted =
        interrupt->load(std::memory_order_relaxed) || !all_terminal;
    result.complete = all_terminal;
    return result;
}

} // namespace powerchop
