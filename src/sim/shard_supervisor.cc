#include "sim/shard_supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/flight_recorder.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "sim/statusboard.hh"

namespace powerchop
{

namespace
{

/** Restart backoff after a shard's n-th crash: base * 2^(n-1),
 *  capped, in monotonic seconds. The supervisor keeps servicing the
 *  other shards while it waits. @{ */
constexpr double kRestartBackoffBaseSeconds = 0.1;
constexpr double kRestartBackoffMaxSeconds = 2.0;
/** @} */

std::string
resolveSelfExe(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) {
        throw IoError(csprintf(
            "cannot resolve /proc/self/exe for worker re-exec: %s",
            std::strerror(errno)));
    }
    buf[n] = '\0';
    return std::string(buf);
}

/** Every shard journal present in `dir`, sorted for a deterministic
 *  merge order. */
std::vector<std::string>
listShardJournals(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) == 0 && name.size() >= 12 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Keys with an ok record in any of `journals`. Only an ok record
 *  satisfies a job, as in a single-process campaign, so failed and
 *  timed-out jobs rerun on resume. */
std::set<std::uint64_t>
okKeys(const std::vector<std::string> &journals)
{
    std::set<std::uint64_t> ok;
    for (const std::string &path : journals) {
        for (const JournalRecord &rec :
             loadJournalIfPresent(path).records) {
            if (rec.status == jobStatusName(JobStatus::Ok))
                ok.insert(rec.key);
        }
    }
    return ok;
}

/** User + system CPU seconds of every reaped child process. */
double
childCpuSeconds()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    const auto secs = [](const timeval &tv) {
        return tv.tv_sec + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Bounded exponential restart backoff (monotonic seconds). */
double
restartBackoff(unsigned restarts)
{
    double delay = kRestartBackoffBaseSeconds;
    for (unsigned i = 1; i < restarts && delay < kRestartBackoffMaxSeconds;
         ++i) {
        delay *= 2;
    }
    return std::min(delay, kRestartBackoffMaxSeconds);
}

/** Everything the supervisor tracks about one shard, its worker
 *  process included. */
struct ShardState
{
    std::vector<std::uint64_t> keys; ///< Assigned keys (ascending).
    /** Settled keys: ok records in the shard journals, and the jobs
     *  this run's workers reported ok, failed or timed out. */
    std::map<std::uint64_t, JobStatus> settled;
    Subprocess proc;         ///< The worker, while `active`.
    std::string buf;         ///< Its unterminated stdout line.
    double lastActivity = 0; ///< When it last wrote to stdout.
    bool active = false;
    unsigned restarts = 0;
    bool restartPending = false;
    double nextSpawnAt = 0;
    bool done = false;
    bool failed = false;
    std::string failReason;
};

} // namespace

std::vector<std::vector<std::size_t>>
partitionByKeyRange(const std::vector<std::uint64_t> &keys,
                    unsigned shards)
{
    std::vector<std::size_t> order(keys.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return keys[a] < keys[b];
              });

    const std::size_t n = keys.size();
    const unsigned s =
        std::max(1u, std::min<unsigned>(
                         shards, static_cast<unsigned>(
                                     std::max<std::size_t>(n, 1))));
    std::vector<std::vector<std::size_t>> parts(s);
    for (unsigned p = 0; p < s; ++p) {
        const std::size_t lo = n * p / s;
        const std::size_t hi = n * (p + 1) / s;
        parts[p].assign(order.begin() + lo, order.begin() + hi);
    }
    return parts;
}

std::string
shardJournalPath(const std::string &dir, unsigned shard)
{
    return csprintf("%s/shard-%04u.jsonl", dir.c_str(), shard);
}

ShardSupervisorResult
runShardedCampaign(const std::vector<SimJob> &jobs,
                   const std::string &dir,
                   const ShardSupervisorOptions &opts)
{
    const double t0 = monotonicSeconds();
    const double cpu0 = childCpuSeconds();
    ShardSupervisorResult result;
    CampaignResult &camp = result.campaign;

    const auto event = [&](const std::string &msg) {
        if (opts.onEvent)
            opts.onEvent(msg);
    };

    makeCampaignDirs(dir);

    // A single-process journal in the directory means this dir
    // belongs to an unsharded campaign; mixing the two layouts would
    // make --resume ambiguous, so refuse outright.
    if (std::filesystem::exists(dir + "/journal.jsonl")) {
        fatal("sharded campaign: %s/journal.jsonl exists (single-"
              "process campaign); resume it without --shards or use "
              "a fresh directory",
              dir.c_str());
    }
    if (!opts.resume && !listShardJournals(dir).empty()) {
        fatal("sharded campaign: %s already holds shard journals; "
              "pass --resume to continue it or choose a fresh "
              "directory",
              dir.c_str());
    }

    // Content keys and the deterministic key-range partition.
    const std::vector<std::uint64_t> keys = campaignJobKeys(jobs);
    const auto parts = partitionByKeyRange(keys, opts.shards);
    const unsigned shards = static_cast<unsigned>(parts.size());
    result.shards = shards;

    std::vector<ShardState> shard(shards);
    for (unsigned s = 0; s < shards; ++s) {
        for (std::size_t idx : parts[s])
            shard[s].keys.push_back(keys[idx]);
    }

    const auto settle = [&](unsigned s,
                            const std::set<std::uint64_t> &ok) {
        ShardState &st = shard[s];
        for (std::uint64_t k : st.keys) {
            if (ok.count(k))
                st.settled.emplace(k, JobStatus::Ok);
        }
    };

    // At start every shard journal in the directory counts: a resume
    // with another shard count finds a job's ok record in the journal
    // of the shard that owned it before.
    const std::set<std::uint64_t> okAtStart =
        okKeys(listShardJournals(dir));
    std::size_t replayedAtStart = 0;
    for (unsigned s = 0; s < shards; ++s) {
        settle(s, okAtStart);
        replayedAtStart += shard[s].settled.size();
        shard[s].done = shard[s].settled.size() == shard[s].keys.size();
    }

    const std::string exe = resolveSelfExe(opts.exePath);
    const std::atomic<bool> *interrupt =
        opts.interruptFlag ? opts.interruptFlag
                           : &campaignInterruptFlag();

    // Live observability: the supervisor aggregate snapshot (one
    // per-shard health entry each) plus flight-recorder events.
    // Worker deaths and restarts force a publish past the cadence
    // gate, so `powerchop status` shows them within one interval.
    std::unique_ptr<StatusPublisher> publisher;
    if (opts.publishStatus) {
        makeCampaignDirs(statusDirPath(dir));
        publisher =
            std::make_unique<StatusPublisher>(campaignStatusPath(dir));
    }
    stats::Log2Histogram restart_backoff_ns;
    FlightRecorder &flight = FlightRecorder::global();

    const auto makeSnapshot = [&](bool finished) {
        StatusSnapshot snap;
        snap.role = "supervisor";
        snap.label = "campaign";
        snap.jobsTotal = jobs.size();
        const double now = monotonicSeconds();
        for (unsigned s = 0; s < shards; ++s) {
            const ShardState &st = shard[s];
            for (const auto &[key, status] : st.settled) {
                if (status == JobStatus::Ok)
                    ++snap.jobsOk;
                else
                    ++snap.jobsFailed;
            }
            ShardStatus sh;
            sh.shard = s;
            sh.total = st.keys.size();
            sh.done = st.settled.size();
            sh.restarts = st.restarts;
            sh.failed = st.failed;
            sh.active = st.active;
            if (st.active)
                sh.heartbeatAgeSeconds = now - st.lastActivity;
            snap.shards.push_back(sh);
        }
        snap.jobsDone = snap.jobsOk + snap.jobsFailed;
        snap.restarts = camp.workerRestarts;
        snap.finished = finished;
        const double elapsed = now - t0;
        const std::size_t fresh = snap.jobsDone - replayedAtStart;
        if (!finished && fresh > 0 && elapsed > 0 &&
            snap.jobsDone < jobs.size()) {
            snap.etaSeconds =
                (jobs.size() - snap.jobsDone) * (elapsed / fresh);
        }
        snap.restartBackoffMs = restart_backoff_ns.quantiles(1e-6);
        return snap;
    };

    // Spawn a worker for the keys shard `s` has not settled.
    const auto spawnWorker = [&](unsigned s) {
        ShardState &st = shard[s];
        SpawnOptions sp;
        sp.argv = {exe, "campaign-worker", dir};
        sp.argv.insert(sp.argv.end(), opts.workerArgs.begin(),
                       opts.workerArgs.end());
        sp.argv.push_back("--journal");
        sp.argv.push_back(shardJournalPath(dir, s));
        st.proc = Subprocess(); // a restart: spawn() runs once per object
        st.proc.spawn(sp);

        std::string feed;
        std::size_t assigned = 0;
        for (std::uint64_t k : st.keys) {
            if (st.settled.count(k))
                continue;
            feed += csprintf("%016llx\n",
                             static_cast<unsigned long long>(k));
            ++assigned;
        }
        st.proc.writeStdin(feed);
        st.proc.closeStdin();
        st.buf.clear();
        st.lastActivity = monotonicSeconds();
        st.active = true;
        flight.record(FlightEventType::WorkerSpawn, 0,
                      csprintf("shard %u pid %d (%zu keys)", s,
                               static_cast<int>(st.proc.pid()),
                               assigned));
        event(csprintf("shard %u: worker pid %d spawned (%zu keys)", s,
                       static_cast<int>(st.proc.pid()), assigned));
    };

    // Initial spawn: one worker per unfinished shard.
    for (unsigned s = 0; s < shards; ++s) {
        if (!shard[s].done)
            spawnWorker(s);
    }

    bool draining = false;
    MonotonicDeadline drainDeadline;

    const auto activeWorkers = [&] {
        std::size_t n = 0;
        for (const ShardState &st : shard)
            n += st.active;
        return n;
    };

    // The supervision loop: drain worker output, classify deaths,
    // restart with backoff. 10ms poll keeps the loop responsive
    // without measurable load.
    while (true) {
        const double now = monotonicSeconds();

        // Heartbeat publish; the cadence gate turns the 10ms poll
        // into one write per publisher interval.
        if (publisher)
            publisher->publish(makeSnapshot(false));

        for (unsigned s = 0; s < shards; ++s) {
            ShardState &st = shard[s];
            if (!st.active)
                continue;

            // Poll before draining stdout: a worker seen dead has
            // already written every line it will, so none is lost.
            ExitStatus es = st.proc.poll();
            const std::string data = st.proc.readAvailable();
            if (!data.empty()) {
                st.lastActivity = now;
                st.buf += data;
                std::size_t nl;
                while ((nl = st.buf.find('\n')) != std::string::npos) {
                    const std::string line = st.buf.substr(0, nl);
                    st.buf.erase(0, nl + 1);
                    // Only settled statuses count: a draining worker
                    // also reports interrupted / skipped jobs, which
                    // must stay pending. "ready"/"hb" lines only
                    // carry liveness.
                    JobStatus status{};
                    if (line.rfind("done ", 0) == 0 &&
                        line.size() > 5 + 17 &&
                        jobStatusFromName(line.substr(5 + 17),
                                          status) &&
                        (status == JobStatus::Ok ||
                         status == JobStatus::Failed ||
                         status == JobStatus::TimedOut)) {
                        st.settled.emplace(
                            std::strtoull(line.substr(5, 16).c_str(),
                                          nullptr, 16),
                            status);
                    }
                }
            }

            // Hung worker: alive but silent past the heartbeat
            // window. SIGKILL it and let the death path classify.
            if (es.running() && opts.heartbeatTimeoutSeconds > 0 &&
                now - st.lastActivity > opts.heartbeatTimeoutSeconds) {
                flight.record(
                    FlightEventType::HeartbeatMiss, 0,
                    csprintf("shard %u pid %d silent %.1fs", s,
                             static_cast<int>(st.proc.pid()),
                             now - st.lastActivity));
                event(csprintf("shard %u: worker pid %d hung (no "
                               "heartbeat for %.1fs); SIGKILL",
                               s, static_cast<int>(st.proc.pid()),
                               now - st.lastActivity));
                st.proc.killHard();
                es = st.proc.poll();
            }
            if (es.running())
                continue;

            // Death: the journal, not the exit status, is the truth
            // about what completed.
            st.active = false;
            settle(s, okKeys({shardJournalPath(dir, s)}));
            const std::size_t rem = st.keys.size() - st.settled.size();
            if (rem == 0) {
                st.done = true;
                flight.record(FlightEventType::WorkerExit, 0,
                              csprintf("shard %u complete (%s)", s,
                                       es.describe().c_str()));
                event(csprintf("shard %u: complete (%s)", s,
                               es.describe().c_str()));
                continue;
            }
            if (draining) {
                // The supervisor is shutting down; an incomplete
                // worker exit during the drain is expected.
                continue;
            }
            if (es.exitedOk()) {
                // "Complete" exit but the journal disagrees: treat
                // as a crash so the remainder still runs, but it
                // points at an assignment bug. Rate-limited: a
                // restart loop of a systematically broken worker
                // must not flood stderr.
                static LogRateLimiter limiter(5.0, 20.0);
                warnLimited(limiter,
                            "shard %u: worker exited 0 with %zu jobs "
                            "unfinished",
                            s, rem);
            }
            ++camp.workerCrashes;
            const std::string what = csprintf(
                "shard %u: worker died (%s) with %zu jobs "
                "unfinished",
                s, es.describe().c_str(), rem);
            // Crash postmortem: the flight ring is dumped right here,
            // not just on supervisor exit — a later SIGKILL of the
            // supervisor itself must not erase the evidence.
            flight.record(FlightEventType::WorkerCrash, 0, what);
            flight.dumpNow();
            if (publisher)
                publisher->publish(makeSnapshot(false), true);
            event(what);
            if (st.restarts >= opts.maxRestarts) {
                st.failed = true;
                st.failReason = csprintf(
                    "shard worker crashed %zu times (last: %s); "
                    "restart budget (%u) exhausted",
                    static_cast<std::size_t>(st.restarts + 1),
                    es.describe().c_str(), opts.maxRestarts);
                event(csprintf("shard %u: giving up: %s", s,
                               st.failReason.c_str()));
                continue;
            }
            ++st.restarts;
            st.restartPending = true;
            const double backoff = restartBackoff(st.restarts);
            restart_backoff_ns.sample(
                static_cast<std::uint64_t>(backoff * 1e9));
            st.nextSpawnAt = now + backoff;
        }

        // Interrupt: request a graceful drain from every worker,
        // then stop supervising. Shard journals stay resumable.
        if (!draining &&
            interrupt->load(std::memory_order_relaxed)) {
            draining = true;
            drainDeadline = MonotonicDeadline(
                opts.drainSeconds > 0 ? opts.drainSeconds : 0.001);
            for (ShardState &st : shard) {
                if (st.active)
                    st.proc.sendSignal(SIGTERM);
            }
            flight.record(FlightEventType::Signal, 0,
                          "interrupt: draining workers");
            if (publisher)
                publisher->publish(makeSnapshot(false), true);
            event("interrupt: draining workers");
        }
        if (draining) {
            if (activeWorkers() == 0)
                break;
            if (drainDeadline.expired()) {
                for (ShardState &st : shard) {
                    if (st.active) {
                        st.proc.killHard();
                        st.active = false;
                    }
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }

        // Restarts whose backoff expired.
        for (unsigned s = 0; s < shards; ++s) {
            ShardState &st = shard[s];
            if (st.restartPending && now >= st.nextSpawnAt) {
                st.restartPending = false;
                ++camp.workerRestarts;
                flight.record(FlightEventType::Restart, 0,
                              csprintf("shard %u restart %u/%u", s,
                                       st.restarts,
                                       opts.maxRestarts));
                event(csprintf("shard %u: restart %u/%u", s,
                               st.restarts, opts.maxRestarts));
                spawnWorker(s);
                if (publisher)
                    publisher->publish(makeSnapshot(false), true);
            }
        }

        // Termination: every shard done or out of restarts. A
        // settled shard has no worker left running.
        if (std::all_of(shard.begin(), shard.end(),
                        [](const ShardState &st) {
                            return st.done || st.failed;
                        })) {
            break;
        }

        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // ----------------------------------------------------------------
    // Merge: assemble the campaign report from the shard journals.
    // Purely journal-driven and key-ordered by the job spec, so the
    // bytes match a single-process runCampaign() of the same jobs.
    // ----------------------------------------------------------------
    std::map<std::uint64_t, JournalRecord> merged;
    for (const auto &path : listShardJournals(dir)) {
        const JournalReplay replay = loadJournalIfPresent(path);
        camp.corruptedRecords += replay.corrupted;
        camp.truncatedRecords += replay.truncated;
        for (const auto &rec : replay.records) {
            auto it = merged.find(rec.key);
            // ok wins over non-ok (a resume with another shard count
            // can leave one key's records in two journals);
            // otherwise last write wins like within one journal.
            if (it == merged.end() ||
                it->second.status != jobStatusName(JobStatus::Ok) ||
                rec.status == jobStatusName(JobStatus::Ok)) {
                merged[rec.key] = rec;
            }
        }
    }

    camp.keys = keys;
    camp.outcomes.resize(jobs.size());
    camp.payloads.resize(jobs.size());
    for (unsigned s = 0; s < shards; ++s) {
        for (std::size_t i : parts[s]) {
            JobOutcome &outcome = camp.outcomes[i];
            const auto it = merged.find(keys[i]);
            if (it == merged.end()) {
                // Never journaled: failed when its shard exhausted
                // restarts, otherwise resumable (interrupted).
                if (shard[s].failed) {
                    outcome.status = JobStatus::Failed;
                    outcome.error = shard[s].failReason;
                } else {
                    outcome.status = JobStatus::Skipped;
                    outcome.error = "campaign interrupted";
                    outcome.attempts = 0;
                }
                continue;
            }
            JobStatus st{};
            if (!jobStatusFromName(it->second.status, st))
                continue;
            outcome.status = st;
            if (st == JobStatus::Ok) {
                camp.payloads[i] = it->second.payload;
            } else if (!parseErrorPayload(it->second.payload,
                                          outcome.error,
                                          outcome.attempts)) {
                // Recover the live error text so the merged report
                // renders exactly what a single-process run would.
                outcome.error = "unparseable journal error record";
            }
        }
    }

    // The single-process tallies and exit rule: jobs an ok record
    // satisfied were replayed, the rest went to workers, and the
    // campaign is interrupted exactly when the flag rose or a job is
    // left resumable — so permanent failures exit 1.
    camp.replayed = replayedAtStart;
    camp.executed = jobs.size() - replayedAtStart;
    camp.interrupted = interrupt->load(std::memory_order_relaxed) ||
                       camp.tally().resumable > 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (camp.outcomes[i].status == JobStatus::Ok &&
            !okAtStart.count(keys[i]))
            result.instructions += jobs[i].opts.maxInstructions;
    }

    atomicWriteFile(dir + "/report.json", camp.reportJson());
    drainFlushHooks();

    // Terminal snapshot, forced: readers of a finished campaign see
    // the final per-shard tallies, not the last mid-run heartbeat.
    if (publisher)
        publisher->publish(makeSnapshot(true), true);

    result.wallSeconds = monotonicSeconds() - t0;
    result.busySeconds = childCpuSeconds() - cpu0;
    return result;
}

} // namespace powerchop
