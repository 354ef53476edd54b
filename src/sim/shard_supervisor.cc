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

/** A straggler's tail is re-dispatched only while it has at least
 *  this many keys left; below that a helper costs more than it
 *  saves. */
constexpr std::size_t kRedispatchMinKeys = 2;

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

/** Every shard journal present in `dir` (primaries and re-dispatch
 *  helpers), sorted for a deterministic merge order. */
std::vector<std::string>
listShardJournals(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) == 0 && name.size() > 6 &&
            name.size() >= 12 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
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

/** One live (or draining) worker process and its line buffer. */
struct WorkerSlot
{
    unsigned shard = 0;
    unsigned helper = 0; ///< 0 = primary, >0 = re-dispatch helper
    Subprocess proc;
    std::string buf;
    double lastActivity = 0;
    bool active = false;
};

/** Everything the supervisor tracks about one shard. */
struct ShardState
{
    std::vector<std::uint64_t> keys; ///< Assigned keys (sorted).
    std::set<std::uint64_t> terminal; ///< Keys with terminal records.
    unsigned restarts = 0;
    unsigned helpers = 0;
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
shardJournalPath(const std::string &dir, unsigned shard,
                 unsigned helper)
{
    if (helper == 0)
        return csprintf("%s/shard-%04u.jsonl", dir.c_str(), shard);
    return csprintf("%s/shard-%04uh%u.jsonl", dir.c_str(), shard,
                    helper);
}

ShardSupervisorResult
runShardedCampaign(const std::vector<SimJob> &jobs,
                   const std::string &dir,
                   const ShardSupervisorOptions &opts)
{
    const double t0 = monotonicSeconds();
    ShardSupervisorResult result;

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
        std::sort(shard[s].keys.begin(), shard[s].keys.end());
    }

    // Resume: any terminal record in any shard journal counts; ok
    // and failed/timed-out records alike are terminal for the
    // supervisor (workers rerun non-ok records themselves — the
    // supervisor only decides whether the shard still needs a
    // worker at all).
    const auto reloadShardJournals = [&](unsigned s) {
        shard[s].terminal.clear();
        const std::string prefix = csprintf("shard-%04u", s);
        for (const auto &path : listShardJournals(dir)) {
            const std::string name =
                std::filesystem::path(path).filename().string();
            if (name.rfind(prefix, 0) != 0)
                continue;
            const JournalReplay replay = loadJournalIfPresent(path);
            for (const auto &rec : replay.records) {
                JobStatus st;
                if (jobStatusFromName(rec.status, st) &&
                    (st == JobStatus::Ok ||
                     st == JobStatus::Failed ||
                     st == JobStatus::TimedOut)) {
                    shard[s].terminal.insert(rec.key);
                }
            }
        }
    };

    std::size_t replayedAtStart = 0;
    for (unsigned s = 0; s < shards; ++s) {
        reloadShardJournals(s);
        replayedAtStart += shard[s].terminal.size();
        if (shard[s].keys.empty() ||
            shard[s].terminal.size() >= shard[s].keys.size()) {
            shard[s].done = true;
        }
    }

    const std::string exe = resolveSelfExe(opts.exePath);
    const std::atomic<bool> *interrupt =
        opts.interruptFlag ? opts.interruptFlag
                           : &campaignInterruptFlag();

    std::vector<WorkerSlot> slots;
    slots.reserve(shards * 2);

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
    std::size_t ok_seen = 0, failed_seen = 0;
    FlightRecorder &flight = FlightRecorder::global();

    const auto makeSnapshot = [&](bool finished) {
        StatusSnapshot snap;
        snap.role = "supervisor";
        snap.label = "campaign";
        snap.jobsTotal = jobs.size();
        std::size_t terminal = 0;
        for (unsigned s = 0; s < shards; ++s)
            terminal += shard[s].terminal.size();
        snap.jobsDone = terminal;
        // ok/failed track live protocol reports; keys replayed from
        // journals at startup are terminal-of-unknown-status here
        // (the merge, not the statusboard, is the report of record).
        snap.jobsOk = ok_seen;
        snap.jobsFailed = failed_seen;
        snap.restarts = result.restarts;
        snap.finished = finished;
        const double elapsed = monotonicSeconds() - t0;
        const std::size_t fresh =
            terminal - std::min(terminal, replayedAtStart);
        if (!finished && fresh > 0 && elapsed > 0 &&
            terminal < jobs.size()) {
            snap.etaSeconds =
                (jobs.size() - terminal) * (elapsed / fresh);
        }
        snap.restartBackoffMs = restart_backoff_ns.quantiles(1e-6);
        const double now = monotonicSeconds();
        for (unsigned s = 0; s < shards; ++s) {
            ShardStatus sh;
            sh.shard = s;
            sh.total = shard[s].keys.size();
            sh.done = shard[s].terminal.size();
            sh.restarts = shard[s].restarts;
            sh.helpers = shard[s].helpers;
            sh.failed = shard[s].failed;
            for (const auto &slot : slots) {
                if (slot.active && slot.shard == s) {
                    sh.active = true;
                    const double age = now - slot.lastActivity;
                    if (sh.heartbeatAgeSeconds < 0 ||
                        age < sh.heartbeatAgeSeconds) {
                        sh.heartbeatAgeSeconds = age;
                    }
                }
            }
            snap.shards.push_back(sh);
        }
        return snap;
    };

    const auto remainingKeys = [&](unsigned s) {
        std::vector<std::uint64_t> rem;
        for (std::uint64_t k : shard[s].keys) {
            if (!shard[s].terminal.count(k))
                rem.push_back(k);
        }
        return rem;
    };

    const auto spawnWorker = [&](unsigned s,
                                 std::vector<std::uint64_t> assigned,
                                 unsigned helper) {
        slots.emplace_back();
        WorkerSlot &slot = slots.back();
        slot.shard = s;
        slot.helper = helper;

        SpawnOptions sp;
        sp.argv = {exe, "campaign-worker", dir};
        sp.argv.insert(sp.argv.end(), opts.workerArgs.begin(),
                       opts.workerArgs.end());
        sp.argv.push_back("--journal");
        sp.argv.push_back(shardJournalPath(dir, s, helper));
        if (opts.jobTimeoutSeconds > 0) {
            sp.argv.push_back("--timeout-seconds");
            sp.argv.push_back(
                csprintf("%.3f", opts.jobTimeoutSeconds));
        }
        if (opts.maxRetries > 0) {
            sp.argv.push_back("--retries");
            sp.argv.push_back(csprintf("%u", opts.maxRetries));
        }
        slot.proc.spawn(sp);

        std::string feed;
        for (std::uint64_t k : assigned) {
            feed += csprintf("%016llx\n",
                             static_cast<unsigned long long>(k));
        }
        slot.proc.writeStdin(feed);
        slot.proc.closeStdin();
        slot.lastActivity = monotonicSeconds();
        slot.active = true;
        flight.record(FlightEventType::WorkerSpawn, 0,
                      csprintf("shard %u helper %u pid %d (%zu keys)",
                               s, helper,
                               static_cast<int>(slot.proc.pid()),
                               assigned.size()));
        event(csprintf("shard %u%s: worker pid %d spawned (%zu "
                       "keys)",
                       s,
                       helper ? csprintf(" helper %u", helper).c_str()
                              : "",
                       static_cast<int>(slot.proc.pid()),
                       assigned.size()));
    };

    // Initial spawn: one primary worker per unfinished shard.
    for (unsigned s = 0; s < shards; ++s) {
        if (!shard[s].done)
            spawnWorker(s, remainingKeys(s), 0);
    }

    bool draining = false;
    MonotonicDeadline drainDeadline;

    const auto activeWorkers = [&] {
        std::size_t n = 0;
        for (const auto &slot : slots)
            n += slot.active;
        return n;
    };

    // The supervision loop: drain worker output, classify deaths,
    // restart with backoff, re-dispatch stragglers. 10ms poll keeps
    // the loop responsive without measurable load.
    while (true) {
        const double now = monotonicSeconds();

        // Heartbeat publish; the cadence gate turns the 10ms poll
        // into one write per publisher interval.
        if (publisher)
            publisher->publish(makeSnapshot(false));

        for (auto &slot : slots) {
            if (!slot.active)
                continue;
            ShardState &st = shard[slot.shard];

            // Drain protocol lines. Any output refreshes liveness.
            const std::string data = slot.proc.readAvailable();
            if (!data.empty()) {
                slot.lastActivity = now;
                slot.buf += data;
                std::size_t nl;
                while ((nl = slot.buf.find('\n')) !=
                       std::string::npos) {
                    const std::string line = slot.buf.substr(0, nl);
                    slot.buf.erase(0, nl + 1);
                    if (line.rfind("done ", 0) == 0 &&
                        line.size() > 5 + 17) {
                        const std::uint64_t key = std::strtoull(
                            line.substr(5, 16).c_str(), nullptr, 16);
                        // Only genuinely terminal statuses count: a
                        // draining worker also reports interrupted /
                        // skipped jobs, which must stay pending.
                        const std::string status =
                            line.substr(5 + 17);
                        JobStatus st_val;
                        if (jobStatusFromName(status, st_val) &&
                            (st_val == JobStatus::Ok ||
                             st_val == JobStatus::Failed ||
                             st_val == JobStatus::TimedOut)) {
                            if (st.terminal.insert(key).second) {
                                if (st_val == JobStatus::Ok)
                                    ++ok_seen;
                                else
                                    ++failed_seen;
                            }
                        }
                    }
                    // "ready"/"hb" lines only carry liveness.
                }
            }

            // Hung worker: alive but silent past the heartbeat
            // window. SIGKILL it and let the death path classify.
            if (opts.heartbeatTimeoutSeconds > 0 &&
                now - slot.lastActivity >
                    opts.heartbeatTimeoutSeconds &&
                slot.proc.poll().running()) {
                flight.record(
                    FlightEventType::HeartbeatMiss, 0,
                    csprintf("shard %u pid %d silent %.1fs",
                             slot.shard,
                             static_cast<int>(slot.proc.pid()),
                             now - slot.lastActivity));
                event(csprintf("shard %u: worker pid %d hung (no "
                               "heartbeat for %.1fs); SIGKILL",
                               slot.shard,
                               static_cast<int>(slot.proc.pid()),
                               now - slot.lastActivity));
                slot.proc.killHard();
            }

            const ExitStatus es = slot.proc.poll();
            if (es.running())
                continue;

            // Death: the journal, not the exit status, is the truth
            // about what completed.
            slot.active = false;
            reloadShardJournals(slot.shard);
            const std::vector<std::uint64_t> rem =
                remainingKeys(slot.shard);
            if (rem.empty()) {
                if (!st.done) {
                    st.done = true;
                    flight.record(FlightEventType::WorkerExit, 0,
                                  csprintf("shard %u complete (%s)",
                                           slot.shard,
                                           es.describe().c_str()));
                    event(csprintf("shard %u: complete (%s)",
                                   slot.shard,
                                   es.describe().c_str()));
                }
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
                            slot.shard, rem.size());
            }
            ++result.crashes;
            const std::string what = csprintf(
                "shard %u: worker died (%s) with %zu jobs "
                "unfinished",
                slot.shard, es.describe().c_str(), rem.size());
            result.crashLog.push_back(what);
            // Crash postmortem: the flight ring is dumped right here,
            // not just on supervisor exit — a later SIGKILL of the
            // supervisor itself must not erase the evidence.
            flight.record(FlightEventType::WorkerCrash, 0, what);
            flight.dumpNow();
            if (publisher)
                publisher->publish(makeSnapshot(false), true);
            event(what);
            if (slot.helper > 0) {
                // A dead helper is not restarted: the primary still
                // owns every key; it just loses the speedup.
                continue;
            }
            if (st.restarts >= opts.maxRestarts) {
                st.failed = true;
                st.failReason = csprintf(
                    "shard worker crashed %zu times (last: %s); "
                    "restart budget (%u) exhausted",
                    static_cast<std::size_t>(st.restarts + 1),
                    es.describe().c_str(), opts.maxRestarts);
                event(csprintf("shard %u: giving up: %s", slot.shard,
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
            for (auto &slot : slots) {
                if (slot.active)
                    slot.proc.sendSignal(SIGTERM);
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
                for (auto &slot : slots) {
                    if (slot.active) {
                        slot.proc.killHard();
                        slot.active = false;
                    }
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }

        // A shard whose full key set went terminal (usually thanks
        // to a helper) doesn't need its workers any more: ask them
        // to drain so they stop burning duplicated work.
        for (unsigned s = 0; s < shards; ++s) {
            if (shard[s].done || shard[s].failed)
                continue;
            if (remainingKeys(s).empty()) {
                shard[s].done = true;
                for (auto &slot : slots) {
                    if (slot.active && slot.shard == s)
                        slot.proc.sendSignal(SIGTERM);
                }
                event(csprintf("shard %u: complete", s));
            }
        }

        // Restarts whose backoff expired.
        for (unsigned s = 0; s < shards; ++s) {
            ShardState &st = shard[s];
            if (st.restartPending && now >= st.nextSpawnAt &&
                !st.done && !st.failed) {
                st.restartPending = false;
                ++result.restarts;
                flight.record(FlightEventType::Restart, 0,
                              csprintf("shard %u restart %u/%u", s,
                                       st.restarts,
                                       opts.maxRestarts));
                event(csprintf("shard %u: restart %u/%u", s,
                               st.restarts, opts.maxRestarts));
                spawnWorker(s, remainingKeys(s), 0);
                if (publisher)
                    publisher->publish(makeSnapshot(false), true);
            }
        }

        // Straggler re-dispatch: idle capacity goes to the slowest
        // running shard's tail.
        if (opts.redispatch && activeWorkers() < shards) {
            unsigned straggler = shards;
            std::size_t worst = 0;
            for (unsigned s = 0; s < shards; ++s) {
                if (shard[s].done || shard[s].failed ||
                    shard[s].restartPending ||
                    shard[s].helpers > 0) {
                    continue;
                }
                bool has_worker = false;
                for (const auto &slot : slots) {
                    has_worker |= slot.active && slot.shard == s;
                }
                if (!has_worker)
                    continue;
                const std::size_t rem = remainingKeys(s).size();
                if (rem >= kRedispatchMinKeys && rem > worst) {
                    worst = rem;
                    straggler = s;
                }
            }
            if (straggler < shards) {
                const std::vector<std::uint64_t> rem =
                    remainingKeys(straggler);
                const std::vector<std::uint64_t> tail(
                    rem.begin() + rem.size() / 2, rem.end());
                ++shard[straggler].helpers;
                ++result.redispatches;
                flight.record(
                    FlightEventType::Redispatch, 0,
                    csprintf("shard %u: %zu of %zu keys to helper",
                             straggler, tail.size(), rem.size()));
                event(csprintf("shard %u: re-dispatching %zu of %zu "
                               "remaining keys to a helper",
                               straggler, tail.size(), rem.size()));
                spawnWorker(straggler, tail,
                            shard[straggler].helpers);
            }
        }

        // Termination: every shard settled and no worker running.
        bool settled = true;
        for (unsigned s = 0; s < shards; ++s) {
            settled &= shard[s].done || shard[s].failed;
        }
        if (settled && activeWorkers() == 0)
            break;

        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    const bool interrupted =
        interrupt->load(std::memory_order_relaxed);

    // ----------------------------------------------------------------
    // Merge: assemble the campaign report from the shard journals.
    // Purely journal-driven and key-ordered by the job spec, so the
    // bytes match a single-process runCampaign() of the same jobs.
    // ----------------------------------------------------------------
    std::map<std::uint64_t, JournalRecord> merged;
    std::size_t corrupted = 0, truncated = 0;
    for (const auto &path : listShardJournals(dir)) {
        const JournalReplay replay = loadJournalIfPresent(path);
        corrupted += replay.corrupted;
        truncated += replay.truncated;
        for (const auto &rec : replay.records) {
            auto it = merged.find(rec.key);
            // ok wins over non-ok (a helper may have completed a
            // key whose primary record is failed); otherwise last
            // write wins like within one journal.
            if (it == merged.end() ||
                it->second.status != jobStatusName(JobStatus::Ok) ||
                rec.status == jobStatusName(JobStatus::Ok)) {
                merged[rec.key] = rec;
            }
        }
    }

    CampaignResult &camp = result.campaign;
    camp.keys = keys;
    camp.outcomes.resize(jobs.size());
    camp.payloads.resize(jobs.size());
    camp.corruptedRecords = corrupted;
    camp.truncatedRecords = truncated;

    // Which shard owns a key (for per-shard failure attribution).
    std::map<std::uint64_t, unsigned> owner;
    for (unsigned s = 0; s < shards; ++s) {
        for (std::uint64_t k : shard[s].keys)
            owner[k] = s;
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobOutcome &outcome = camp.outcomes[i];
        const auto it = merged.find(keys[i]);
        if (it == merged.end()) {
            // Never reached a terminal record: resumable when the
            // supervisor was interrupted, failed when its shard
            // exhausted restarts.
            const unsigned s = owner[keys[i]];
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
        JobStatus st;
        if (!jobStatusFromName(it->second.status, st))
            continue;
        outcome.status = st;
        if (st == JobStatus::Ok) {
            camp.payloads[i] = it->second.payload;
        } else {
            // Recover the live error text so the merged report
            // renders exactly what a single-process run would.
            if (!parseErrorPayload(it->second.payload, outcome.error,
                                   outcome.attempts)) {
                outcome.error = "unparseable journal error record";
            }
        }
    }

    camp.replayed = replayedAtStart;
    std::size_t terminalNow = 0;
    for (const auto &o : camp.outcomes) {
        terminalNow += o.status == JobStatus::Ok ||
                       o.status == JobStatus::Failed ||
                       o.status == JobStatus::TimedOut;
    }
    camp.executed = terminalNow - std::min(terminalNow,
                                           replayedAtStart);
    camp.interrupted = interrupted || !camp.complete();
    for (unsigned s = 0; s < shards; ++s)
        camp.interrupted |= !shard[s].done && !shard[s].failed;
    camp.workerCrashes = result.crashes;
    camp.workerRestarts = result.restarts;
    camp.redispatches = result.redispatches;

    atomicWriteFile(dir + "/report.json", camp.reportJson());
    drainFlushHooks();

    // Terminal snapshot, forced: readers of a finished campaign see
    // the final per-shard tallies, not the last mid-run heartbeat.
    if (publisher)
        publisher->publish(makeSnapshot(true), true);

    result.wallSeconds = monotonicSeconds() - t0;
    return result;
}

} // namespace powerchop
