/**
 * @file
 * Tests for process-isolated sharded campaigns: deterministic
 * key-range partitioning, the shard worker run loop, and end-to-end
 * supervision through the real CLI binary — crash containment
 * (SIGSEGV / SIGKILL of workers mid-run), restart-with-backoff,
 * resume, the byte-identical merged report guarantee, and the
 * single-process campaign's exit, resume and counting rules.
 *
 * The end-to-end tests re-exec the installed CLI
 * (POWERCHOP_CLI_PATH, injected by CMake) exactly the way a user
 * would run `powerchop campaign --shards N`.
 */

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <gtest/gtest.h>

#include <unistd.h>

#include "common/journal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "sim/campaign.hh"
#include "sim/shard_supervisor.hh"
#include "sim/statusboard.hh"
#include "sim/sim_runner.hh"
#include "workload/spec_io.hh"
#include "workload/suites.hh"

using namespace powerchop;

namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "powerchop_shard_" +
        std::to_string(::getpid()) + "_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

WorkloadSpec
smallWorkload(unsigned seed)
{
    WorkloadSpec w;
    w.name = "shardwl-" + std::to_string(seed);
    w.seed = seed;
    PhaseSpec compute;
    compute.name = "compute";
    compute.simdFrac = 0.05;
    PhaseSpec memory;
    memory.name = "memory";
    memory.memFrac = 0.32;
    memory.mem.workingSetBytes = 256 * 1024;
    memory.mem.hotRegionFrac = 0.8;
    memory.mem.randomFrac = 0.5;
    w.phases = {compute, memory};
    w.schedule = {{0, 60'000}, {1, 90'000}};
    return w;
}

constexpr InsnCount kInsns = 30'000;

/** The matrix a CLI invocation with `--workloads <files> --machine
 *  server --modes full-power,powerchop --insns kInsns` builds —
 *  duplicated here so tests can compute the same content keys the
 *  worker processes will. */
std::vector<SimJob>
cliMatrix(const std::vector<std::string> &specFiles)
{
    std::vector<SimJob> jobs;
    for (const auto &path : specFiles) {
        for (SimMode mode :
             {SimMode::FullPower, SimMode::PowerChop}) {
            SimJob job;
            job.workload = loadWorkloadSpec(path);
            job.machine = serverConfig();
            job.opts.mode = mode;
            job.opts.maxInstructions = kInsns;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Write `n` small workload specs into `dir` and return their paths
 *  plus the --workloads CSV naming them. */
std::vector<std::string>
writeSpecs(const std::string &dir, std::size_t n)
{
    std::filesystem::create_directories(dir);
    std::vector<std::string> files;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string path =
            dir + "/wl" + std::to_string(i) + ".wl";
        saveWorkloadSpec(smallWorkload(static_cast<unsigned>(i + 1)),
                         path);
        files.push_back(path);
    }
    return files;
}

std::string
csv(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &s : items)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

/** Run the real CLI; returns its ExitStatus and captures stdout. */
ExitStatus
runCli(const std::vector<std::string> &args,
       const std::vector<std::string> &extraEnv = {},
       std::string *out = nullptr)
{
    SpawnOptions opts;
    opts.argv = {POWERCHOP_CLI_PATH};
    opts.argv.insert(opts.argv.end(), args.begin(), args.end());
    opts.extraEnv = extraEnv;
    Subprocess p;
    p.spawn(opts);
    p.closeStdin();
    std::string drained;
    const ExitStatus st = p.wait(300.0, &drained);
    EXPECT_FALSE(st.running()) << "CLI run timed out";
    if (out)
        *out = drained;
    return st;
}

std::vector<std::string>
campaignArgs(const std::string &dir,
             const std::vector<std::string> &specFiles)
{
    return {"campaign",  dir,
            "--workloads", csv(specFiles),
            "--machine", "server",
            "--modes",   "full-power,powerchop",
            "--insns",   std::to_string(kInsns)};
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

TEST(Partition, CoversEveryIndexExactlyOnce)
{
    const std::vector<std::uint64_t> keys = {
        0x9u, 0x2u, 0xff00u, 0x1u, 0x80u, 0x7u, 0xabcdu};
    const auto parts = partitionByKeyRange(keys, 3);
    ASSERT_EQ(parts.size(), 3u);
    std::set<std::size_t> seen;
    for (const auto &part : parts) {
        for (std::size_t idx : part)
            EXPECT_TRUE(seen.insert(idx).second) << "index twice";
    }
    EXPECT_EQ(seen.size(), keys.size());
}

TEST(Partition, ShardsOwnContiguousKeyRanges)
{
    const std::vector<std::uint64_t> keys = {
        50, 10, 90, 20, 70, 30, 80, 40};
    const auto parts = partitionByKeyRange(keys, 4);
    std::uint64_t prev_max = 0;
    for (const auto &part : parts) {
        ASSERT_FALSE(part.empty());
        std::uint64_t lo = UINT64_MAX, hi = 0;
        for (std::size_t idx : part) {
            lo = std::min(lo, keys[idx]);
            hi = std::max(hi, keys[idx]);
        }
        EXPECT_GE(lo, prev_max) << "ranges must not interleave";
        prev_max = hi;
    }
}

TEST(Partition, DeterministicAndNearEqual)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 103; ++i)
        keys.push_back(i * 0x9e3779b97f4a7c15ull); // scrambled order
    const auto a = partitionByKeyRange(keys, 8);
    const auto b = partitionByKeyRange(keys, 8);
    EXPECT_EQ(a, b) << "partition must be a pure function";
    for (const auto &part : a) {
        EXPECT_GE(part.size(), 103u / 8);
        EXPECT_LE(part.size(), 103u / 8 + 1);
    }
}

TEST(Partition, ClampsShardsToJobCount)
{
    const std::vector<std::uint64_t> keys = {5, 3};
    const auto parts = partitionByKeyRange(keys, 16);
    EXPECT_EQ(parts.size(), 2u);
    EXPECT_TRUE(partitionByKeyRange({}, 4).size() <= 1u);
}

TEST(Partition, ShardJournalPathsAreDistinct)
{
    EXPECT_EQ(shardJournalPath("d", 0), "d/shard-0000.jsonl");
    EXPECT_EQ(shardJournalPath("d", 3), "d/shard-0003.jsonl");
}

// ---------------------------------------------------------------------
// Shard worker run loop (in-process)
// ---------------------------------------------------------------------

TEST(ShardRun, CompletesAndJournalsEveryAssignedJob)
{
    const std::string dir = freshDir("shardrun");
    makeCampaignDirs(dir);
    const std::string journal = shardJournalPath(dir, 0);

    std::vector<SimJob> jobs;
    for (unsigned i = 1; i <= 3; ++i) {
        SimJob job;
        job.workload = smallWorkload(i);
        job.machine = serverConfig();
        job.opts.maxInstructions = kInsns;
        jobs.push_back(std::move(job));
    }

    SimJobRunner runner(1);
    std::size_t done_calls = 0;
    CampaignOptions opts;
    opts.onJobDone = [&](std::uint64_t, const JobOutcome &, bool) {
        ++done_calls;
    };
    const CampaignResult res =
        runCampaignShard(runner, jobs, journal, opts);
    EXPECT_TRUE(res.complete());
    EXPECT_FALSE(res.interrupted);
    EXPECT_EQ(res.keys.size(), 3u);
    EXPECT_EQ(res.executed, 3u);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(done_calls, 3u);
    EXPECT_EQ(loadJournal(journal).records.size(), 3u);

    // A second run replays everything from the journal.
    const CampaignResult again =
        runCampaignShard(runner, jobs, journal, opts);
    EXPECT_TRUE(again.complete());
    EXPECT_EQ(again.replayed, 3u);
    EXPECT_EQ(again.executed, 0u);
}

TEST(ShardRun, PreJournalFiresBeforeRecordIsDurable)
{
    // The crash-injection hook must observe the pre-durability
    // window: at callback time the job's record is NOT yet in the
    // journal, so a crash there forces a rerun.
    const std::string dir = freshDir("prejournal");
    makeCampaignDirs(dir);
    const std::string journal = shardJournalPath(dir, 0);

    SimJob job;
    job.workload = smallWorkload(1);
    job.machine = serverConfig();
    job.opts.maxInstructions = kInsns;

    SimJobRunner runner(1);
    std::size_t records_at_hook = 99;
    CampaignOptions opts;
    opts.preJournal = [&](std::uint64_t, const JobOutcome &) {
        records_at_hook =
            loadJournalIfPresent(journal).records.size();
    };
    runCampaignShard(runner, {job}, journal, opts);
    EXPECT_EQ(records_at_hook, 0u);
    EXPECT_EQ(loadJournal(journal).records.size(), 1u);
}

// ---------------------------------------------------------------------
// End-to-end supervision through the CLI
// ---------------------------------------------------------------------

TEST(ShardedCampaign, ReportByteIdenticalToSingleProcess)
{
    const std::string specs = freshDir("e2e-specs");
    const auto files = writeSpecs(specs, 3);

    const std::string ref_dir = freshDir("e2e-ref");
    ASSERT_TRUE(runCli(campaignArgs(ref_dir, files)).exitedOk());

    std::vector<std::string> args = campaignArgs(
        freshDir("e2e-sharded"), files);
    const std::string shard_dir = args[1];
    args.push_back("--shards");
    args.push_back("3");
    ASSERT_TRUE(runCli(args).exitedOk());

    const std::string ref = readFile(ref_dir + "/report.json");
    EXPECT_FALSE(ref.empty());
    EXPECT_EQ(readFile(shard_dir + "/report.json"), ref);
}

class CrashContainment
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CrashContainment, WorkerDeathMidRunIsRecoveredByteIdentical)
{
    const std::string mode = GetParam();
    const std::string specs = freshDir("crash-specs-" + mode);
    const auto files = writeSpecs(specs, 3);

    const std::string ref_dir = freshDir("crash-ref-" + mode);
    ASSERT_TRUE(runCli(campaignArgs(ref_dir, files)).exitedOk());

    // Crash a worker at the worst point of one mid-matrix job:
    // after its work, before the record is durable.
    const std::vector<SimJob> matrix = cliMatrix(files);
    const std::uint64_t crash_key = campaignJobKey(matrix[2]);

    std::vector<std::string> args = campaignArgs(
        freshDir("crash-run-" + mode), files);
    const std::string dir = args[1];
    args.insert(args.end(), {"--shards", "2"});
    std::string out;
    const ExitStatus st = runCli(
        args,
        {csprintf("POWERCHOP_TEST_CRASH_KEY=%016llx",
                  static_cast<unsigned long long>(crash_key)),
         "POWERCHOP_TEST_CRASH_MODE=" + mode},
        &out);
    EXPECT_TRUE(st.exitedOk()) << st.describe() << "\n" << out;

    // The injection actually fired (the crash-once marker exists)...
    EXPECT_TRUE(std::filesystem::exists(
        csprintf("%s/.crash-fired-%016llx", dir.c_str(),
                 static_cast<unsigned long long>(crash_key))));
    // ...and the merged report is still byte-identical.
    EXPECT_EQ(readFile(dir + "/report.json"),
              readFile(ref_dir + "/report.json"));
    // The supervision tallies surface in the campaign summary.
    EXPECT_NE(out.find("worker crashes"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(Signals, CrashContainment,
                         ::testing::Values("segv", "kill"));

TEST(ShardedCampaign, KilledWorkerSurfacesInStatusAndFlightLog)
{
    // A SIGKILLed worker cannot dump anything itself; the supervisor
    // must (a) force a statusboard snapshot recording the restart —
    // so `powerchop status` reflects it within one cadence interval
    // rather than at the next timer tick — and (b) dump its own
    // flight ring with the worker-crash event.
    const std::string specs = freshDir("obs-specs");
    const auto files = writeSpecs(specs, 3);
    const std::vector<SimJob> matrix = cliMatrix(files);
    const std::uint64_t crash_key = campaignJobKey(matrix[2]);

    std::vector<std::string> args =
        campaignArgs(freshDir("obs-run"), files);
    const std::string dir = args[1];
    args.insert(args.end(), {"--shards", "2"});
    const ExitStatus st = runCli(
        args,
        {csprintf("POWERCHOP_TEST_CRASH_KEY=%016llx",
                  static_cast<unsigned long long>(crash_key)),
         "POWERCHOP_TEST_CRASH_MODE=kill"});
    ASSERT_TRUE(st.exitedOk()) << st.describe();

    // The statusboard (default-on) recorded the restart.
    StatusSnapshot snap;
    ASSERT_TRUE(StatusSnapshot::fromJson(
        readFile(campaignStatusPath(dir)), snap));
    EXPECT_EQ(snap.role, "supervisor");
    EXPECT_TRUE(snap.finished);
    EXPECT_GE(snap.restarts, 1u);
    EXPECT_EQ(snap.jobsDone, matrix.size());
    EXPECT_GE(snap.restartBackoffMs.samples, 1u);
    bool shard_restarted = false;
    for (const auto &sh : snap.shards)
        shard_restarted |= sh.restarts >= 1;
    EXPECT_TRUE(shard_restarted);

    // The supervisor's flight log exists, every line parses, and the
    // crash and restart moments are in it.
    const std::string flight = readFile(dir + "/flight.jsonl");
    ASSERT_FALSE(flight.empty());
    std::set<std::string> types;
    std::istringstream lines(flight);
    std::string line;
    while (std::getline(lines, line)) {
        json::Value v;
        ASSERT_TRUE(json::parse(line, v)) << line;
        types.insert(v.getString("type"));
    }
    EXPECT_TRUE(types.count("worker-crash")) << flight;
    EXPECT_TRUE(types.count("restart")) << flight;
    EXPECT_TRUE(types.count("worker-spawn")) << flight;
}

TEST(ShardedCampaign, ObservabilityOptOutLeavesNoSideFiles)
{
    const std::string specs = freshDir("optout-specs");
    const auto files = writeSpecs(specs, 2);
    std::vector<std::string> args =
        campaignArgs(freshDir("optout-run"), files);
    const std::string dir = args[1];
    args.insert(args.end(), {"--shards", "2"});
    ASSERT_TRUE(runCli(args, {"POWERCHOP_NO_STATUS=1",
                              "POWERCHOP_NO_FLIGHT=1"})
                    .exitedOk());
    EXPECT_FALSE(std::filesystem::exists(statusDirPath(dir)));
    EXPECT_FALSE(std::filesystem::exists(dir + "/flight.jsonl"));
}

TEST(ShardedCampaign, ResumeCompletesPartialShardJournals)
{
    // Simulate a supervisor killed mid-campaign: only part of one
    // shard's journal exists; --resume must finish the rest and
    // still merge byte-identically.
    const std::string specs = freshDir("resume-specs");
    const auto files = writeSpecs(specs, 3);

    const std::string ref_dir = freshDir("resume-ref");
    ASSERT_TRUE(runCli(campaignArgs(ref_dir, files)).exitedOk());

    const std::string dir = freshDir("resume-run");
    makeCampaignDirs(dir);
    {
        // Pre-complete two jobs of shard 0's key range by running
        // them through the worker loop directly.
        const std::vector<SimJob> matrix = cliMatrix(files);
        std::vector<std::uint64_t> keys;
        for (const auto &job : matrix)
            keys.push_back(campaignJobKey(job));
        const auto parts = partitionByKeyRange(keys, 2);
        ASSERT_GE(parts[0].size(), 2u);
        std::vector<SimJob> head = {matrix[parts[0][0]],
                                    matrix[parts[0][1]]};
        SimJobRunner runner(1);
        const CampaignResult res = runCampaignShard(
            runner, head, shardJournalPath(dir, 0), {});
        ASSERT_TRUE(res.complete());
    }

    std::vector<std::string> args = campaignArgs(dir, files);
    args.insert(args.end(), {"--shards", "2", "--resume"});
    std::string out;
    ASSERT_TRUE(runCli(args, {}, &out).exitedOk()) << out;
    EXPECT_NE(out.find("2 replayed"), std::string::npos) << out;
    EXPECT_EQ(readFile(dir + "/report.json"),
              readFile(ref_dir + "/report.json"));
}

TEST(ShardedCampaign, DirtyDirectoryRefusedAcrossLayouts)
{
    const std::string specs = freshDir("dirty-specs");
    const auto files = writeSpecs(specs, 1);

    // A completed sharded campaign cannot be rerun without --resume.
    std::vector<std::string> args =
        campaignArgs(freshDir("dirty-sharded"), files);
    const std::string dir = args[1];
    args.insert(args.end(), {"--shards", "2"});
    ASSERT_TRUE(runCli(args).exitedOk());
    const ExitStatus again = runCli(args);
    EXPECT_EQ(again.kind, ExitStatus::Kind::Exited);
    EXPECT_NE(again.exitCode, 0);

    // A single-process campaign directory cannot be continued with
    // --shards: the two journal layouts must never mix.
    const std::string sp_dir = freshDir("dirty-single");
    ASSERT_TRUE(runCli(campaignArgs(sp_dir, files)).exitedOk());
    std::vector<std::string> mixed = campaignArgs(sp_dir, files);
    mixed.insert(mixed.end(), {"--shards", "2", "--resume"});
    const ExitStatus st = runCli(mixed);
    EXPECT_EQ(st.kind, ExitStatus::Kind::Exited);
    EXPECT_NE(st.exitCode, 0);
}

// ---------------------------------------------------------------------
// A sharded run follows the single-process campaign's rules
// ---------------------------------------------------------------------

/** A campaign of perlbench and namd on both machines in all five
 *  modes (20 jobs of 2M instructions) whose jobs all outlive
 *  `timeoutSeconds`. */
std::vector<std::string>
timedOutArgs(const std::string &dir, const char *timeoutSeconds)
{
    return {"campaign", dir, "--workloads", "perlbench,namd",
            "--insns", "2000000", "--timeout-seconds", timeoutSeconds};
}

/** A report's first line: its "campaign" counts. The error texts
 *  after it carry a timing-dependent instruction count. */
std::string
countsLine(const std::string &dir)
{
    const std::string report = readFile(dir + "/report.json");
    return report.substr(0, report.find('\n'));
}

TEST(ShardedCampaign, WorkersGetTheJobTimeoutExactly)
{
    // 0.0004 s must reach the workers as written: rounded to 0 it
    // would switch their watchdog off and every job would finish.
    const std::string ref = freshDir("timeout-ref");
    EXPECT_EQ(runCli(timedOutArgs(ref, "0.0004")).describe(), "exit 1");
    EXPECT_EQ(countsLine(ref),
              "{\"campaign\":{\"jobs\":20,\"ok\":0,\"failed\":0,"
              "\"timed_out\":20,\"resumable\":0},");

    std::vector<std::string> args =
        timedOutArgs(freshDir("timeout-sharded"), "0.0004");
    args.insert(args.end(), {"--shards", "2"});
    EXPECT_EQ(runCli(args).describe(), "exit 1");
    EXPECT_EQ(countsLine(args[1]), countsLine(ref));
}

TEST(ShardedCampaign, PermanentFailuresExitOneAndRerunOnResume)
{
    // Jobs that time out for good are permanent failures, as in one
    // process: exit 1 with nothing to resume, and --resume reruns
    // them, since only an ok record satisfies a job.
    std::vector<std::string> args =
        timedOutArgs(freshDir("failed-sharded"), "0.001");
    args.insert(args.end(), {"--shards", "2"});
    std::string out;
    EXPECT_EQ(runCli(args, {}, &out).describe(), "exit 1") << out;
    EXPECT_EQ(out.find("[interrupted"), std::string::npos) << out;

    args.push_back("--resume");
    EXPECT_EQ(runCli(args, {}, &out).describe(), "exit 1") << out;
    EXPECT_NE(out.find("20 jobs: 0 replayed from journal, 20 executed"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("[interrupted"), std::string::npos) << out;
}

TEST(ShardedCampaign, CountsEveryJobOnce)
{
    // Resuming a complete run replays every job: the supervisor's
    // snapshot counts them as ok, so done = ok + failed holds.
    const std::string specs = freshDir("counts-specs");
    const auto files = writeSpecs(specs, 3);
    std::vector<std::string> args =
        campaignArgs(freshDir("counts-run"), files);
    const std::string dir = args[1];
    args.insert(args.end(), {"--shards", "2"});
    ASSERT_TRUE(runCli(args).exitedOk());
    args.push_back("--resume");
    ASSERT_TRUE(runCli(args).exitedOk());
    StatusSnapshot snap;
    ASSERT_TRUE(StatusSnapshot::fromJson(
        readFile(campaignStatusPath(dir)), snap));
    EXPECT_EQ(snap.jobsDone, 6u);
    EXPECT_EQ(snap.jobsOk, 6u);
    EXPECT_EQ(snap.jobsFailed, 0u);

    // The BENCH entry tallies the report's columns, so an all-timed-
    // out run's entry says so and its tallies sum to the job count.
    const std::string bench_dir = freshDir("counts-bench");
    makeCampaignDirs(bench_dir);
    const std::string bench = bench_dir + "/BENCH_runner.json";
    std::vector<std::string> timed_out =
        timedOutArgs(freshDir("counts-timed-out"), "0.0004");
    timed_out.insert(timed_out.end(), {"--shards", "2"});
    EXPECT_EQ(
        runCli(timed_out, {"POWERCHOP_RUNNER_JSON=" + bench}).describe(),
        "exit 1");
    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(bench), doc));
    ASSERT_TRUE(doc.isArray() && !doc.elements().empty());
    const json::Value &entry = doc.elements().back();
    EXPECT_EQ(entry.getString("bench"), "campaign-shards");
    EXPECT_EQ(entry.getUint64("jobs"), 20u);
    EXPECT_EQ(entry.getUint64("timed_out_jobs"), 20u);
    EXPECT_EQ(entry.getUint64("ok_jobs") + entry.getUint64("failed_jobs") +
                  entry.getUint64("timed_out_jobs") +
                  entry.getUint64("skipped_jobs") +
                  entry.getUint64("interrupted_jobs"),
              20u);
}

/** perlbench and namd on the server in all five modes: 10 jobs of
 *  200K instructions over `shards` workers. */
std::vector<std::string>
tenJobArgs(const std::string &dir, const char *shards)
{
    return {"campaign", dir, "--workloads", "perlbench,namd",
            "--machine", "server", "--insns", "200000",
            "--shards", shards};
}

TEST(ShardedCampaign, ResumeWithAnotherShardCountReplaysEveryOkJob)
{
    // Three shards cut the key range where two did not, so most ok
    // records sit in the journal of another shard than the job's.
    const std::string dir = freshDir("reshard");
    ASSERT_TRUE(runCli(tenJobArgs(dir, "2")).exitedOk());
    const std::string report = readFile(dir + "/report.json");

    std::vector<std::string> args = tenJobArgs(dir, "3");
    args.push_back("--resume");
    std::string out;
    EXPECT_EQ(runCli(args, {}, &out).describe(), "exit 0") << out;
    EXPECT_NE(out.find("10 jobs: 10 replayed from journal, 0 executed"),
              std::string::npos)
        << out;
    EXPECT_EQ(readFile(dir + "/report.json"), report);
}

TEST(ShardedCampaign, BenchEntryCountsTheWorkOfThisRun)
{
    // busy_seconds is the workers' CPU time and instructions the
    // budgets of the jobs that finished ok in this run, so a resume
    // that replays every job simulated nothing.
    const std::string bench_dir = freshDir("work-bench");
    makeCampaignDirs(bench_dir);
    const std::string bench = bench_dir + "/BENCH_runner.json";
    const std::vector<std::string> env = {"POWERCHOP_RUNNER_JSON=" +
                                          bench};
    const auto lastEntry = [&] {
        json::Value doc;
        EXPECT_TRUE(json::parse(readFile(bench), doc));
        EXPECT_TRUE(doc.isArray() && !doc.elements().empty());
        return doc.elements().back();
    };

    std::vector<std::string> args = tenJobArgs(freshDir("work"), "2");
    ASSERT_TRUE(runCli(args, env).exitedOk());
    const json::Value run = lastEntry();
    EXPECT_EQ(run.getString("bench"), "campaign-shards");
    EXPECT_EQ(run.getUint64("jobs"), 10u);
    EXPECT_EQ(run.getUint64("instructions"), 2'000'000u);
    EXPECT_GT(run.getDouble("busy_seconds"), 0.0);
    EXPECT_GT(run.getDouble("mips"), 0.0);
    EXPECT_GT(run.getDouble("speedup"), 0.0);

    args.push_back("--resume");
    ASSERT_TRUE(runCli(args, env).exitedOk());
    EXPECT_EQ(lastEntry().getUint64("instructions"), 0u);
}

TEST(ShardedCampaign, WorkerRebuildsMatrixFromForwardedFlags)
{
    // The worker derives content keys from the forwarded matrix
    // flags; a worker handed a key its matrix cannot produce must
    // die loudly instead of stalling the campaign. Exercised by
    // running campaign-worker directly with a bogus key.
    const std::string specs = freshDir("worker-specs");
    const auto files = writeSpecs(specs, 1);
    const std::string dir = freshDir("worker-dir");
    makeCampaignDirs(dir);

    SpawnOptions opts;
    opts.argv = {POWERCHOP_CLI_PATH, "campaign-worker", dir,
                 "--workloads", csv(files),
                 "--machine", "server",
                 "--modes", "full-power,powerchop",
                 "--insns", std::to_string(kInsns),
                 "--journal", shardJournalPath(dir, 0)};
    Subprocess p;
    p.spawn(opts);
    p.writeStdin("00000000deadbeef\n");
    p.closeStdin();
    const ExitStatus st = p.wait(60.0);
    EXPECT_EQ(st.kind, ExitStatus::Kind::Exited);
    EXPECT_NE(st.exitCode, 0);

    // With real keys the same invocation completes and journals.
    const std::vector<SimJob> matrix = cliMatrix(files);
    Subprocess ok;
    ok.spawn(opts);
    std::string feed;
    for (const auto &job : matrix) {
        feed += csprintf("%016llx\n",
                         static_cast<unsigned long long>(
                             campaignJobKey(job)));
    }
    ok.writeStdin(feed);
    ok.closeStdin();
    std::string out;
    EXPECT_TRUE(ok.wait(300.0, &out).exitedOk()) << out;
    EXPECT_NE(out.find(csprintf("ready %zu", matrix.size())),
              std::string::npos);
    EXPECT_EQ(loadJournal(shardJournalPath(dir, 0)).records.size(),
              matrix.size());
}

} // namespace
