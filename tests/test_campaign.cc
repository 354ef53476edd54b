/**
 * @file
 * Tests for the durability layer: crash-safe atomic file writes, the
 * write-ahead result journal (torn/corrupt/duplicate recovery), job
 * content keys, deterministic retry backoff, the logging flush-hook
 * registry, campaign run/interrupt/resume with bit-identical
 * merged reports, the status counts of both entries to the journaled
 * job loop, and the journal's error payloads.
 */

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <gtest/gtest.h>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "sim/campaign.hh"
#include "sim/sim_runner.hh"
#include "sim/simulator.hh"
#include "sim/statusboard.hh"
#include "workload/suites.hh"
#include "timing.hh"

using namespace powerchop;

namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "powerchop_campaign_" +
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

void
writeRaw(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << content;
}

WorkloadSpec
smallWorkload(unsigned seed)
{
    WorkloadSpec w;
    w.name = "small-" + std::to_string(seed);
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

SimJob
smallJob(unsigned seed, SimMode mode = SimMode::PowerChop)
{
    SimJob job;
    job.workload = smallWorkload(seed);
    job.machine = serverConfig();
    job.opts.mode = mode;
    job.opts.maxInstructions = 30'000;
    return job;
}

std::vector<SimJob>
smallMatrix(std::size_t n)
{
    std::vector<SimJob> jobs;
    for (std::size_t i = 0; i < n; ++i)
        jobs.push_back(smallJob(static_cast<unsigned>(i + 1)));
    return jobs;
}

// ---------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------

TEST(AtomicFile, WriteReadBackAndReplace)
{
    const std::string dir = freshDir("atomic");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/out.txt";

    atomicWriteFile(path, "first\n");
    EXPECT_EQ(readFile(path), "first\n");

    atomicWriteFile(path, "second version\n");
    EXPECT_EQ(readFile(path), "second version\n");

    // No temp droppings survive a successful replace.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string(), "out.txt");
}

TEST(AtomicFile, ErrorsAreTypedOrReported)
{
    const std::string bad = freshDir("missing") + "/nodir/out.txt";
    EXPECT_THROW(atomicWriteFile(bad, "x"), IoError);
    EXPECT_FALSE(atomicWriteFileOk(bad, "x"));
}

// ---------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------

TEST(Journal, Crc32MatchesKnownVectors)
{
    // The classic CRC-32 (IEEE 802.3) check value.
    EXPECT_EQ(journalCrc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(journalCrc32(""), 0u);
}

TEST(Journal, LineRoundTripsAndRejectsTampering)
{
    JournalRecord rec;
    rec.key = 0x0123456789abcdefull;
    rec.status = "ok";
    rec.payload = "{\"cycles\":123}";
    const std::string line = formatJournalLine(rec);

    JournalRecord parsed;
    ASSERT_TRUE(parseJournalLine(line, parsed));
    EXPECT_EQ(parsed.key, rec.key);
    EXPECT_EQ(parsed.status, "ok");
    EXPECT_EQ(parsed.payload, rec.payload);

    // Any flipped payload byte fails the checksum.
    std::string tampered = line;
    tampered[line.size() - 3] ^= 0x01;
    EXPECT_FALSE(parseJournalLine(tampered, parsed));

    // A torn prefix is rejected too.
    EXPECT_FALSE(parseJournalLine(line.substr(0, line.size() / 2),
                                  parsed));
}

TEST(Journal, OpenFailureIsIoErrorNotEmptyReplay)
{
    // A journal that cannot be opened must fail loudly: --resume
    // pointed at a wrong directory would otherwise silently rerun
    // the whole campaign.
    EXPECT_THROW(
        loadJournal(freshDir("nojournal") + "/journal.jsonl"),
        IoError);
}

TEST(Journal, LoadIfPresentTreatsOnlyMissingAsEmpty)
{
    // Missing file: the explicit "fresh campaign" entry point.
    const JournalReplay replay = loadJournalIfPresent(
        freshDir("nojournal2") + "/journal.jsonl");
    EXPECT_TRUE(replay.records.empty());
    EXPECT_EQ(replay.lines, 0u);
    EXPECT_EQ(replay.corrupted, 0u);
    EXPECT_EQ(replay.truncated, 0u);

    // Any other open failure still throws: a directory in place of
    // the journal is not a fresh campaign.
    const std::string dir = freshDir("nojournal3");
    std::filesystem::create_directories(dir + "/journal.jsonl");
    EXPECT_THROW(loadJournalIfPresent(dir + "/journal.jsonl"),
                 IoError);
}

TEST(Journal, WriterAppendsDurablyAndLoadsInOrder)
{
    const std::string dir = freshDir("writer");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        JournalWriter writer(path);
        for (std::uint64_t k = 1; k <= 3; ++k)
            writer.append({k, "ok", csprintf("{\"v\":%llu}",
                                             (unsigned long long)k)});
        EXPECT_EQ(writer.appended(), 3u);
    }
    const JournalReplay replay = loadJournal(path);
    EXPECT_EQ(replay.lines, 3u);
    ASSERT_EQ(replay.records.size(), 3u);
    for (std::uint64_t k = 1; k <= 3; ++k)
        EXPECT_EQ(replay.records[k - 1].key, k);
}

TEST(Journal, CorruptedInteriorLineIsSkippedWithWarning)
{
    const std::string dir = freshDir("corrupt");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        JournalWriter writer(path);
        writer.append({1, "ok", "{\"v\":1}"});
        writer.append({2, "ok", "{\"v\":2}"});
        writer.append({3, "ok", "{\"v\":3}"});
    }
    // Flip one byte inside the middle line's payload.
    std::string text = readFile(path);
    const std::size_t first_nl = text.find('\n');
    const std::size_t second_nl = text.find('\n', first_nl + 1);
    text[second_nl - 3] ^= 0x01;
    writeRaw(path, text);

    const JournalReplay replay = loadJournal(path);
    EXPECT_EQ(replay.corrupted, 1u);
    ASSERT_EQ(replay.records.size(), 2u);
    EXPECT_NE(replay.find(1), JournalReplay::npos);
    EXPECT_EQ(replay.find(2), JournalReplay::npos);
    EXPECT_NE(replay.find(3), JournalReplay::npos);
}

TEST(Journal, TruncatedFinalLineIsRecoveredSilently)
{
    const std::string dir = freshDir("torn");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        JournalWriter writer(path);
        writer.append({1, "ok", "{\"v\":1}"});
        writer.append({2, "ok", "{\"v\":2}"});
    }
    // Simulate a SIGKILL mid-append: half a record, no newline.
    const std::string full = readFile(path);
    const std::string torn =
        formatJournalLine({3, "ok", "{\"v\":3}"});
    writeRaw(path, full + torn.substr(0, torn.size() / 2));

    const JournalReplay replay = loadJournal(path);
    EXPECT_EQ(replay.truncated, 1u);
    EXPECT_EQ(replay.corrupted, 0u);
    ASSERT_EQ(replay.records.size(), 2u);
    EXPECT_EQ(replay.find(3), JournalReplay::npos);
}

TEST(Journal, RecordAppendedOntoATornOneIsKept)
{
    // A SIGKILL mid-append leaves a torn record without its newline,
    // and the resumed run appends its next record right after it.
    // That record loads; only the torn bytes are lost.
    const std::string dir = freshDir("torn-append");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    const std::string torn = formatJournalLine({3, "ok", "{\"v\":3}"});
    writeRaw(path, formatJournalLine({1, "ok", "{\"v\":1}"}) + "\n" +
                       torn.substr(0, torn.size() / 2));
    {
        JournalWriter writer(path);
        writer.append({3, "ok", "{\"v\":3}"});
        writer.append({4, "ok", "{\"v\":4}"});
    }

    const JournalReplay replay = loadJournal(path);
    EXPECT_EQ(replay.corrupted, 0u);
    EXPECT_EQ(replay.truncated, 1u);
    ASSERT_EQ(replay.records.size(), 3u);
    EXPECT_NE(replay.find(3), JournalReplay::npos);
    EXPECT_NE(replay.find(4), JournalReplay::npos);

    std::uint64_t offset = 0;
    EXPECT_EQ(readJournalFrom(path, offset).size(), 3u);
}

TEST(Journal, TailReaderReadsCompleteLinesOnce)
{
    const std::string dir = freshDir("tail");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    std::uint64_t offset = 0;
    EXPECT_TRUE(readJournalFrom(path, offset).empty()); // not created
    EXPECT_EQ(offset, 0u);

    const std::string head = formatJournalLine({1, "ok", "{}"}) + "\n" +
                             formatJournalLine({2, "failed", "{}"}) +
                             "\n";
    const std::string last = formatJournalLine({3, "ok", "{}"}) + "\n";
    writeRaw(path, head + last.substr(0, 10));
    const std::vector<JournalRecord> first = readJournalFrom(path, offset);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[1].status, "failed");
    EXPECT_EQ(offset, head.size()); // the partial line waits

    writeRaw(path, head + last);
    const std::vector<JournalRecord> rest = readJournalFrom(path, offset);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].key, 3u);
    EXPECT_EQ(offset, head.size() + last.size());
    EXPECT_TRUE(readJournalFrom(path, offset).empty());
}

TEST(Journal, DuplicateKeysResolveLastWriteWins)
{
    const std::string dir = freshDir("dup");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        JournalWriter writer(path);
        writer.append({7, "failed", "{\"error\":\"transient\"}"});
        writer.append({8, "ok", "{\"v\":8}"});
        writer.append({7, "ok", "{\"v\":7}"});
    }
    const JournalReplay replay = loadJournal(path);
    EXPECT_EQ(replay.duplicates, 1u);
    ASSERT_EQ(replay.records.size(), 2u);
    const std::size_t at = replay.find(7);
    ASSERT_NE(at, JournalReplay::npos);
    EXPECT_EQ(replay.records[at].status, "ok");
    EXPECT_EQ(replay.records[at].payload, "{\"v\":7}");
}

// ---------------------------------------------------------------------
// Deterministic retry backoff
// ---------------------------------------------------------------------

TEST(Backoff, FirstAttemptIsFree)
{
    RobustRunOptions opts;
    EXPECT_EQ(retryBackoffSeconds(opts, 0, 1), 0.0);
    EXPECT_EQ(retryBackoffSeconds(opts, 99, 1), 0.0);
}

TEST(Backoff, DeterministicBoundedAndDoubling)
{
    RobustRunOptions opts;
    opts.backoffBaseSeconds = 0.010;
    opts.backoffMaxSeconds = 0.080;
    opts.backoffJitterFraction = 0.25;
    opts.backoffSeed = 42;

    for (unsigned attempt = 2; attempt <= 8; ++attempt) {
        const double a = retryBackoffSeconds(opts, 3, attempt);
        const double b = retryBackoffSeconds(opts, 3, attempt);
        EXPECT_EQ(a, b) << "wall-clock randomness leaked in";
        const double exp_base = std::min(
            opts.backoffMaxSeconds,
            opts.backoffBaseSeconds * (1u << (attempt - 2)));
        EXPECT_GE(a, exp_base);
        EXPECT_LT(a, exp_base * (1 + opts.backoffJitterFraction));
    }

    // Different job index / seed draws different jitter.
    EXPECT_NE(retryBackoffSeconds(opts, 3, 4),
              retryBackoffSeconds(opts, 4, 4));
    RobustRunOptions other = opts;
    other.backoffSeed = 43;
    EXPECT_NE(retryBackoffSeconds(opts, 3, 4),
              retryBackoffSeconds(other, 3, 4));
}

TEST(Backoff, ZeroBaseDisablesWaiting)
{
    RobustRunOptions opts;
    opts.backoffBaseSeconds = 0;
    for (unsigned attempt = 2; attempt <= 5; ++attempt)
        EXPECT_EQ(retryBackoffSeconds(opts, 0, attempt), 0.0);
}

TEST(Backoff, RecordedInOutcomesAndReport)
{
    // A job that always fails validation, flagged transient so it
    // retries: attempts and deterministic backoff must be reported.
    SimJob bad = smallJob(1);
    bad.machine.vpu.width = 0; // validate() rejects this
    bad.transient = true;

    SimJobRunner runner(2);
    RobustRunOptions opts;
    opts.maxRetries = 2;
    opts.backoffBaseSeconds = 1e-4;
    opts.backoffMaxSeconds = 1e-3;
    const RobustBatchResult batch = runner.runRobust({bad}, opts);

    ASSERT_EQ(batch.outcomes.size(), 1u);
    EXPECT_EQ(batch.outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].attempts, 3u);
    const double expected = retryBackoffSeconds(opts, 0, 2) +
                            retryBackoffSeconds(opts, 0, 3);
    EXPECT_DOUBLE_EQ(batch.outcomes[0].backoffSeconds, expected);
    EXPECT_EQ(runner.report().retries, 2u);
    EXPECT_DOUBLE_EQ(runner.report().backoffSeconds, expected);
}

// ---------------------------------------------------------------------
// Flush hooks: exit-path hygiene
// ---------------------------------------------------------------------

TEST(FlushHooks, ArmedHookRunsExactlyOncePerArm)
{
    int runs = 0;
    const int id = registerFlushHook("test-hook", [&] { ++runs; });

    // Not armed: nothing to drain.
    EXPECT_EQ(drainFlushHooks(), 0u);
    EXPECT_EQ(runs, 0);

    armFlushHook(id);
    EXPECT_EQ(drainFlushHooks(), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(drainFlushHooks(), 0u) << "hook must disarm after draining";
    EXPECT_EQ(runs, 1);

    // fatal() drains armed hooks before throwing...
    armFlushHook(id);
    EXPECT_THROW(fatal("flush-hook test fatal"), FatalError);
    EXPECT_EQ(runs, 2);
    // ...and a second fatal cannot double-flush a disarmed hook.
    EXPECT_THROW(fatal("flush-hook test fatal 2"), FatalError);
    EXPECT_EQ(runs, 2);

    unregisterFlushHook(id);
    armFlushHook(id); // stale id: ignored
    EXPECT_EQ(drainFlushHooks(), 0u);
    EXPECT_EQ(runs, 2);
}

// ---------------------------------------------------------------------
// Campaign content keys
// ---------------------------------------------------------------------

TEST(CampaignKey, StableForIdenticalJobsSensitiveToEveryKnob)
{
    const SimJob base = smallJob(1);
    const std::uint64_t key = campaignJobKey(base);
    EXPECT_EQ(campaignJobKey(smallJob(1)), key);

    SimJob machine_changed = base;
    machine_changed.machine.vpu.width = 2;
    EXPECT_NE(campaignJobKey(machine_changed), key);

    SimJob policy_changed = base;
    policy_changed.machine.powerChop.htb.windowSize *= 2;
    EXPECT_NE(campaignJobKey(policy_changed), key);

    SimJob budget_changed = base;
    budget_changed.opts.maxInstructions += 1;
    EXPECT_NE(campaignJobKey(budget_changed), key);

    SimJob mode_changed = base;
    mode_changed.opts.mode = SimMode::MinPower;
    EXPECT_NE(campaignJobKey(mode_changed), key);

    SimJob workload_changed = base;
    workload_changed.workload.seed += 1;
    EXPECT_NE(campaignJobKey(workload_changed), key);

    // Telemetry shapes observability, never results: same key.
    SimJob telemetry_changed = base;
    telemetry_changed.machine.telemetry.maxEvents += 1000;
    EXPECT_EQ(campaignJobKey(telemetry_changed), key);
}

TEST(CampaignMatrix, UnknownMachineIsFatal)
{
    // A misspelt machine must not quietly run the mobile design point.
    const std::vector<WorkloadSpec> workloads = {findWorkload("perlbench")};
    try {
        expandCampaignMatrix(workloads, {"server", "serevr"},
                             {SimMode::FullPower}, 1000, 0);
        FAIL() << "an unknown machine expanded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'serevr'"), std::string::npos)
            << e.what();
    }
    const std::vector<SimJob> jobs = expandCampaignMatrix(
        workloads, {"server", "mobile"}, {SimMode::FullPower}, 1000, 0);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].machine.name, "server");
    EXPECT_EQ(jobs[1].machine.name, "mobile");
}

// ---------------------------------------------------------------------
// Campaign run / resume / recovery
// ---------------------------------------------------------------------

TEST(Campaign, RunThenResumeReplaysEverythingBitIdentically)
{
    const std::string dir = freshDir("resume");
    const std::vector<SimJob> jobs = smallMatrix(3);
    SimJobRunner runner(2);

    const CampaignResult first = runCampaign(runner, jobs, dir, {});
    EXPECT_TRUE(first.complete());
    EXPECT_FALSE(first.interrupted);
    EXPECT_EQ(first.executed, 3u);
    EXPECT_EQ(first.replayed, 0u);
    const std::string report = readFile(dir + "/report.json");

    CampaignOptions resume;
    resume.resume = true;
    const CampaignResult second =
        runCampaign(runner, jobs, dir, resume);
    EXPECT_TRUE(second.complete());
    EXPECT_EQ(second.executed, 0u) << "--resume must skip journaled jobs";
    EXPECT_EQ(second.replayed, 3u);
    EXPECT_EQ(readFile(dir + "/report.json"), report);
}

TEST(Campaign, DirtyDirectoryRefusedWithoutResume)
{
    const std::string dir = freshDir("dirty");
    const std::vector<SimJob> jobs = smallMatrix(1);
    SimJobRunner runner(1);
    runCampaign(runner, jobs, dir, {});
    EXPECT_THROW(runCampaign(runner, jobs, dir, {}), FatalError);
}

TEST(Campaign, ResumeWithoutJournalRefused)
{
    // --resume against a directory with no journal means the user
    // pointed at the wrong place; rerunning everything silently
    // would mask the mistake.
    const std::string dir = freshDir("resume-nothing");
    const std::vector<SimJob> jobs = smallMatrix(1);
    SimJobRunner runner(1);
    CampaignOptions resume;
    resume.resume = true;
    EXPECT_THROW(runCampaign(runner, jobs, dir, resume), FatalError);
}

TEST(Campaign, DuplicateJobsRefused)
{
    const std::string dir = freshDir("dupjobs");
    std::vector<SimJob> jobs = {smallJob(1), smallJob(1)};
    SimJobRunner runner(1);
    EXPECT_THROW(runCampaign(runner, jobs, dir, {}), FatalError);
}

TEST(Campaign, ChangedMachineConfigRejectsStaleRecords)
{
    const std::string dir = freshDir("stale");
    std::vector<SimJob> jobs = smallMatrix(2);
    SimJobRunner runner(2);
    runCampaign(runner, jobs, dir, {});

    // Every machine knob changed => every journal record is stale and
    // every job reruns; nothing silently reuses the old results.
    for (auto &job : jobs)
        job.machine.vpu.width = 2;
    CampaignOptions resume;
    resume.resume = true;
    const CampaignResult res = runCampaign(runner, jobs, dir, resume);
    EXPECT_EQ(res.staleRecords, 2u);
    EXPECT_EQ(res.replayed, 0u);
    EXPECT_EQ(res.executed, 2u);
    EXPECT_TRUE(res.complete());
}

TEST(Campaign, CorruptedJournalLineRerunsOnlyThatJob)
{
    const std::string dir = freshDir("rerun");
    const std::vector<SimJob> jobs = smallMatrix(3);
    SimJobRunner runner(2);
    runCampaign(runner, jobs, dir, {});
    const std::string report = readFile(dir + "/report.json");

    // Corrupt the middle journal record on disk.
    const std::string jpath = dir + "/journal.jsonl";
    std::string text = readFile(jpath);
    const std::size_t first_nl = text.find('\n');
    const std::size_t second_nl = text.find('\n', first_nl + 1);
    text[second_nl - 3] ^= 0x01;
    writeRaw(jpath, text);

    CampaignOptions resume;
    resume.resume = true;
    const CampaignResult res = runCampaign(runner, jobs, dir, resume);
    EXPECT_EQ(res.corruptedRecords, 1u);
    EXPECT_EQ(res.replayed, 2u);
    EXPECT_EQ(res.executed, 1u);
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(readFile(dir + "/report.json"), report)
        << "rerun of a corrupted record must converge to the same "
           "bytes (simulate() is deterministic)";
}

TEST(Campaign, InterruptSkipsRemainderAndResumeIsBitIdentical)
{
    const std::vector<SimJob> jobs = smallMatrix(4);

    // Reference: the same matrix run uninterrupted.
    const std::string ref_dir = freshDir("int_ref");
    SimJobRunner ref_runner(1);
    runCampaign(ref_runner, jobs, ref_dir, {});
    const std::string ref_report = readFile(ref_dir + "/report.json");

    // Interrupted run: one worker, flag rises after the first job
    // completes, so later jobs are skipped (resumable).
    const std::string dir = freshDir("int");
    std::atomic<bool> flag{false};
    SimJobRunner runner(1);
    CampaignOptions opts;
    opts.interruptFlag = &flag;
    opts.onJobDone = [&](std::uint64_t, const JobOutcome &, bool) {
        flag.store(true);
    };
    const CampaignResult res = runCampaign(runner, jobs, dir, opts);
    EXPECT_TRUE(res.interrupted);
    EXPECT_FALSE(res.complete());
    std::size_t resumable = 0;
    for (const auto &o : res.outcomes) {
        resumable += o.status == JobStatus::Skipped ||
                     o.status == JobStatus::Interrupted;
    }
    EXPECT_GT(resumable, 0u);

    // Resume with the flag lowered: completes and the merged report
    // is byte-identical to the uninterrupted reference.
    flag.store(false);
    CampaignOptions resume;
    resume.resume = true;
    resume.interruptFlag = &flag;
    const CampaignResult done = runCampaign(runner, jobs, dir, resume);
    EXPECT_TRUE(done.complete());
    EXPECT_FALSE(done.interrupted);
    EXPECT_GT(done.replayed, 0u);
    EXPECT_EQ(readFile(dir + "/report.json"), ref_report);
}

TEST(Campaign, PreRaisedFlagSkipsEveryJob)
{
    const std::string dir = freshDir("preflag");
    const std::vector<SimJob> jobs = smallMatrix(2);
    std::atomic<bool> flag{true};
    SimJobRunner runner(2);
    CampaignOptions opts;
    opts.interruptFlag = &flag;
    const CampaignResult res = runCampaign(runner, jobs, dir, opts);
    EXPECT_TRUE(res.interrupted);
    EXPECT_FALSE(res.complete());
    for (const auto &o : res.outcomes)
        EXPECT_EQ(o.status, JobStatus::Skipped);

    flag.store(false);
    CampaignOptions resume;
    resume.resume = true;
    resume.interruptFlag = &flag;
    EXPECT_TRUE(runCampaign(runner, jobs, dir, resume).complete());
}

/** The campaign entry (false) and the shard entry (true) share one
 *  job loop; its status counts must agree with the journal. */
class StatusCounts : public ::testing::TestWithParam<bool>
{
  protected:
    /** Run `jobs` through the entry under test with status on and
     *  return the final snapshot; `journal` gets the journal path. */
    StatusSnapshot
    run(const std::string &name, const std::vector<SimJob> &jobs,
        CampaignOptions opts, std::string &journal)
    {
        const std::string dir =
            freshDir(name + (GetParam() ? "-shard" : "-campaign"));
        SimJobRunner runner(1);
        opts.publishStatus = true;
        std::string status;
        if (GetParam()) {
            makeCampaignDirs(dir);
            journal = dir + "/shard-0000.jsonl";
            runCampaignShard(runner, jobs, journal, opts);
            status = statusDirPath(dir) + "/shard-0000.json";
        } else {
            journal = dir + "/journal.jsonl";
            runCampaign(runner, jobs, dir, opts);
            status = campaignStatusPath(dir);
        }
        StatusSnapshot snap;
        EXPECT_TRUE(StatusSnapshot::fromJson(readFile(status), snap));
        EXPECT_TRUE(snap.finished);
        EXPECT_EQ(snap.jobsTotal, jobs.size());
        EXPECT_EQ(snap.jobsDone, snap.jobsOk + snap.jobsFailed);
        return snap;
    }
};

TEST_P(StatusCounts, PreRaisedInterruptLeavesNothingDone)
{
    // Skipped jobs rerun on resume: they are neither done nor failed.
    std::atomic<bool> flag{true};
    CampaignOptions opts;
    opts.interruptFlag = &flag;
    std::string journal;
    const StatusSnapshot snap =
        run("status-preflag", smallMatrix(2), opts, journal);
    EXPECT_EQ(snap.jobsDone, 0u);
    EXPECT_EQ(snap.jobsFailed, 0u);
}

TEST_P(StatusCounts, DrainCountsOnlyJournaledJobsDone)
{
    std::atomic<bool> flag{false};
    CampaignOptions opts;
    opts.interruptFlag = &flag;
    opts.onJobDone = [&](std::uint64_t, const JobOutcome &, bool) {
        flag.store(true);
    };
    std::string journal;
    const StatusSnapshot snap =
        run("status-drain", smallMatrix(4), opts, journal);
    EXPECT_GE(snap.jobsDone, 1u);
    EXPECT_EQ(snap.jobsDone, loadJournal(journal).records.size());
    EXPECT_EQ(snap.jobsFailed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Entries, StatusCounts, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "shard" : "campaign");
    });

TEST(ErrorPayload, RoundTripsEveryErrorText)
{
    std::string controls;
    for (int c = 0x01; c < 0x20; ++c)
        controls += static_cast<char>(c);
    const std::vector<std::string> texts = {
        "",
        "plain",
        "a \"quoted\" word",
        "back\\slash",
        "line\nbreak",
        "tab\there",
        "carriage\rreturn",
        controls,
        "del\x7f",
        "utf-8: \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",
    };
    for (unsigned attempts : {0u, 1u, 7u}) {
        for (const std::string &text : texts) {
            JobOutcome outcome;
            outcome.status = JobStatus::Failed;
            outcome.error = text;
            outcome.attempts = attempts;
            const std::string payload = errorPayload(outcome);
            std::string error = "unset";
            unsigned decoded = 99;
            ASSERT_TRUE(parseErrorPayload(payload, error, decoded))
                << payload;
            EXPECT_EQ(error, text) << payload;
            EXPECT_EQ(decoded, attempts) << payload;
        }
    }
}

TEST(ErrorPayload, RejectsAnythingButAnErrorObject)
{
    // The shard merge falls back to a fixed error text for these.
    const SimJob job = smallJob(1);
    JobOutcome outcome;
    outcome.error = "boom";
    const std::string good = errorPayload(outcome);
    for (const std::string &bad :
         {simulate(job.machine, job.workload, job.opts).toJson(),
          std::string("{}"), std::string("{\"error\":1}"),
          std::string("{\"error\":\"x\",\"attempts\":-1}"),
          std::string("{\"error\":\"x\",\"attempts\":1.5}"),
          good.substr(0, good.size() - 1)}) {
        std::string error;
        unsigned attempts = 0;
        EXPECT_FALSE(parseErrorPayload(bad, error, attempts)) << bad;
    }
}

TEST(Campaign, StatusHeartbeatDoesNotDelayTheEnd)
{
    // The status heartbeat is joined at the end of every campaign: it
    // must wake on the join, not finish its 100ms sleep first. Bound:
    // a 1-job campaign with status publishing takes under 50ms more
    // (five in 250ms) than the same campaign without it, comparing
    // medians of five.
    std::atomic<bool> flag{false};
    SimJobRunner runner(1);
    const auto campaign = [&](bool publish, int i) {
        CampaignOptions opts;
        opts.interruptFlag = &flag;
        opts.publishStatus = publish;
        SimJob job = smallJob(static_cast<unsigned>(i) + 1);
        job.opts.maxInstructions = 1'000;
        const std::string dir = freshDir(csprintf(
            "heartbeat-%d-%d", publish ? 1 : 0, i));
        EXPECT_TRUE(runCampaign(runner, {job}, dir, opts).complete());
    };
    const double blind =
        medianSeconds(5, [&](int i) { campaign(false, i); });
    const double published =
        medianSeconds(5, [&](int i) { campaign(true, i); });
    EXPECT_LT(published - blind, 0.05);
}

TEST(Campaign, SignalHandlerRaisesInterruptFlag)
{
    installCampaignSignalHandlers();
    campaignInterruptFlag().store(false);
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(campaignInterruptFlag().load())
        << "SIGTERM must request a graceful drain, not kill us";
    campaignInterruptFlag().store(false);
}

} // namespace
