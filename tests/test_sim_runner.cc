/**
 * @file
 * Tests for the parallel simulation job runner: determinism across
 * worker counts (bit-identical results), stress with more jobs than
 * workers, edge cases, batch comparison helpers, exception
 * propagation, and the environment-override parsers.
 */

#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/sim_runner.hh"
#include "workload/suites.hh"
#include "timing.hh"

using namespace powerchop;

namespace
{

WorkloadSpec
smallWorkload(unsigned seed = 5)
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

/** A mixed job set covering modes, machines and seeds. */
std::vector<SimJob>
mixedJobs(InsnCount insns = 120'000)
{
    const SimMode modes[] = {SimMode::FullPower, SimMode::PowerChop,
                             SimMode::MinPower, SimMode::TimeoutVpu,
                             SimMode::DrowsyMlc};
    std::vector<SimJob> jobs;
    for (unsigned seed = 1; seed <= 2; ++seed) {
        for (SimMode mode : modes) {
            SimJob job;
            job.machine =
                seed % 2 ? serverConfig() : mobileConfig();
            job.workload = smallWorkload(seed);
            job.opts.mode = mode;
            job.opts.maxInstructions = insns;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Full-fidelity equality via the JSON rendering plus the raw cycle
 *  count; both must match bit-for-bit. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.energy.totalEnergy(), b.energy.totalEnergy());
}

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

} // namespace

// --- determinism -------------------------------------------------------------

TEST(SimJobRunner, ParallelBitIdenticalToSerial)
{
    const std::vector<SimJob> jobs = mixedJobs();

    // Ground truth: direct serial simulate() calls.
    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(
            simulate(job.machine, job.workload, job.opts));

    SimJobRunner one(1);
    SimJobRunner four(4);
    std::vector<SimResult> r1 = one.run(jobs);
    std::vector<SimResult> r4 = four.run(jobs);

    ASSERT_EQ(r1.size(), jobs.size());
    ASSERT_EQ(r4.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(serial[i], r1[i]);
        expectIdentical(serial[i], r4[i]);
    }
}

TEST(SimJobRunner, RepeatedRunsAreDeterministic)
{
    const std::vector<SimJob> jobs = mixedJobs(80'000);
    SimJobRunner runner(4);
    std::vector<SimResult> a = runner.run(jobs);
    std::vector<SimResult> b = runner.run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(a[i], b[i]);
}

// --- load shapes -------------------------------------------------------------

TEST(SimJobRunner, StressMoreJobsThanWorkers)
{
    std::vector<SimJob> jobs;
    for (unsigned i = 0; i < 24; ++i) {
        SimJob job;
        job.machine = serverConfig();
        job.workload = smallWorkload(i + 1);
        job.opts.mode =
            i % 2 ? SimMode::PowerChop : SimMode::FullPower;
        job.opts.maxInstructions = 40'000;
        jobs.push_back(std::move(job));
    }

    SimJobRunner runner(3);
    std::vector<SimResult> results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        // Submission order is preserved: result i belongs to job i.
        EXPECT_EQ(results[i].workload, jobs[i].workload.name);
        EXPECT_EQ(results[i].mode, jobs[i].opts.mode);
        EXPECT_EQ(results[i].instructions, 40'000u);
        EXPECT_GT(results[i].cycles, 0.0);
    }
    EXPECT_EQ(runner.report().jobs, jobs.size());
    EXPECT_GE(runner.report().instructions, 24u * 40'000u);
}

TEST(SimJobRunner, ZeroJobs)
{
    SimJobRunner runner(2);
    EXPECT_TRUE(runner.run({}).empty());
    EXPECT_EQ(runner.report().jobs, 0u);
}

TEST(SimJobRunner, SingleJob)
{
    SimJob job;
    job.machine = serverConfig();
    job.workload = smallWorkload();
    job.opts.mode = SimMode::PowerChop;
    job.opts.maxInstructions = 100'000;

    SimJobRunner runner(4);
    std::vector<SimResult> results = runner.run({job});
    ASSERT_EQ(results.size(), 1u);
    expectIdentical(results[0],
                    simulate(job.machine, job.workload, job.opts));
}

TEST(SimJobRunner, GenericTasksRunExactlyOnce)
{
    SimJobRunner runner(4);
    std::vector<int> counts(57, 0);
    runner.runTasks(counts.size(),
                    [&](std::size_t i) { ++counts[i]; });
    for (int c : counts)
        EXPECT_EQ(c, 1);
}

TEST(SimJobRunner, JobExceptionsPropagate)
{
    SimJob bad;
    bad.machine = serverConfig();
    bad.workload = smallWorkload();
    bad.opts.maxInstructions = 0;  // simulate() rejects this

    SimJob good = bad;
    good.opts.maxInstructions = 30'000;

    SimJobRunner runner(2);
    EXPECT_THROW(runner.run({good, bad, good}), FatalError);
    // The runner survives a failed batch.
    EXPECT_EQ(runner.run({good}).size(), 1u);
}

TEST(SimJobRunner, RobustBatchesDoNotWaitOutTheWatchdog)
{
    // A batch with a cancel flag runs a watchdog that it joins on the
    // way out; the join must cost a wake-up, not the rest of the
    // watchdog's 10ms poll. Bound: the median batch takes under 5ms
    // (50 batches in 250ms) more than a direct simulate() of its job,
    // so slow sanitizer builds pass too.
    SimJob job;
    job.machine = serverConfig();
    job.workload = smallWorkload();
    job.opts.maxInstructions = 1'000;
    const std::vector<SimJob> jobs = {job};
    std::atomic<bool> cancel{false};
    RobustRunOptions opts;
    opts.cancelFlag = &cancel;
    constexpr int kBatches = 50;

    const double direct = medianSeconds(kBatches, [&](int) {
        simulate(job.machine, job.workload, job.opts);
    });
    SimJobRunner runner(1);
    const double batch = medianSeconds(kBatches, [&](int) {
        EXPECT_TRUE(runner.runRobust(jobs, opts).allOk());
    });
    EXPECT_LT(batch - direct, 0.005);
}

// --- batch comparison helpers ------------------------------------------------

TEST(ExperimentBatch, PairBatchMatchesSerialPair)
{
    std::vector<ComparisonPoint> points = {
        {serverConfig(), smallWorkload(1)},
        {mobileConfig(), smallWorkload(2)},
    };

    SimJobRunner runner(4);
    std::vector<ComparisonRuns> batch =
        runPairBatch(points, 60'000, runner);
    ASSERT_EQ(batch.size(), points.size());

    for (std::size_t i = 0; i < points.size(); ++i) {
        ComparisonRuns serial =
            runPair(points[i].machine, points[i].workload, 60'000);
        expectIdentical(serial.fullPower, batch[i].fullPower);
        expectIdentical(serial.powerChop, batch[i].powerChop);
    }
}

TEST(ExperimentBatch, ComparisonBatchIncludesMinPower)
{
    std::vector<ComparisonPoint> points = {
        {serverConfig(), smallWorkload(3)}};

    SimJobRunner runner(3);
    std::vector<ComparisonRuns> batch =
        runComparisonBatch(points, 60'000, runner);
    ASSERT_EQ(batch.size(), 1u);

    ComparisonRuns serial =
        runComparison(points[0].machine, points[0].workload, 60'000);
    expectIdentical(serial.fullPower, batch[0].fullPower);
    expectIdentical(serial.powerChop, batch[0].powerChop);
    expectIdentical(serial.minPower, batch[0].minPower);
}

// --- throughput report -------------------------------------------------------

TEST(RunnerReport, AccumulatesAcrossBatches)
{
    SimJob job;
    job.machine = serverConfig();
    job.workload = smallWorkload();
    job.opts.maxInstructions = 50'000;

    SimJobRunner runner(2);
    runner.run({job, job});
    runner.run({job});

    const RunnerReport &rep = runner.report();
    EXPECT_EQ(rep.jobs, 3u);
    EXPECT_EQ(rep.threads, 2u);
    EXPECT_GE(rep.instructions, 150'000u);
    EXPECT_GT(rep.wallSeconds, 0.0);
    EXPECT_GT(rep.busySeconds, 0.0);
    EXPECT_GT(rep.mips(), 0.0);
    EXPECT_GT(rep.jobsPerSecond(), 0.0);

    std::string json = rep.toJson("unit-test");
    EXPECT_NE(json.find("\"bench\":\"unit-test\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\":3"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
}

// --- environment overrides ---------------------------------------------------

TEST(InsnBudget, AcceptsPlainNumbers)
{
    ScopedEnv env("POWERCHOP_INSNS", "123456");
    EXPECT_EQ(insnBudget(42), 123456u);
}

TEST(InsnBudget, DefaultsWhenUnset)
{
    ScopedEnv env("POWERCHOP_INSNS", nullptr);
    EXPECT_EQ(insnBudget(42), 42u);
}

TEST(InsnBudget, RejectsTrailingJunk)
{
    setQuiet(true);
    ScopedEnv env("POWERCHOP_INSNS", "10M");
    EXPECT_EQ(insnBudget(42), 42u);
    setQuiet(false);
}

TEST(InsnBudget, RejectsOverflow)
{
    setQuiet(true);
    // Saturates strtoull (sets ERANGE); previously accepted as
    // ULLONG_MAX.
    ScopedEnv env("POWERCHOP_INSNS", "99999999999999999999999999");
    EXPECT_EQ(insnBudget(42), 42u);
    setQuiet(false);
}

TEST(InsnBudget, RejectsZeroAndGarbage)
{
    setQuiet(true);
    {
        ScopedEnv env("POWERCHOP_INSNS", "0");
        EXPECT_EQ(insnBudget(42), 42u);
    }
    {
        ScopedEnv env("POWERCHOP_INSNS", "banana");
        EXPECT_EQ(insnBudget(42), 42u);
    }
    {
        ScopedEnv env("POWERCHOP_INSNS", "-5");
        EXPECT_EQ(insnBudget(42), 42u);
    }
    setQuiet(false);
}

TEST(DefaultJobCount, HonorsEnvironment)
{
    {
        ScopedEnv env("POWERCHOP_JOBS", "3");
        EXPECT_EQ(defaultJobCount(), 3u);
    }
    setQuiet(true);
    {
        // Invalid values fall back to the hardware concurrency.
        ScopedEnv env("POWERCHOP_JOBS", "zero");
        EXPECT_GE(defaultJobCount(), 1u);
    }
    {
        ScopedEnv env("POWERCHOP_JOBS", "0");
        EXPECT_GE(defaultJobCount(), 1u);
    }
    setQuiet(false);

    ScopedEnv env("POWERCHOP_JOBS", "2");
    SimJobRunner runner;
    EXPECT_EQ(runner.threads(), 2u);
}
