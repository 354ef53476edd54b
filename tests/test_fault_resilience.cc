/**
 * @file
 * Tests for the robustness subsystem: the deterministic fault
 * injector, the QoS watchdog's safe-mode rollback, machine-config
 * validation, the centralized environment parsing, and the robust
 * batch runner (error isolation, timeouts, retries) — including the
 * two bit-identity guarantees: a zero fault rate reproduces the
 * baseline exactly, and a fixed (seed, rate) configuration reproduces
 * the exact same faulted run on any worker count.
 */

#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>

#include "common/env.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "core/qos_watchdog.hh"
#include "sim/sim_runner.hh"
#include "workload/suites.hh"

using namespace powerchop;

namespace
{

WorkloadSpec
smallWorkload(unsigned seed = 7)
{
    WorkloadSpec w;
    w.name = "resil-" + std::to_string(seed);
    w.seed = seed;
    PhaseSpec compute;
    compute.name = "compute";
    compute.simdFrac = 0.2;
    PhaseSpec memory;
    memory.name = "memory";
    memory.memFrac = 0.3;
    memory.mem.workingSetBytes = 256 * 1024;
    memory.mem.hotRegionFrac = 0.8;
    memory.mem.randomFrac = 0.5;
    w.phases = {compute, memory};
    w.schedule = {{0, 60'000}, {1, 90'000}};
    return w;
}

FaultInjectorParams
allFaultsAt(double rate)
{
    FaultInjectorParams p;
    p.enabled = rate > 0;
    p.policyCorruptRate = rate;
    p.htbDropRate = rate;
    p.htbAliasRate = rate;
    p.controllerFlipRate = rate;
    p.wakeupStretchRate = rate;
    return p;
}

SimJob
faultedJob(double rate, unsigned seed = 7)
{
    SimJob job;
    job.machine = serverConfig();
    job.machine.faults = allFaultsAt(rate);
    job.machine.powerChop.qos.enabled = true;
    job.workload = smallWorkload(seed);
    job.opts.mode = SimMode::PowerChop;
    job.opts.maxInstructions = 150'000;
    return job;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.cycles, b.cycles);
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

// --- fault injector ----------------------------------------------------------

TEST(FaultInjector, DisabledInjectorIsNoOp)
{
    FaultInjector inj;  // default params: disabled
    EXPECT_FALSE(inj.active());

    const GatingPolicy policy = GatingPolicy::minPower();
    EXPECT_EQ(inj.corruptPolicy(policy), policy);
    EXPECT_FALSE(inj.dropTranslation());
    EXPECT_EQ(inj.aliasTranslation(42), 42u);
    EXPECT_EQ(inj.flipControllerState(policy), policy);
    EXPECT_EQ(inj.stretchWakeup(100.0), 100.0);
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, EnabledWithZeroRatesIsNoOp)
{
    FaultInjectorParams p;
    p.enabled = true;
    FaultInjector inj(p);
    EXPECT_TRUE(inj.active());

    const GatingPolicy policy = GatingPolicy::fullPower();
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(inj.corruptPolicy(policy), policy);
        EXPECT_FALSE(inj.dropTranslation());
        EXPECT_EQ(inj.aliasTranslation(7), 7u);
        EXPECT_EQ(inj.stretchWakeup(50.0), 50.0);
    }
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, RateOneAlwaysInjects)
{
    FaultInjectorParams p = allFaultsAt(1.0);
    p.wakeupStretchFactor = 4.0;
    FaultInjector inj(p);

    const GatingPolicy policy = GatingPolicy::fullPower();
    // A single-bit flip of a 4-bit encoding always changes the
    // decoded policy.
    EXPECT_NE(inj.corruptPolicy(policy), policy);
    EXPECT_TRUE(inj.dropTranslation());
    const TranslationId id = 42;
    const TranslationId aliased = inj.aliasTranslation(id);
    EXPECT_NE(aliased, id);
    EXPECT_NE(inj.flipControllerState(policy), policy);
    EXPECT_EQ(inj.stretchWakeup(100.0), 400.0);

    const FaultStats &s = inj.stats();
    EXPECT_EQ(s.policyCorruptions, 1u);
    EXPECT_EQ(s.htbDrops, 1u);
    EXPECT_EQ(s.htbAliases, 1u);
    EXPECT_EQ(s.controllerFlips, 1u);
    EXPECT_EQ(s.wakeupStretches, 1u);
    EXPECT_EQ(s.total(), 5u);
}

TEST(FaultInjector, ZeroStallIsNeverStretched)
{
    FaultInjectorParams p = allFaultsAt(1.0);
    FaultInjector inj(p);
    // No transition -> nothing to stretch; stats must not count one.
    EXPECT_EQ(inj.stretchWakeup(0.0), 0.0);
    EXPECT_EQ(inj.stats().wakeupStretches, 0u);
}

TEST(FaultInjector, SameSeedSameFaultSequence)
{
    const FaultInjectorParams p = allFaultsAt(0.3);
    FaultInjector a(p), b(p);
    for (int i = 0; i < 500; ++i) {
        const GatingPolicy policy = GatingPolicy::decode(i & 0xf);
        EXPECT_EQ(a.corruptPolicy(policy), b.corruptPolicy(policy));
        EXPECT_EQ(a.dropTranslation(), b.dropTranslation());
        EXPECT_EQ(a.aliasTranslation(i + 1), b.aliasTranslation(i + 1));
        EXPECT_EQ(a.stretchWakeup(i * 10.0), b.stretchWakeup(i * 10.0));
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
}

TEST(FaultInjector, ValidateNamesTheBadField)
{
    setQuiet(true);
    FaultInjectorParams p;
    p.policyCorruptRate = 1.5;
    try {
        p.validate("test");
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("policyCorruptRate"),
                  std::string::npos);
    }

    p = FaultInjectorParams{};
    p.wakeupStretchFactor = 0.5;
    try {
        p.validate("test");
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("wakeupStretchFactor"),
                  std::string::npos);
    }
    setQuiet(false);
}

// --- QoS watchdog ------------------------------------------------------------

namespace
{

QosParams
watchdogParams()
{
    QosParams p;
    p.enabled = true;
    p.slowdownThreshold = 0.05;
    p.violationWindows = 2;
    p.cooldownWindows = 4;
    p.referenceDecay = 1.0;  // no decay: deterministic thresholds
    return p;
}

} // namespace

TEST(QosWatchdog, DisabledNeverActs)
{
    QosWatchdog dog;
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(dog.onWindow(1000, i * 10'000.0),
                  QosWatchdog::Action::None);
    }
    EXPECT_FALSE(dog.inSafeMode());
    EXPECT_EQ(dog.stats().windowsObserved, 0u);
}

TEST(QosWatchdog, TriggersAfterConsecutiveViolations)
{
    QosWatchdog dog(watchdogParams());
    Cycles now = 0;

    // Establish a reference of IPC 1.0 (1000 insns / 1000 cycles).
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    now += 1000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);

    // Two consecutive windows at IPC 0.5 (>5% below reference).
    now += 2000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    now += 2000;
    EXPECT_EQ(dog.onWindow(1000, now),
              QosWatchdog::Action::EnterSafeMode);

    EXPECT_TRUE(dog.inSafeMode());
    EXPECT_EQ(dog.stats().violations, 2u);
    EXPECT_EQ(dog.stats().safeModeActivations, 1u);
}

TEST(QosWatchdog, SingleNoisyWindowIsTolerated)
{
    QosWatchdog dog(watchdogParams());
    Cycles now = 0;
    dog.onWindow(1000, now);
    now += 1000;
    dog.onWindow(1000, now);  // reference = 1.0

    // One violating window, then recovery: never enters safe mode.
    now += 2000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    now += 1000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    now += 2000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    EXPECT_FALSE(dog.inSafeMode());
    EXPECT_EQ(dog.stats().safeModeActivations, 0u);
}

TEST(QosWatchdog, CooldownExpiresAndReferenceResets)
{
    QosParams params = watchdogParams();
    QosWatchdog dog(params);
    Cycles now = 0;
    dog.onWindow(1000, now);
    now += 1000;
    dog.onWindow(1000, now);
    now += 2000;
    dog.onWindow(1000, now);
    now += 2000;
    ASSERT_EQ(dog.onWindow(1000, now),
              QosWatchdog::Action::EnterSafeMode);

    // Safe mode holds for cooldownWindows windows (still slow ones).
    for (unsigned i = 0; i < params.cooldownWindows; ++i) {
        EXPECT_TRUE(dog.inSafeMode());
        now += 2000;
        EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    }
    EXPECT_FALSE(dog.inSafeMode());
    EXPECT_EQ(dog.stats().safeModeWindows, params.cooldownWindows);

    // The reference was re-learned at the post-rollback IPC (0.5), so
    // continuing at that pace is no longer a violation.
    now += 2000;
    EXPECT_EQ(dog.onWindow(1000, now), QosWatchdog::Action::None);
    EXPECT_FALSE(dog.inSafeMode());
}

TEST(QosWatchdog, SafePolicyIsFullPower)
{
    QosWatchdog dog(watchdogParams());
    EXPECT_EQ(dog.safePolicy(), GatingPolicy::fullPower());
}

TEST(QosWatchdog, ValidateNamesTheBadField)
{
    setQuiet(true);
    QosParams p;
    p.slowdownThreshold = 1.5;
    try {
        p.validate("test");
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("slowdownThreshold"),
                  std::string::npos);
    }
    p = QosParams{};
    p.violationWindows = 0;
    EXPECT_THROW(p.validate("test"), FatalError);
    setQuiet(false);
}

// --- machine-config validation -----------------------------------------------

TEST(MachineConfigValidation, NamesTheBadField)
{
    setQuiet(true);
    {
        MachineConfig m = serverConfig();
        m.vpu.width = 0;
        try {
            m.validate();
            FAIL() << "expected fatal()";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("vpu.width"),
                      std::string::npos);
        }
    }
    {
        MachineConfig m = serverConfig();
        m.mlc.assoc = 1;
        EXPECT_THROW(m.validate(), FatalError);
    }
    {
        MachineConfig m = serverConfig();
        m.faults.htbDropRate = -0.5;
        try {
            m.validate();
            FAIL() << "expected fatal()";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("htbDropRate"),
                      std::string::npos);
        }
    }
    {
        MachineConfig m = serverConfig();
        m.timeout.timeoutCycles = 0;
        try {
            m.validate();
            FAIL() << "expected fatal()";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("timeout.timeoutCycles"),
                      std::string::npos);
        }
    }
    {
        MachineConfig m = serverConfig();
        m.powerChop.qos.referenceDecay = 0;
        try {
            m.validate();
            FAIL() << "expected fatal()";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("referenceDecay"),
                      std::string::npos);
        }
    }
    setQuiet(false);
}

// --- environment parsing -----------------------------------------------------

TEST(Env, StringUnsetAndEmptyAreNullopt)
{
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", nullptr);
        EXPECT_FALSE(envString("POWERCHOP_TEST_VAR").has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "");
        EXPECT_FALSE(envString("POWERCHOP_TEST_VAR").has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "hello");
        EXPECT_EQ(envString("POWERCHOP_TEST_VAR").value_or(""), "hello");
    }
}

TEST(Env, Uint64EnforcesRangeAndFormat)
{
    setQuiet(true);
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "17");
        EXPECT_EQ(envUint64("POWERCHOP_TEST_VAR", 1, 100).value_or(0),
                  17u);
        // Out of the caller's range -> rejected.
        EXPECT_FALSE(
            envUint64("POWERCHOP_TEST_VAR", 20, 100).has_value());
        EXPECT_FALSE(
            envUint64("POWERCHOP_TEST_VAR", 1, 10).has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "+5");
        EXPECT_FALSE(
            envUint64("POWERCHOP_TEST_VAR", 1, 100).has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "5x");
        EXPECT_FALSE(
            envUint64("POWERCHOP_TEST_VAR", 1, 100).has_value());
    }
    setQuiet(false);
}

TEST(Env, DoubleEnforcesRangeAndFiniteness)
{
    setQuiet(true);
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "0.25");
        EXPECT_EQ(envDouble("POWERCHOP_TEST_VAR", 0, 1).value_or(-1),
                  0.25);
        EXPECT_FALSE(
            envDouble("POWERCHOP_TEST_VAR", 0.5, 1).has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "nan");
        EXPECT_FALSE(
            envDouble("POWERCHOP_TEST_VAR", 0, 1).has_value());
    }
    {
        ScopedEnv env("POWERCHOP_TEST_VAR", "0.5bad");
        EXPECT_FALSE(
            envDouble("POWERCHOP_TEST_VAR", 0, 1).has_value());
    }
    setQuiet(false);
}

// --- bit-identity guarantees -------------------------------------------------

TEST(FaultResilience, ZeroFaultRateIsBitIdenticalToBaseline)
{
    SimJob base;
    base.machine = serverConfig();
    base.workload = smallWorkload();
    base.opts.mode = SimMode::PowerChop;
    base.opts.maxInstructions = 150'000;

    // Injector compiled in but disabled...
    SimJob disabled = base;
    disabled.machine.faults = allFaultsAt(0.0);
    // ...and enabled with every rate at zero.
    SimJob armed_idle = base;
    armed_idle.machine.faults.enabled = true;

    const SimResult r_base =
        simulate(base.machine, base.workload, base.opts);
    const SimResult r_disabled =
        simulate(disabled.machine, disabled.workload, disabled.opts);
    const SimResult r_armed =
        simulate(armed_idle.machine, armed_idle.workload,
                 armed_idle.opts);

    expectIdentical(r_base, r_disabled);
    expectIdentical(r_base, r_armed);

    // Fault-free output carries no resilience fields at all.
    EXPECT_EQ(r_base.toJson().find("faults_injected"),
              std::string::npos);
    EXPECT_EQ(r_base.toJson().find("safe_mode"), std::string::npos);
}

TEST(FaultResilience, FaultedRunIsDeterministicAcrossWorkerCounts)
{
    std::vector<SimJob> jobs;
    for (unsigned seed = 1; seed <= 4; ++seed)
        jobs.push_back(faultedJob(0.01, seed));

    // Ground truth: direct serial simulate() calls.
    std::vector<SimResult> serial;
    for (const auto &job : jobs)
        serial.push_back(
            simulate(job.machine, job.workload, job.opts));

    SimJobRunner one(1);
    SimJobRunner four(4);
    const std::vector<SimResult> r1 = one.run(jobs);
    const std::vector<SimResult> r4 = four.run(jobs);

    std::uint64_t total_faults = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(serial[i], r1[i]);
        expectIdentical(serial[i], r4[i]);
        total_faults += serial[i].faults.total();
    }
    // The configuration actually injected faults; the runs agreeing
    // bit-for-bit above is therefore a statement about the faulted
    // path, not a vacuous pass.
    EXPECT_GT(total_faults, 0u);
}

TEST(FaultResilience, FaultedRunReportsInjections)
{
    const SimJob job = faultedJob(0.02);
    const SimResult res =
        simulate(job.machine, job.workload, job.opts);
    EXPECT_GT(res.faults.total(), 0u);
    EXPECT_NE(res.toJson().find("faults_injected"), std::string::npos);
}

// --- cooperative cancellation ------------------------------------------------

TEST(Cancellation, PreArmedFlagStopsTheRunEarly)
{
    SimJob job = faultedJob(0.0);
    std::atomic<bool> cancel{true};
    job.opts.cancelFlag = &cancel;
    EXPECT_THROW(
        simulate(job.machine, job.workload, job.opts),
        SimCancelledError);
}

TEST(Cancellation, NullFlagRunsToCompletion)
{
    SimJob job = faultedJob(0.0);
    const SimResult res =
        simulate(job.machine, job.workload, job.opts);
    EXPECT_EQ(res.instructions, job.opts.maxInstructions);
}

// --- robust batch runner -----------------------------------------------------

TEST(RobustRunner, HealthyBatchMatchesPlainRun)
{
    std::vector<SimJob> jobs = {faultedJob(0.0, 1),
                                faultedJob(0.01, 2)};
    SimJobRunner runner(2);
    const std::vector<SimResult> plain = runner.run(jobs);
    const RobustBatchResult robust = runner.runRobust(jobs);

    ASSERT_EQ(robust.results.size(), jobs.size());
    EXPECT_TRUE(robust.allOk());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(robust.outcomes[i].status, JobStatus::Ok);
        EXPECT_EQ(robust.outcomes[i].attempts, 1u);
        expectIdentical(plain[i], robust.results[i]);
    }
}

TEST(RobustRunner, FailedJobDoesNotPoisonTheBatch)
{
    setQuiet(true);
    SimJob good = faultedJob(0.0, 1);
    SimJob bad = good;
    bad.opts.maxInstructions = 0;  // simulate() rejects this

    SimJobRunner runner(2);
    const RobustBatchResult batch =
        runner.runRobust({good, bad, good});

    ASSERT_EQ(batch.outcomes.size(), 3u);
    EXPECT_EQ(batch.outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(batch.outcomes[1].status, JobStatus::Failed);
    EXPECT_EQ(batch.outcomes[2].status, JobStatus::Ok);
    EXPECT_FALSE(batch.outcomes[1].error.empty());

    EXPECT_EQ(batch.okCount(), 2u);
    EXPECT_EQ(batch.failedCount(), 1u);
    EXPECT_FALSE(batch.allOk());
    EXPECT_NE(batch.summary().find("2 ok"), std::string::npos);
    EXPECT_NE(batch.summary().find("1 failed"), std::string::npos);

    // The good jobs' results are intact and identical to serial runs.
    expectIdentical(batch.results[0],
                    simulate(good.machine, good.workload, good.opts));

    // The runner survives and its report saw the robust batch.
    EXPECT_EQ(runner.report().okJobs, 2u);
    EXPECT_EQ(runner.report().failedJobs, 1u);
    EXPECT_NE(runner.report().toJson("t").find("\"failed_jobs\":1"),
              std::string::npos);
    setQuiet(false);
}

TEST(RobustRunner, OverDeadlineJobTimesOut)
{
    SimJob slow = faultedJob(0.0);
    slow.opts.maxInstructions =
        std::numeric_limits<InsnCount>::max();

    RobustRunOptions opts;
    opts.timeoutSeconds = 0.1;

    SimJobRunner runner(2);
    const RobustBatchResult batch =
        runner.runRobust({faultedJob(0.0, 2), slow}, opts);

    EXPECT_EQ(batch.outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(batch.outcomes[1].status, JobStatus::TimedOut);
    EXPECT_NE(batch.outcomes[1].error.find("cancelled"),
              std::string::npos);
    EXPECT_EQ(batch.timedOutCount(), 1u);
    EXPECT_EQ(runner.report().timedOutJobs, 1u);
}

TEST(RobustRunner, TransientJobsAreRetriedPermanentOnesAreNot)
{
    setQuiet(true);
    SimJob bad = faultedJob(0.0);
    bad.opts.maxInstructions = 0;  // fails deterministically

    SimJob transient_bad = bad;
    transient_bad.transient = true;

    RobustRunOptions opts;
    opts.maxRetries = 2;

    SimJobRunner runner(2);
    const RobustBatchResult batch =
        runner.runRobust({bad, transient_bad}, opts);

    EXPECT_EQ(batch.outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(batch.outcomes[0].attempts, 1u);
    EXPECT_EQ(batch.outcomes[1].status, JobStatus::Failed);
    EXPECT_EQ(batch.outcomes[1].attempts, 3u);
    EXPECT_EQ(runner.report().retries, 2u);
    setQuiet(false);
}

TEST(RobustRunner, EmptyBatch)
{
    SimJobRunner runner(2);
    const RobustBatchResult batch = runner.runRobust({});
    EXPECT_TRUE(batch.results.empty());
    EXPECT_TRUE(batch.outcomes.empty());
    EXPECT_TRUE(batch.allOk());
}

TEST(RobustRunner, RobustFaultSweepDeterministicAcrossWorkers)
{
    std::vector<SimJob> jobs;
    for (unsigned seed = 1; seed <= 3; ++seed)
        jobs.push_back(faultedJob(0.01, seed));

    SimJobRunner one(1);
    SimJobRunner four(4);
    const RobustBatchResult a = one.runRobust(jobs);
    const RobustBatchResult b = four.runRobust(jobs);

    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(a.results[i], b.results[i]);
}

// --- report rendering --------------------------------------------------------

TEST(RunnerReport, RobustFieldsOnlyAppearAfterRobustBatches)
{
    SimJobRunner runner(2);
    runner.run({faultedJob(0.0)});
    // Plain batches leave the report's rendering unchanged.
    EXPECT_EQ(runner.report().toJson("t").find("ok_jobs"),
              std::string::npos);
    EXPECT_EQ(runner.report().toString().find("robust"),
              std::string::npos);

    runner.runRobust({faultedJob(0.0)});
    EXPECT_NE(runner.report().toJson("t").find("\"ok_jobs\":1"),
              std::string::npos);
    EXPECT_NE(runner.report().toString().find("robust"),
              std::string::npos);
}
