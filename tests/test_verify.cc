/**
 * @file
 * Tests for the verification subsystem: the reference-simulator
 * differential oracle, the invariant auditor, the golden snapshot
 * store, and regression tests for the accounting bugs the oracle
 * flushed out of the optimized simulate() loop (lost tail
 * attribution, stale trace timestamps, inconsistent instruction-count
 * denominators).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "sim/machine_config.hh"
#include "sim/sim_runner.hh"
#include "sim/simulator.hh"
#include "telemetry/trace.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/invariant_auditor.hh"
#include "verify/reference_simulator.hh"
#include "workload/suites.hh"

using namespace powerchop;
using namespace powerchop::verify;

namespace
{

WorkloadSpec
smallWorkload()
{
    WorkloadSpec w;
    w.name = "small";
    w.seed = 5;
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
    w.schedule = {{0, 150'000}, {1, 250'000}};
    return w;
}

/** One strongly hot phase: after warm-up nearly every instruction
 *  executes inside translated regions, which the tail-flush
 *  regression test depends on. */
WorkloadSpec
hotWorkload()
{
    WorkloadSpec w;
    w.name = "hot";
    w.seed = 7;
    PhaseSpec p;
    p.name = "hot";
    p.coldEscapeProb = 0.0;
    w.phases = {p};
    w.schedule = {{0, 100'000}};
    return w;
}

SimResult
run(SimMode mode, InsnCount insns = 200'000, bool audit = false)
{
    SimOptions opts;
    opts.mode = mode;
    opts.maxInstructions = insns;
    opts.audit = audit;
    return simulate(serverConfig(), smallWorkload(), opts);
}

void
expectBitIdentical(const SimResult &a, const SimResult &b)
{
    auto mismatches = compareResults(a, b, 0.0);
    EXPECT_TRUE(mismatches.empty());
    for (const auto &m : mismatches)
        ADD_FAILURE() << m.key << ": " << m.detail;
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

constexpr SimMode allModes[] = {
    SimMode::FullPower,  SimMode::PowerChop,    SimMode::MinPower,
    SimMode::TimeoutVpu, SimMode::StaticPolicy, SimMode::DrowsyMlc,
};

} // namespace

// --- differential oracle -----------------------------------------------------

TEST(Differential, ReferenceMatchesOptimizedAcrossModes)
{
    const WorkloadSpec w = smallWorkload();
    for (SimMode mode : allModes) {
        for (const MachineConfig &m : {serverConfig(), mobileConfig()}) {
            SimOptions opts;
            opts.mode = mode;
            opts.maxInstructions = 120'000;
            SCOPED_TRACE(std::string(simModeName(mode)) + " on " +
                         m.name);
            expectBitIdentical(simulate(m, w, opts),
                               referenceSimulate(m, w, opts));
        }
    }
}

TEST(Differential, ReferenceMatchesOptimizedUnderFaults)
{
    WorkloadSpec w = smallWorkload();
    for (std::uint64_t seed : {11ull, 1009ull}) {
        MachineConfig m = serverConfig();
        m.faults.enabled = true;
        m.faults.seed = seed;
        m.faults.policyCorruptRate = 0.05;
        m.faults.htbDropRate = 0.02;
        m.faults.htbAliasRate = 0.02;
        m.faults.controllerFlipRate = 0.05;
        m.faults.wakeupStretchRate = 0.1;

        SimOptions opts;
        opts.mode = SimMode::PowerChop;
        opts.maxInstructions = 150'000;
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        expectBitIdentical(simulate(m, w, opts),
                           referenceSimulate(m, w, opts));
    }
}

TEST(Differential, ReferenceMatchesOptimizedWithSampler)
{
    // The countdown sampler vs the reference's modulo: both must fire
    // at the same instruction counts with the same cycle stamps.
    const WorkloadSpec w = smallWorkload();
    const MachineConfig m = serverConfig();

    auto sample = [](const MachineConfig &mc, const WorkloadSpec &wl,
                     bool reference) {
        std::vector<std::pair<InsnCount, Cycles>> samples;
        SimOptions opts;
        opts.mode = SimMode::PowerChop;
        opts.maxInstructions = 100'000;
        opts.sampleInterval = 7'919; // prime: no block alignment
        opts.sampler = [&](InsnCount i, Cycles c) {
            samples.emplace_back(i, c);
        };
        SimResult r = reference ? referenceSimulate(mc, wl, opts)
                                : simulate(mc, wl, opts);
        (void)r;
        return samples;
    };

    auto opt = sample(m, w, false);
    auto ref = sample(m, w, true);
    ASSERT_EQ(opt.size(), ref.size());
    ASSERT_FALSE(opt.empty());
    for (std::size_t i = 0; i < opt.size(); ++i) {
        EXPECT_EQ(opt[i].first, ref[i].first);
        EXPECT_EQ(opt[i].second, ref[i].second);
    }
}

TEST(Differential, ReferenceMatchesOptimizedGatingEventOrder)
{
    // End-of-run totals and the sampler cannot see *when* units gate:
    // the two loops must also emit the same trace events and HTB
    // windows, in the same order, with the same stamps.
    struct Streams
    {
        telemetry::TraceRecorder trace;
        std::vector<WindowReport> windows;
    };
    auto record = [](const MachineConfig &m, const WorkloadSpec &w,
                     SimMode mode, bool reference, Streams &out) {
        SimOptions opts;
        opts.mode = mode;
        opts.maxInstructions = 300'007; // odd: the run ends mid-block
        opts.trace = &out.trace;
        opts.windowObserver = [&out](const WindowReport &r) {
            out.windows.push_back(r);
        };
        if (reference)
            referenceSimulate(m, w, opts);
        else
            simulate(m, w, opts);
    };

    std::size_t events = 0, windows = 0;
    for (const char *app : {"gobmk", "gems", "canneal", "msn"}) {
        const WorkloadSpec w = findWorkload(app);
        for (std::uint64_t seed : {0ull, 1009ull}) {
            MachineConfig m = w.suite == Suite::MobileBench
                ? mobileConfig() : serverConfig();
            if (seed)
                enableFaults(m, seed);
            for (SimMode mode : allModes) {
                SCOPED_TRACE(std::string(app) + ", " +
                             simModeName(mode) + ", fault seed " +
                             std::to_string(seed));
                Streams opt, ref;
                record(m, w, mode, false, opt);
                record(m, w, mode, true, ref);

                const auto &a = opt.trace.events();
                const auto &b = ref.trace.events();
                ASSERT_EQ(a.size(), b.size());
                EXPECT_EQ(opt.trace.droppedEvents(), 0u);
                events += a.size();
                for (std::size_t i = 0; i < a.size(); ++i) {
                    SCOPED_TRACE("event " + std::to_string(i));
                    ASSERT_EQ(a[i].kind, b[i].kind);
                    ASSERT_EQ(a[i].insns, b[i].insns);
                    ASSERT_EQ(a[i].cycles, b[i].cycles);
                    ASSERT_EQ(a[i].a0, b[i].a0);
                    ASSERT_EQ(a[i].a1, b[i].a1);
                    ASSERT_EQ(a[i].d, b[i].d);
                }
                EXPECT_EQ(opt.trace.endInsns(), ref.trace.endInsns());
                EXPECT_EQ(opt.trace.endCycles(), ref.trace.endCycles());

                ASSERT_EQ(opt.windows.size(), ref.windows.size());
                windows += opt.windows.size();
                for (std::size_t i = 0; i < opt.windows.size(); ++i) {
                    SCOPED_TRACE("window " + std::to_string(i));
                    ASSERT_EQ(opt.windows[i].instructions,
                              ref.windows[i].instructions);
                    ASSERT_EQ(opt.windows[i].translations,
                              ref.windows[i].translations);
                    ASSERT_EQ(opt.windows[i].profile,
                              ref.windows[i].profile);
                }
            }
        }
    }
    // Not vacuous: the runs gate, switch policies and close windows.
    EXPECT_GT(events, 1000u);
    EXPECT_GT(windows, 100u);
}

TEST(Differential, MatrixRunnerReportsAllCasesOk)
{
    DifferentialMatrix matrix;
    matrix.insns = 60'000;
    matrix.workloads = {"perlbench"};
    matrix.machines = {"server"};
    matrix.modes = {SimMode::FullPower, SimMode::PowerChop};
    matrix.faultSeeds = {0, 42};

    std::size_t announced = 0;
    DifferentialReport report = runDifferentialMatrix(
        matrix, [&](const DifferentialCase &) { ++announced; });

    EXPECT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(announced, 4u);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_NE(report.toString().find("all 4 cases ok"),
              std::string::npos);
}

TEST(Differential, RunnerJobsBitIdenticalToReferenceAcrossWorkerCounts)
{
    // The oracle also pins the parallel runner: any worker count must
    // produce exactly the reference's results.
    const WorkloadSpec w = smallWorkload();
    const MachineConfig m = serverConfig();
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 80'000;

    SimResult reference = referenceSimulate(m, w, opts);

    std::vector<SimJob> jobs(3, SimJob{m, w, opts});
    for (unsigned workers : {1u, 3u}) {
        ScopedEnv env("POWERCHOP_JOBS", nullptr);
        SimJobRunner runner(workers);
        std::vector<SimResult> results = runner.run(jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (const auto &r : results) {
            SCOPED_TRACE(std::to_string(workers) + " workers");
            expectBitIdentical(r, reference);
        }
    }
}

// --- invariant auditor -------------------------------------------------------

TEST(InvariantAuditor, CleanRunPassesAllModes)
{
    InvariantAuditor auditor;
    const MachineConfig m = serverConfig();
    for (SimMode mode : allModes) {
        SimResult r = run(mode);
        AuditReport rep = auditor.audit(r, m);
        EXPECT_TRUE(rep.ok())
            << simModeName(mode) << ": " << rep.toString();
        EXPECT_GT(rep.checks, 40u);
        EXPECT_NE(rep.toString().find("ok"), std::string::npos);
    }
}

TEST(InvariantAuditor, CatchesResidencyLeak)
{
    SimResult r = run(SimMode::PowerChop);
    r.gating.mlcFullCycles += 12'345; // a lost window of cycles
    InvariantAuditor auditor;
    AuditReport rep = auditor.audit(r);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.has("mlc-residency-conservation"))
        << rep.toString();
}

TEST(InvariantAuditor, CatchesFractionDrift)
{
    SimResult r = run(SimMode::MinPower);
    r.vpuGatedFraction *= 0.5;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r).has("fraction-consistency"));
}

TEST(InvariantAuditor, CatchesWrongRateDenominator)
{
    // MinPower keeps the VPU gated, so SIMD emulation inflates
    // slotOps past the committed-instruction count.
    SimResult r = run(SimMode::MinPower);
    ASSERT_GT(r.mlcAccesses, 0u);
    ASSERT_NE(r.slotOps, static_cast<double>(r.instructions));
    // The exact bug class satellite 3 fixed: dividing by slot ops
    // instead of the canonical committed-instruction count.
    r.mlcAccessesPerKilo =
        1000.0 * static_cast<double>(r.mlcAccesses) / r.slotOps;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r).has("rate-denominator"));
}

TEST(InvariantAuditor, CatchesCounterBoundViolation)
{
    SimResult r = run(SimMode::PowerChop);
    r.pvtHits = r.pvtLookups + 1;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r).has("counter-bound"));
}

TEST(InvariantAuditor, CatchesEnergyTampering)
{
    const MachineConfig m = serverConfig();
    SimResult r = run(SimMode::PowerChop);
    r.energy.unit(Unit::Vpu).leakage += 1e-3;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r, m).has("energy-recompute"));
}

TEST(InvariantAuditor, CatchesSlotOpTampering)
{
    const MachineConfig m = serverConfig();
    SimResult r = run(SimMode::MinPower); // VPU gated: emulation on
    ASSERT_GT(r.simdEmulated, 0u);
    r.slotOps = static_cast<double>(r.instructions) - 5;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r, m).has("slot-op-consistency"));
}

TEST(InvariantAuditor, CatchesNonFiniteValues)
{
    SimResult r = run(SimMode::FullPower);
    r.seconds = std::numeric_limits<double>::quiet_NaN();
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r).has("finite-values"));
}

TEST(InvariantAuditor, CatchesGatingInFullPowerMode)
{
    const MachineConfig m = serverConfig();
    SimResult r = run(SimMode::FullPower);
    r.gating.vpuSwitches = 2;
    InvariantAuditor auditor;
    EXPECT_TRUE(auditor.audit(r, m).has("full-power-never-gates"));
}

TEST(InvariantAuditor, TraceAuditAcceptsRealRunAndRejectsRewinds)
{
    MachineConfig m = serverConfig();
    telemetry::TraceRecorder trace;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 120'000;
    opts.trace = &trace;
    simulate(m, smallWorkload(), opts);

    InvariantAuditor auditor;
    ASSERT_FALSE(trace.events().empty());
    AuditReport rep = auditor.auditTrace(trace);
    EXPECT_TRUE(rep.ok()) << rep.toString();

    // A hand-built rewinding trace must be rejected.
    telemetry::TraceRecorder bad;
    bad.beginRun("w", "m", "mode", {});
    bad.setNow(100, 1000.0);
    bad.qosViolation();
    bad.setNow(100, 500.0); // clock rewound
    bad.qosViolation();
    bad.endRun(100, 500.0);
    EXPECT_TRUE(auditor.auditTrace(bad).has("trace-monotonic-cycles"));
}

TEST(InvariantAuditor, SimulateAuditOptionPassesCleanRuns)
{
    for (SimMode mode : allModes)
        EXPECT_NO_THROW(run(mode, 60'000, /*audit=*/true))
            << simModeName(mode);
}

TEST(InvariantAuditor, RunnerAuditsEveryJobUnderEnvFlag)
{
    ScopedEnv env("POWERCHOP_AUDIT", "1");
    const WorkloadSpec w = smallWorkload();
    const MachineConfig m = serverConfig();
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 50'000;

    SimJobRunner runner(2);
    std::vector<SimJob> jobs(4, SimJob{m, w, opts});
    EXPECT_NO_THROW(runner.run(jobs));

    RobustBatchResult batch = runner.runRobust(jobs, {});
    for (const auto &outcome : batch.outcomes)
        EXPECT_EQ(outcome.status, JobStatus::Ok) << outcome.error;
}

// --- golden store ------------------------------------------------------------

TEST(Golden, ParseFlatJsonRoundTrip)
{
    SimResult r = run(SimMode::PowerChop, 50'000);
    FlatJson parsed = parseFlatJson(r.toJson());
    EXPECT_EQ(parsed.strings.at("workload"), "small");
    EXPECT_EQ(parsed.strings.at("mode"), "powerchop");
    EXPECT_EQ(parsed.numbers.at("instructions"), 50'000.0);
    EXPECT_TRUE(parsed.has("slot_ops"));
    EXPECT_TRUE(parsed.has("mlc_accesses"));
    EXPECT_GT(parsed.size(), 20u);
}

TEST(Golden, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseFlatJson("{\"a\":}"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\" 1}"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\":1"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("\"not an object\""),
                 GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\":1} x"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\":nan}"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\":-inf}"), GoldenParseError);
    EXPECT_THROW(parseFlatJson("{\"a\":[1]}"), GoldenParseError);
    EXPECT_NO_THROW(parseFlatJson("{}"));
    EXPECT_NO_THROW(parseFlatJson("  { \"a\" : 1 , \"b\" : \"x\" } "));

    // The error names the file and where the parse stopped.
    try {
        parseFlatJson("{\"a\":1} x", "g.json");
        ADD_FAILURE() << "trailing bytes accepted";
    } catch (const GoldenParseError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("g.json"), std::string::npos) << what;
        EXPECT_NE(what.find("byte 8"), std::string::npos) << what;
    }
}

TEST(Golden, DifferToleratesDriftWithinTolAndExtraKeys)
{
    FlatJson golden = parseFlatJson(
        "{\"mode\":\"powerchop\",\"cycles\":1000000,\"ipc\":1.25}");
    FlatJson candidate = parseFlatJson(
        "{\"mode\":\"powerchop\",\"cycles\":1000000.4,\"ipc\":1.25,"
        "\"new_metric\":3}");
    EXPECT_TRUE(diffGolden(golden, candidate, 1e-6).ok());
    // Tightening the tolerance below the drift flags it.
    EXPECT_FALSE(diffGolden(golden, candidate, 1e-9).ok());
}

TEST(Golden, DifferFlagsMissingKeysAndStringMismatch)
{
    FlatJson golden =
        parseFlatJson("{\"mode\":\"powerchop\",\"cycles\":5}");
    FlatJson missing = parseFlatJson("{\"mode\":\"powerchop\"}");
    GoldenDiff diff = diffGolden(golden, missing, 1e-6);
    ASSERT_EQ(diff.mismatches.size(), 1u);
    EXPECT_EQ(diff.mismatches[0].key, "cycles");
    EXPECT_NE(diff.toString().find("missing"), std::string::npos);

    FlatJson wrong_mode =
        parseFlatJson("{\"mode\":\"min-power\",\"cycles\":5}");
    EXPECT_FALSE(diffGolden(golden, wrong_mode, 1e-6).ok());
}

TEST(Golden, SaveLoadRoundTripAndMissingFile)
{
    const std::string path =
        ::testing::TempDir() + "powerchop-golden-test.json";
    SimResult r = run(SimMode::FullPower, 40'000);
    saveGolden(path, r.toJson());

    FlatJson loaded;
    ASSERT_TRUE(loadGolden(path, loaded));
    EXPECT_TRUE(diffGolden(loaded, parseFlatJson(r.toJson()), 0).ok());
    std::remove(path.c_str());

    FlatJson none;
    EXPECT_FALSE(loadGolden(path + ".does-not-exist", none));
}

TEST(Golden, GoldenFileNameIsCanonical)
{
    EXPECT_EQ(goldenFileName("mcf", "server", "powerchop"),
              "mcf-server-powerchop.json");
}

TEST(Golden, CompareResultsFlagsEveryTamperedField)
{
    SimResult a = run(SimMode::PowerChop, 50'000);
    SimResult b = a;
    EXPECT_TRUE(compareResults(a, b, 0.0).empty());

    b.cycles += 1;
    b.branchLookups += 1;
    auto mismatches = compareResults(a, b, 0.0);
    ASSERT_GE(mismatches.size(), 2u);
    bool saw_cycles = false, saw_branches = false;
    for (const auto &m : mismatches) {
        if (m.key == "cycles")
            saw_cycles = true;
        if (m.key == "branchLookups")
            saw_branches = true;
    }
    EXPECT_TRUE(saw_cycles);
    EXPECT_TRUE(saw_branches);
}

// --- regression: tail attribution flush (bugfix 1) ---------------------------

namespace
{

/** Instructions credited to translations through HTB windows, with
 *  windowSize=1 so every head (including the final flush) completes
 *  and reports a window. */
std::uint64_t
creditedInsns(InsnCount budget)
{
    MachineConfig m = serverConfig();
    m.powerChop.htb.windowSize = 1;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = budget;
    std::uint64_t credited = 0;
    opts.windowObserver = [&](const WindowReport &r) {
        credited += r.instructions;
    };
    simulate(m, hotWorkload(), opts);
    return credited;
}

} // namespace

TEST(TailFlushRegression, TrailingInstructionsAreCredited)
{
    // Deep in a hot single-phase run every instruction executes in a
    // translated region, so with the tail flush in place extending
    // the budget by d must extend the credited total by exactly d.
    // Before the fix the instructions after the final head were
    // dropped, so the credited delta undershoots whenever the budget
    // ends mid-region (any d not aligned to a region boundary).
    const InsnCount base = 60'000;
    const std::uint64_t credited_base = creditedInsns(base);
    ASSERT_GT(credited_base, 0u);
    for (InsnCount d : {1u, 37u, 137u}) {
        EXPECT_EQ(creditedInsns(base + d) - credited_base, d)
            << "budget delta " << d;
    }
}

TEST(TailFlushRegression, LastWindowReachesTheObserver)
{
    // Coarse windows: a run that ends mid-window must still flush the
    // final translation's credit into the HTB (observable as credited
    // instructions strictly past the last full-window boundary).
    MachineConfig m = serverConfig();
    m.powerChop.htb.windowSize = 1;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 60'000;
    InsnCount last_report_end = 0;
    std::uint64_t credited = 0;
    opts.windowObserver = [&](const WindowReport &r) {
        credited += r.instructions;
        last_report_end = credited;
    };
    simulate(m, hotWorkload(), opts);
    // The final report must arrive after the loop drained: the tail
    // credit is included in the total.
    EXPECT_EQ(credited, last_report_end);
    EXPECT_GT(credited, 0u);
}

// --- regression: trace timestamps advance mid-window (bugfix 2) --------------

TEST(TraceClockRegression, CdeWorkCarriesPostStallTimestamps)
{
    // A PVT miss at a translation head costs a nucleus interrupt
    // before the CDE runs; the CDE's trace events must be stamped
    // after that stall, not with the head's timestamp. Before the
    // fix every event between two heads carried the head's cycle
    // count exactly.
    MachineConfig m = serverConfig();
    m.powerChop.htb.windowSize = 1;
    telemetry::TraceRecorder trace;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 120'000;
    opts.trace = &trace;
    simulate(m, smallWorkload(), opts);

    double last_window_cycles = -1;
    bool saw_advanced_cde = false;
    for (const auto &ev : trace.events()) {
        if (ev.kind == telemetry::TraceEventKind::Window) {
            last_window_cycles = ev.cycles;
        } else if (ev.kind == telemetry::TraceEventKind::Cde &&
                   last_window_cycles >= 0 &&
                   ev.cycles > last_window_cycles) {
            saw_advanced_cde = true;
        }
    }
    EXPECT_TRUE(saw_advanced_cde)
        << "every CDE event carries its window's head timestamp";

    // And the advanced clock must never overshoot the next head: the
    // whole trace stays monotonic, end stamp included.
    InvariantAuditor auditor;
    AuditReport rep = auditor.auditTrace(trace);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(TraceClockRegression, GateTransitionsAdvanceTheClock)
{
    // Consecutive unit transitions of one policy application are
    // serialized stalls; their gate events must carry increasing
    // cycle stamps rather than one shared timestamp.
    telemetry::TraceRecorder trace;
    SimOptions opts;
    opts.mode = SimMode::MinPower; // one applyPolicy gating all units
    opts.maxInstructions = 10'000;
    opts.trace = &trace;
    simulate(serverConfig(), smallWorkload(), opts);

    std::vector<double> gate_cycles;
    for (const auto &ev : trace.events()) {
        if (ev.kind == telemetry::TraceEventKind::GateVpu ||
            ev.kind == telemetry::TraceEventKind::GateBpu ||
            ev.kind == telemetry::TraceEventKind::GateMlc)
            gate_cycles.push_back(ev.cycles);
    }
    ASSERT_GE(gate_cycles.size(), 2u);
    bool strictly_advanced = false;
    for (std::size_t i = 1; i < gate_cycles.size(); ++i)
        if (gate_cycles[i] > gate_cycles[i - 1])
            strictly_advanced = true;
    EXPECT_TRUE(strictly_advanced)
        << "all gate events share one timestamp";
}

// --- regression: canonical instruction counts (bugfix 3) ---------------------

TEST(CanonicalCountsRegression, InstructionCountIsCommittedGuestCount)
{
    SimResult r = run(SimMode::MinPower, 100'000);
    EXPECT_EQ(r.instructions, 100'000u);

    // slotOps carries the emulated-SIMD expansion; instructions does
    // not. MinPower gates the VPU, so the two must differ and relate
    // exactly through the machine's expansion factor.
    ASSERT_GT(r.simdEmulated, 0u);
    EXPECT_DOUBLE_EQ(r.slotOps, r.activity.instructions);
    const MachineConfig m = serverConfig();
    const double expansion =
        m.vpu.width * m.vpu.emulationExpansion - 1.0;
    EXPECT_NEAR(r.slotOps,
                static_cast<double>(r.instructions) +
                    static_cast<double>(r.simdEmulated) * expansion,
                1e-6 * r.slotOps);
    EXPECT_GT(r.slotOps, static_cast<double>(r.instructions));
}

TEST(CanonicalCountsRegression, RatesDivideByInstructions)
{
    SimResult r = run(SimMode::MinPower, 100'000);
    ASSERT_GT(r.mlcAccesses, 0u);
    ASSERT_GT(r.branchLookups, 0u);
    EXPECT_DOUBLE_EQ(
        r.mlcAccessesPerKilo,
        1000.0 * static_cast<double>(r.mlcAccesses) / r.instructions);
    EXPECT_DOUBLE_EQ(
        r.branchesPerKilo,
        1000.0 * static_cast<double>(r.branchLookups) /
            r.instructions);
    EXPECT_DOUBLE_EQ(r.branchMispredictRate,
                     static_cast<double>(r.branchMispredicts) /
                         static_cast<double>(r.branchLookups));
}

TEST(CanonicalCountsRegression, RawCountersSurviveToJson)
{
    SimResult r = run(SimMode::PowerChop, 50'000);
    FlatJson j = parseFlatJson(r.toJson());
    EXPECT_EQ(j.numbers.at("slot_ops"), r.slotOps);
    EXPECT_EQ(j.numbers.at("mlc_accesses"),
              static_cast<double>(r.mlcAccesses));
    EXPECT_EQ(j.numbers.at("branch_lookups"),
              static_cast<double>(r.branchLookups));
    EXPECT_EQ(j.numbers.at("branch_mispredicts"),
              static_cast<double>(r.branchMispredicts));
    EXPECT_TRUE(j.has("branches_per_kilo"));
    EXPECT_TRUE(j.has("mlc_accesses_per_kilo"));
}

TEST(CanonicalCountsRegression, DefaultResultHasNoNans)
{
    // Guarded denominators: an all-zero (failed-job placeholder)
    // result must stay finite everywhere, and the auditor must accept
    // it as vacuously consistent.
    SimResult r;
    EXPECT_EQ(r.ipc(), 0.0);
    InvariantAuditor auditor;
    AuditReport rep = auditor.audit(r);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

// --- residency conservation end-to-end ---------------------------------------

TEST(ResidencyConservation, GatedPlusUngatedEqualsTotalEveryMode)
{
    // The bug the auditor was built to catch: transition-stall windows
    // were once excluded from residency accrual, so MLC residencies
    // summed short of the run's cycles in any mode that switches
    // policies.
    for (SimMode mode : allModes) {
        SimResult r = run(mode, 150'000);
        const double residency =
            r.gating.mlcFullCycles + r.gating.mlcHalfCycles +
            r.gating.mlcQuarterCycles + r.gating.mlcOneWayCycles;
        EXPECT_NEAR(residency, r.cycles, 1e-6 * r.cycles)
            << simModeName(mode);
        EXPECT_LE(r.gating.vpuGatedCycles, r.cycles * (1 + 1e-9))
            << simModeName(mode);
    }
}
