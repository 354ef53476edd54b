/**
 * @file
 * Unit tests for the simulator layer: machine configs, results and
 * short end-to-end runs.
 */

#include <optional>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/machine_config.hh"
#include "sim/sim_machine.hh"
#include "sim/simulator.hh"
#include "telemetry/trace.hh"
#include "workload/suites.hh"

using namespace powerchop;

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

SimResult
run(SimMode mode, InsnCount insns = 400'000)
{
    SimOptions opts;
    opts.mode = mode;
    opts.maxInstructions = insns;
    return simulate(serverConfig(), smallWorkload(), opts);
}

} // namespace

// --- machine configs ---------------------------------------------------------------

TEST(MachineConfig, TableOneGeometries)
{
    MachineConfig s = serverConfig();
    EXPECT_EQ(s.mlc.sizeBytes, 1024u * 1024);
    EXPECT_EQ(s.mlc.assoc, 8u);
    EXPECT_EQ(s.vpu.width, 4u);
    EXPECT_EQ(s.bpu.largeBtbEntries, 4096u);
    EXPECT_EQ(s.bpu.smallBtbEntries, 1024u);
    EXPECT_NO_THROW(s.validate());

    MachineConfig m = mobileConfig();
    EXPECT_EQ(m.mlc.sizeBytes, 2048u * 1024);
    EXPECT_EQ(m.vpu.width, 2u);
    EXPECT_EQ(m.bpu.largeBtbEntries, 2048u);
    EXPECT_EQ(m.bpu.smallBtbEntries, 512u);
    EXPECT_NO_THROW(m.validate());
}

TEST(MachineConfig, ValidationCatchesBadGeometry)
{
    MachineConfig s = serverConfig();
    s.mlc.assoc = 1;
    s.mlc.sizeBytes = 128 * 1024;
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(MachineConfig, GatingPenaltiesMatchPaper)
{
    MachineConfig s = serverConfig();
    EXPECT_DOUBLE_EQ(s.penalties.mlcSwitchCycles, 50.0);
    EXPECT_DOUBLE_EQ(s.penalties.vpuSwitchCycles, 30.0);
    EXPECT_DOUBLE_EQ(s.penalties.bpuSwitchCycles, 20.0);
    EXPECT_DOUBLE_EQ(s.penalties.vpuSaveRestoreCycles, 500.0);
    EXPECT_DOUBLE_EQ(s.timeout.timeoutCycles, 20000.0);
}

// --- results arithmetic ---------------------------------------------------------------

TEST(SimResult, ModeNames)
{
    EXPECT_STREQ(simModeName(SimMode::PowerChop), "powerchop");
    EXPECT_STREQ(simModeName(SimMode::TimeoutVpu), "timeout-vpu");
}

TEST(SimResult, ComparisonArithmetic)
{
    SimResult base;
    base.instructions = 1000;
    base.cycles = 1000;
    base.energy.seconds = 1.0;
    base.energy.unit(Unit::Rest).leakage = 2.0;
    base.energy.unit(Unit::Rest).dynamic = 2.0;

    SimResult other = base;
    other.cycles = 1100;
    other.energy.unit(Unit::Rest).dynamic = 1.0;

    EXPECT_NEAR(other.slowdownVs(base), 0.10, 1e-12);
    EXPECT_NEAR(other.energyReductionVs(base), 0.25, 1e-12);
    EXPECT_NEAR(other.powerReductionVs(base), 0.25, 1e-12);
    EXPECT_NEAR(other.leakageReductionVs(base), 0.0, 1e-12);
}

// --- simulation runs --------------------------------------------------------------------

TEST(Simulator, Deterministic)
{
    SimResult a = run(SimMode::PowerChop);
    SimResult b = run(SimMode::PowerChop);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.pvtLookups, b.pvtLookups);
    EXPECT_EQ(a.energy.totalEnergy(), b.energy.totalEnergy());
}

TEST(Simulator, BasicInvariants)
{
    for (SimMode mode : {SimMode::FullPower, SimMode::PowerChop,
                         SimMode::MinPower, SimMode::TimeoutVpu}) {
        SimResult r = run(mode);
        EXPECT_EQ(r.instructions, 400'000u);
        // Cycles at least issue-limited.
        EXPECT_GE(r.cycles, r.instructions / 4.0);
        EXPECT_GT(r.ipc(), 0.0);
        EXPECT_LE(r.ipc(), 4.0);
        EXPECT_GE(r.vpuGatedFraction, 0.0);
        EXPECT_LE(r.vpuGatedFraction, 1.0);
        EXPECT_LE(r.mlcHalfFraction + r.mlcOneWayFraction, 1.0 + 1e-9);
        EXPECT_GT(r.energy.totalEnergy(), 0.0);
        EXPECT_GT(r.seconds, 0.0);
    }
}

TEST(Simulator, FullPowerNeverGates)
{
    SimResult r = run(SimMode::FullPower);
    EXPECT_DOUBLE_EQ(r.vpuGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.bpuGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.mlcOneWayFraction, 0.0);
    EXPECT_EQ(r.gating.vpuSwitches, 0u);
}

TEST(Simulator, MinPowerGatesEverythingAlways)
{
    SimResult r = run(SimMode::MinPower);
    EXPECT_GT(r.vpuGatedFraction, 0.999);
    EXPECT_GT(r.bpuGatedFraction, 0.999);
    EXPECT_GT(r.mlcOneWayFraction, 0.999);
    EXPECT_GT(r.simdEmulated, 0u);
}

TEST(Simulator, MinPowerUsesLessLeakagePowerAndMoreTime)
{
    SimResult full = run(SimMode::FullPower);
    SimResult min = run(SimMode::MinPower);
    EXPECT_LT(min.energy.averageLeakagePower(),
              full.energy.averageLeakagePower());
    EXPECT_GE(min.cycles, full.cycles * 0.99);
}

TEST(Simulator, PowerChopBetweenExtremes)
{
    SimResult full = run(SimMode::FullPower);
    SimResult pc = run(SimMode::PowerChop);
    // PowerChop saves leakage power relative to full power...
    EXPECT_LT(pc.energy.averageLeakagePower(),
              full.energy.averageLeakagePower());
    // ...at a small slowdown.
    EXPECT_LT(pc.slowdownVs(full), 0.10);
}

TEST(Simulator, PowerChopMaintainsPvtHitRate)
{
    SimResult pc = run(SimMode::PowerChop, 1'000'000);
    EXPECT_GT(pc.pvtLookups, 50u);
    EXPECT_LT(pc.pvtMissPerTranslation, 0.01);
    EXPECT_GT(pc.translationsExecuted, 10'000u);
}

TEST(Simulator, ManagedUnitMasksRestrictGating)
{
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 400'000;
    opts.manageVpu = true;
    opts.manageBpu = false;
    opts.manageMlc = false;
    SimResult r = simulate(serverConfig(), smallWorkload(), opts);
    EXPECT_GT(r.vpuGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.bpuGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.mlcOneWayFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.mlcHalfFraction, 0.0);
}

TEST(Simulator, TimeoutGatesVpuOnly)
{
    SimResult r = run(SimMode::TimeoutVpu, 600'000);
    // The compute phase uses SIMD every ~20 insns, so the VPU stays
    // on there; the memory phase has none, so the timeout fires.
    EXPECT_GT(r.vpuGatedFraction, 0.1);
    EXPECT_DOUBLE_EQ(r.bpuGatedFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.mlcOneWayFraction, 0.0);
}

// --- the timeout baseline on one machine ------------------------------------------

namespace
{

SimOptions
timeoutOptions(double timeoutCycles, telemetry::TraceRecorder *trace)
{
    SimOptions opts;
    opts.mode = SimMode::TimeoutVpu;
    opts.maxInstructions = 1'000'000;
    opts.timeoutCycles = timeoutCycles;
    opts.trace = trace;
    return opts;
}

/** A TimeoutVpu-mode machine driven by hand: block heads, idle
 *  instructions and SIMD ops at chosen cycles, with a trace recorder
 *  that stamps each VPU transition. */
struct TimeoutRig
{
    explicit TimeoutRig(double timeoutCycles)
        : opts(timeoutOptions(timeoutCycles, &trace)),
          sim(machine, workload, opts)
    {
    }

    /** A block head, where an idle VPU is gated off. */
    void head() { sim.enterBlock(sim.gen().currentBlock(), n); }

    /** Issue non-SIMD instructions until the clock reaches @p until. */
    void
    idleUntil(Cycles until)
    {
        for (; sim.cycles() < until; ++n)
            sim.issue();
    }

    /** Issue one SIMD op; @return the cycle it issued at. */
    Cycles
    simd()
    {
        sim.issue();
        const Cycles at = sim.cycles();
        sim.simd(n++);
        return at;
    }

    bool vpuOn() const { return sim.controller().current().vpuOn; }

    std::vector<telemetry::TraceEvent>
    vpuEvents() const
    {
        std::vector<telemetry::TraceEvent> out;
        for (const auto &e : trace.events()) {
            if (e.kind == telemetry::TraceEventKind::GateVpu)
                out.push_back(e);
        }
        return out;
    }

    MachineConfig machine = serverConfig();
    WorkloadSpec workload = smallWorkload();
    telemetry::TraceRecorder trace;
    SimOptions opts;
    SimMachine sim;
    InsnCount n = 0;
};

} // namespace

TEST(TimeoutVpuMode, GatesAfterIdlePeriod)
{
    TimeoutRig rig(1000);
    rig.head();
    rig.idleUntil(900);
    rig.head();
    EXPECT_TRUE(rig.vpuOn());
    EXPECT_TRUE(rig.vpuEvents().empty());

    // Gated at the first head past the period, stalled for the
    // timeout baseline's 30-cycle switch and 500-cycle save.
    rig.idleUntil(1000);
    const Cycles idle_end = rig.sim.cycles();
    rig.head();
    EXPECT_FALSE(rig.vpuOn());
    EXPECT_EQ(rig.sim.controller().stats().vpuSwitches, 1u);
    EXPECT_DOUBLE_EQ(rig.sim.controller().stats().stallCycles, 530.0);
    EXPECT_DOUBLE_EQ(rig.sim.cycles(), idle_end + 530.0);

    const auto ev = rig.vpuEvents();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].a0, 0u);
    EXPECT_EQ(ev[0].insns, rig.n);
    EXPECT_DOUBLE_EQ(ev[0].cycles, idle_end);
    EXPECT_DOUBLE_EQ(ev[0].d, 530.0);
}

TEST(TimeoutVpuMode, SimdRestartsIdleClock)
{
    TimeoutRig rig(1000);
    rig.head();
    rig.idleUntil(800);
    const Cycles used = rig.simd();
    rig.idleUntil(1500); // past the period from 0, not from the op
    rig.head();
    EXPECT_TRUE(rig.vpuOn());

    rig.idleUntil(used + 1000);
    rig.head();
    EXPECT_FALSE(rig.vpuOn());
    const auto ev = rig.vpuEvents();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_GE(ev[0].cycles - used, 1000.0);
}

TEST(TimeoutVpuMode, SimdWakesGatedVpuWithPenalty)
{
    TimeoutRig rig(100);
    rig.head();
    rig.idleUntil(200);
    rig.head();
    ASSERT_FALSE(rig.vpuOn());
    const Cycles off = rig.vpuEvents().at(0).cycles;

    rig.idleUntil(5000);
    const InsnCount wake_insn = rig.n;
    const Cycles wake = rig.simd();
    EXPECT_TRUE(rig.vpuOn());
    EXPECT_DOUBLE_EQ(rig.sim.cycles(), wake + 530.0);
    EXPECT_EQ(rig.sim.controller().stats().vpuSwitches, 2u);
    EXPECT_DOUBLE_EQ(rig.sim.controller().stats().stallCycles, 1060.0);

    // The wake is stamped at the SIMD op that caused it.
    const auto ev = rig.vpuEvents();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[1].a0, 1u);
    EXPECT_EQ(ev[1].insns, wake_insn);
    EXPECT_DOUBLE_EQ(ev[1].cycles, wake);
    EXPECT_DOUBLE_EQ(ev[1].d, 530.0);

    rig.sim.finish(rig.n);
    const SimResult res = rig.sim.result(rig.n);
    EXPECT_EQ(res.gating.vpuSwitches, 2u);
    EXPECT_DOUBLE_EQ(res.gating.vpuGatedCycles, wake - off);
}

TEST(TimeoutVpuMode, FinishCountsTrailingGatedTime)
{
    TimeoutRig rig(100);
    rig.head();
    rig.idleUntil(200);
    rig.head();
    ASSERT_FALSE(rig.vpuOn());
    const Cycles off = rig.vpuEvents().at(0).cycles;

    rig.idleUntil(off + 1000);
    rig.sim.finish(rig.n);
    const SimResult res = rig.sim.result(rig.n);
    EXPECT_DOUBLE_EQ(res.gating.vpuGatedCycles, res.cycles - off);
    EXPECT_DOUBLE_EQ(rig.trace.endCycles(), res.cycles);
}

TEST(TimeoutVpuMode, RejectsBadTimeout)
{
    // The machine's timeout period is checked before the run starts,
    // and the error names the field.
    setQuiet(true);
    for (double bad : {0.0, -100.0}) {
        SCOPED_TRACE(bad);
        MachineConfig m = serverConfig();
        m.timeout.timeoutCycles = bad;
        try {
            simulate(m, smallWorkload(), timeoutOptions(0, nullptr));
            ADD_FAILURE() << "expected fatal()";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("timeout.timeoutCycles"),
                      std::string::npos);
        }
    }
    setQuiet(false);
}

TEST(TimeoutVpuMode, EveryVpuSwitchIsATraceEvent)
{
    // The controller owns the timeout baseline's VPU transitions, so
    // the trace sees each one, and the spans from each gate-off to
    // the next wake (or the end of the run) are the gated residency.
    struct Case
    {
        const char *app;
        InsnCount insns;
        double timeoutCycles; ///< 0: the machine's 20K cycles.
    };
    for (const Case &c : {Case{"perlbench", 4'000'000, 0},
                          Case{"canneal", 1'000'000, 0},
                          Case{"msn", 2'000'000, 0},
                          Case{"namd", 1'000'000, 1000}}) {
        SCOPED_TRACE(c.app);
        const WorkloadSpec w = findWorkload(c.app);
        const MachineConfig m = w.suite == Suite::MobileBench
            ? mobileConfig() : serverConfig();
        telemetry::TraceRecorder trace;
        SimOptions opts = timeoutOptions(c.timeoutCycles, &trace);
        opts.maxInstructions = c.insns;
        const SimResult res = simulate(m, w, opts);
        EXPECT_GT(res.gating.vpuSwitches, 0u);
        EXPECT_EQ(trace.droppedEvents(), 0u);

        std::uint64_t switches = 0;
        double gated = 0;
        std::optional<Cycles> off;
        for (const auto &e : trace.events()) {
            if (e.kind != telemetry::TraceEventKind::GateVpu)
                continue;
            ++switches;
            if (e.a0 == 0) {
                ASSERT_FALSE(off.has_value());
                off = e.cycles;
            } else {
                ASSERT_TRUE(off.has_value());
                gated += e.cycles - *off;
                off.reset();
            }
        }
        if (off)
            gated += trace.endCycles() - *off;
        EXPECT_EQ(switches, res.gating.vpuSwitches);
        EXPECT_NEAR(gated, res.gating.vpuGatedCycles,
                    1e-9 * res.gating.vpuGatedCycles);
    }
}

TEST(TimeoutVpuMode, FaultsReachTimeoutTransitions)
{
    // The controller's fault hooks (state flips, stretched wakes) see
    // the timeout baseline's transitions, as they see PowerChop's.
    MachineConfig m = serverConfig();
    m.faults.enabled = true;
    m.faults.controllerFlipRate = 0.2;
    m.faults.wakeupStretchRate = 0.2;
    SimOptions opts = timeoutOptions(1000, nullptr);
    const SimResult res = simulate(m, findWorkload("namd"), opts);
    EXPECT_GT(res.gating.vpuSwitches, 0u);
    EXPECT_GT(res.faults.controllerFlips, 0u);
    EXPECT_GT(res.faults.wakeupStretches, 0u);
}

TEST(Simulator, SamplerFires)
{
    SimOptions opts;
    opts.mode = SimMode::FullPower;
    opts.maxInstructions = 100'000;
    opts.sampleInterval = 10'000;
    int samples = 0;
    Cycles last = 0;
    opts.sampler = [&](InsnCount n, Cycles c) {
        ++samples;
        EXPECT_GT(c, last);
        last = c;
        EXPECT_EQ(n % 10'000, 0u);
    };
    simulate(serverConfig(), smallWorkload(), opts);
    EXPECT_EQ(samples, 10);
}

TEST(Simulator, WindowObserverFires)
{
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 500'000;
    int windows = 0;
    opts.windowObserver = [&](const WindowReport &rep) {
        ++windows;
        EXPECT_GT(rep.translations, 0u);
        EXPECT_FALSE(rep.signature.empty());
    };
    simulate(serverConfig(), smallWorkload(), opts);
    EXPECT_GT(windows, 10);
}

TEST(Simulator, RejectsZeroBudget)
{
    SimOptions opts;
    opts.maxInstructions = 0;
    EXPECT_THROW(simulate(serverConfig(), smallWorkload(), opts),
                 FatalError);
}

TEST(SimResult, JsonIsWellFormedAndComplete)
{
    SimResult r = run(SimMode::PowerChop, 200'000);
    std::string j = r.toJson();
    // Structural sanity without a JSON library: balanced braces,
    // quoted keys, and the load-bearing fields present.
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
    for (const char *key :
         {"\"workload\"", "\"mode\"", "\"ipc\"", "\"avg_power_w\"",
          "\"vpu_gated\"", "\"pvt_lookups\"", "\"cycles\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
    EXPECT_NE(j.find("\"mode\":\"powerchop\""), std::string::npos);
    // No trailing comma before the closing brace.
    EXPECT_EQ(j.find(",}"), std::string::npos);
}

// --- experiment helpers --------------------------------------------------------------------

TEST(Experiment, MeanAndMax)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(maxOf({1, 5, 3}), 5.0);
    EXPECT_DOUBLE_EQ(maxOf({}), 0.0);
}

TEST(Experiment, PctFormats)
{
    EXPECT_EQ(pct(0.123456), " 12.35%");
}

TEST(Experiment, InsnBudgetDefault)
{
    unsetenv("POWERCHOP_INSNS");
    EXPECT_EQ(insnBudget(123), 123u);
    setenv("POWERCHOP_INSNS", "5000", 1);
    EXPECT_EQ(insnBudget(123), 5000u);
    setenv("POWERCHOP_INSNS", "garbage", 1);
    setQuiet(true);
    EXPECT_EQ(insnBudget(123), 123u);
    setQuiet(false);
    unsetenv("POWERCHOP_INSNS");
}

TEST(Experiment, RunPairProducesComparableRuns)
{
    ComparisonRuns runs =
        runPair(serverConfig(), smallWorkload(), 200'000);
    EXPECT_EQ(runs.fullPower.instructions, runs.powerChop.instructions);
    EXPECT_EQ(runs.fullPower.mode, SimMode::FullPower);
    EXPECT_EQ(runs.powerChop.mode, SimMode::PowerChop);
}
