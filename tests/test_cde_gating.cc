/**
 * @file
 * Unit tests for the Criticality Decision Engine, the gating
 * controller and the PowerChop orchestrator.
 */

#include <gtest/gtest.h>

#include "bt/nucleus.hh"
#include "common/logging.hh"
#include "core/cde.hh"
#include "core/gating_controller.hh"
#include "core/powerchop_unit.hh"
#include "sim/machine_config.hh"

using namespace powerchop;

namespace
{

PhaseSignature
sig(TranslationId base)
{
    TranslationId ids[] = {base, base + 1, base + 2, base + 3};
    return PhaseSignature(ids, 4);
}

WindowProfile
profile(std::uint64_t insns, std::uint64_t simd, std::uint64_t l2hits,
        double mp_large, double mp_small)
{
    WindowProfile wp;
    wp.totalInsns = insns;
    wp.simdInsns = simd;
    wp.l2Hits = l2hits;
    wp.mispredLarge = mp_large;
    wp.mispredSmall = mp_small;
    return wp;
}

} // namespace

// --- CDE scoring ------------------------------------------------------------------

TEST(Cde, VpuScoring)
{
    Cde cde;
    const auto &p = cde.params();
    EXPECT_TRUE(cde.scoreCriticality(p.thresholdVpu * 2, 0, 1).vpuOn);
    EXPECT_FALSE(cde.scoreCriticality(p.thresholdVpu / 2, 0, 1).vpuOn);
    EXPECT_FALSE(cde.scoreCriticality(p.thresholdVpu, 0, 1).vpuOn);
}

TEST(Cde, BpuScoring)
{
    Cde cde;
    const auto &p = cde.params();
    EXPECT_TRUE(cde.scoreCriticality(0, p.thresholdBpu * 2, 1).bpuOn);
    EXPECT_FALSE(cde.scoreCriticality(0, p.thresholdBpu / 2, 1).bpuOn);
    EXPECT_FALSE(cde.scoreCriticality(0, -0.1, 1).bpuOn);
}

TEST(Cde, MlcThreeBands)
{
    Cde cde;
    const auto &p = cde.params();
    EXPECT_EQ(cde.scoreCriticality(0, 0, p.thresholdMlc1 * 2).mlc,
              MlcPolicy::AllWays);
    EXPECT_EQ(cde.scoreCriticality(
                      0, 0, (p.thresholdMlc1 + p.thresholdMlc2) / 2)
                  .mlc,
              MlcPolicy::HalfWays);
    EXPECT_EQ(cde.scoreCriticality(0, 0, p.thresholdMlc2 / 2).mlc,
              MlcPolicy::OneWay);
}

TEST(Cde, QuarterWaysExtensionOffByDefault)
{
    Cde cde;
    const auto &p = cde.params();
    double quarter_band = (p.thresholdMlc2 + p.thresholdMlcQuarter) / 2;
    EXPECT_EQ(cde.scoreCriticality(0, 0, quarter_band).mlc,
              MlcPolicy::HalfWays);
}

TEST(Cde, QuarterWaysExtensionBands)
{
    CdeParams params;
    params.enableQuarterWays = true;
    Cde cde(params);
    double quarter_band =
        (params.thresholdMlc2 + params.thresholdMlcQuarter) / 2;
    EXPECT_EQ(cde.scoreCriticality(0, 0, quarter_band).mlc,
              MlcPolicy::QuarterWays);
    // The other bands are unchanged.
    EXPECT_EQ(cde.scoreCriticality(0, 0, params.thresholdMlc1 * 2).mlc,
              MlcPolicy::AllWays);
    EXPECT_EQ(cde.scoreCriticality(0, 0, params.thresholdMlc2 / 2).mlc,
              MlcPolicy::OneWay);
    EXPECT_EQ(cde.scoreCriticality(
                      0, 0,
                      (params.thresholdMlcQuarter +
                       params.thresholdMlc1) / 2)
                  .mlc,
              MlcPolicy::HalfWays);
}

TEST(Cde, ManagedUnitMasks)
{
    Cde cde;
    cde.setManageVpu(false);
    cde.setManageMlc(false);
    GatingPolicy p = cde.scoreCriticality(0, 0, 0);
    EXPECT_TRUE(p.vpuOn);                    // unmanaged: stays on
    EXPECT_EQ(p.mlc, MlcPolicy::AllWays);    // unmanaged: all ways
    EXPECT_FALSE(p.bpuOn);                   // still managed
}

TEST(Cde, ScorePolicyUsesProfileRatios)
{
    Cde cde;
    // 5% SIMD, large predictor 10% better, heavy L2 hits.
    WindowProfile wp = profile(1000, 50, 100, 0.05, 0.15);
    GatingPolicy p = cde.scorePolicy(wp);
    EXPECT_TRUE(p.vpuOn);
    EXPECT_TRUE(p.bpuOn);
    EXPECT_EQ(p.mlc, MlcPolicy::AllWays);
}

TEST(Cde, EmptyWindowProfileScoresAllNonCritical)
{
    // A window with zero committed instructions (e.g. a fully stalled
    // window) must not divide by zero; every criticality reads 0 and
    // everything gates down.
    WindowProfile wp = profile(0, 0, 0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(wp.vpuCriticality(), 0.0);
    EXPECT_DOUBLE_EQ(wp.mlcCriticality(), 0.0);

    Cde cde;
    GatingPolicy p = cde.scorePolicy(wp);
    EXPECT_FALSE(p.vpuOn);
    EXPECT_FALSE(p.bpuOn);
    EXPECT_EQ(p.mlc, MlcPolicy::OneWay);
}

TEST(Cde, BranchFreeWindowGatesLargePredictor)
{
    // No branches in the window: both predictors report a 0.0
    // mispredict rate, the BPU criticality (small - large) is 0, and
    // the large predictor gates off.
    WindowProfile wp = profile(1000, 500, 100, 0.0, 0.0);
    Cde cde;
    GatingPolicy p = cde.scorePolicy(wp);
    EXPECT_FALSE(p.bpuOn);
    // The other units still score from their own counters.
    EXPECT_TRUE(p.vpuOn);
    EXPECT_EQ(p.mlc, MlcPolicy::AllWays);
}

TEST(Cde, AllSimdWindowKeepsVpuOn)
{
    // Saturated criticality: every instruction is SIMD.
    WindowProfile wp = profile(1000, 1000, 0, 0.05, 0.15);
    EXPECT_DOUBLE_EQ(wp.vpuCriticality(), 1.0);
    Cde cde;
    GatingPolicy p = cde.scorePolicy(wp);
    EXPECT_TRUE(p.vpuOn);
}

// --- CDE Algorithm 1 flow -----------------------------------------------------------

TEST(Cde, ProfilesForConfiguredWindowsThenRegisters)
{
    CdeParams params;
    params.profilingWindows = 3;
    Cde cde(params);
    Pvt pvt;
    WindowProfile wp = profile(1000, 500, 0, 0.1, 0.1);

    auto r1 = cde.onPvtMiss(sig(1), wp, pvt);
    EXPECT_TRUE(r1.keepCurrent);
    EXPECT_FALSE(r1.registered);
    EXPECT_EQ(cde.newPhases(), 1u);
    EXPECT_FALSE(pvt.contains(sig(1)));

    auto r2 = cde.onPvtMiss(sig(1), wp, pvt);
    EXPECT_TRUE(r2.keepCurrent);

    auto r3 = cde.onPvtMiss(sig(1), wp, pvt);
    EXPECT_FALSE(r3.keepCurrent);
    EXPECT_TRUE(r3.registered);
    EXPECT_TRUE(r3.policy.vpuOn);  // 50% SIMD
    EXPECT_TRUE(pvt.contains(sig(1)));
    EXPECT_EQ(cde.policiesRegistered(), 1u);
    EXPECT_EQ(cde.profilingContinues(), 2u);
}

TEST(Cde, BpuUsesWindowOneLargeWindowTwoSmall)
{
    CdeParams params;
    params.profilingWindows = 2;
    Cde cde(params);
    Pvt pvt;
    // Window 1: large rate 0.05 (kept). Window 2: small rate 0.30
    // (kept); the bogus cross values must be ignored.
    cde.onPvtMiss(sig(2), profile(1000, 0, 0, 0.05, 0.99), pvt);
    auto r = cde.onPvtMiss(sig(2), profile(1000, 0, 0, 0.99, 0.30), pvt);
    ASSERT_TRUE(r.registered);
    EXPECT_TRUE(r.policy.bpuOn);  // 0.30 - 0.05 >> threshold
}

TEST(Cde, MlcUsesLastWindow)
{
    CdeParams params;
    params.profilingWindows = 3;
    Cde cde(params);
    Pvt pvt;
    // Early windows show no hits (re-warm); the last window shows
    // steady-state hits and must win.
    cde.onPvtMiss(sig(3), profile(1000, 0, 0, 0, 0), pvt);
    cde.onPvtMiss(sig(3), profile(1000, 0, 0, 0, 0), pvt);
    auto r = cde.onPvtMiss(sig(3), profile(1000, 0, 100, 0, 0), pvt);
    ASSERT_TRUE(r.registered);
    EXPECT_EQ(r.policy.mlc, MlcPolicy::AllWays);
}

TEST(Cde, CapacityMissReregisters)
{
    CdeParams params;
    params.profilingWindows = 1;
    Cde cde(params);
    Pvt pvt(PvtParams{2, 3});

    WindowProfile quiet = profile(1000, 0, 0, 0.1, 0.1);
    // Register three phases into a two-entry PVT; one gets evicted
    // into the CDE's memory-backed store.
    cde.onPvtMiss(sig(10), quiet, pvt);
    cde.onPvtMiss(sig(20), quiet, pvt);
    cde.onPvtMiss(sig(30), quiet, pvt);
    EXPECT_EQ(cde.storedPolicies(), 3u);

    // sig(10) was evicted; its next miss is a capacity miss that
    // re-registers without re-profiling.
    ASSERT_FALSE(pvt.contains(sig(10)));
    auto r = cde.onPvtMiss(sig(10), quiet, pvt);
    EXPECT_TRUE(r.registered);
    EXPECT_EQ(cde.capacityMisses(), 1u);
    EXPECT_EQ(cde.newPhases(), 3u);  // no new profiling
    EXPECT_TRUE(pvt.contains(sig(10)));
}

TEST(Cde, ChargesWorkCycles)
{
    Cde cde;
    Pvt pvt;
    auto r = cde.onPvtMiss(sig(4), profile(1000, 0, 0, 0, 0), pvt);
    EXPECT_DOUBLE_EQ(r.cycles, cde.params().workCycles);
}

// --- gating controller ----------------------------------------------------------------

namespace
{

struct Rig
{
    Vpu vpu{VpuParams{4, 16, 1.25}};
    BpuComplex bpu;
    MemHierarchy mem{CacheParams{1024, 2, 64}, CacheParams{16384, 8, 64}};
    GatingController ctrl{vpu, bpu, mem};
};

} // namespace

TEST(GatingController, VpuTransitionCostsSwitchPlusSaveRestore)
{
    Rig rig;
    GatingPolicy p = GatingPolicy::fullPower();
    p.vpuOn = false;
    double stall = rig.ctrl.applyPolicy(p);
    EXPECT_DOUBLE_EQ(stall, 30.0 + 500.0);
    EXPECT_FALSE(rig.vpu.on());
    EXPECT_EQ(rig.ctrl.stats().vpuSwitches, 1u);
}

TEST(GatingController, NoChangeNoCost)
{
    Rig rig;
    EXPECT_DOUBLE_EQ(rig.ctrl.applyPolicy(GatingPolicy::fullPower()), 0);
    EXPECT_EQ(rig.ctrl.stats().vpuSwitches, 0u);
}

TEST(GatingController, BpuTransitionGatesLarge)
{
    Rig rig;
    GatingPolicy p = GatingPolicy::fullPower();
    p.bpuOn = false;
    EXPECT_DOUBLE_EQ(rig.ctrl.applyPolicy(p), 20.0);
    EXPECT_FALSE(rig.bpu.largeOn());
    p.bpuOn = true;
    rig.ctrl.applyPolicy(p);
    EXPECT_TRUE(rig.bpu.largeOn());
}

TEST(GatingController, MlcTransitionWritesBackDirty)
{
    Rig rig;
    // Dirty lines across all ways of one set.
    const Addr set_stride = (16384 / 8 / 64) * 64;
    for (Addr i = 0; i < 8; ++i) {
        rig.mem.access(0x40000 + i * set_stride, true);
        rig.mem.access(0x40000 + i * set_stride, true);
    }
    GatingPolicy p = GatingPolicy::fullPower();
    p.mlc = MlcPolicy::OneWay;
    double stall = rig.ctrl.applyPolicy(p);
    const auto &st = rig.ctrl.stats();
    EXPECT_GT(st.mlcDirtyWritebacks, 0u);
    EXPECT_DOUBLE_EQ(stall,
                     50.0 + st.mlcDirtyWritebacks *
                                rig.ctrl.penalties()
                                    .mlcWritebackCyclesPerLine);
    EXPECT_EQ(rig.mem.mlc().activeWays(), 1u);
}

TEST(GatingController, ResidencyAccrual)
{
    Rig rig;
    rig.ctrl.accrue(100);
    GatingPolicy p = GatingPolicy::minPower();
    rig.ctrl.applyPolicy(p);
    rig.ctrl.accrue(50);
    const auto &st = rig.ctrl.stats();
    EXPECT_DOUBLE_EQ(st.vpuGatedCycles, 50);
    EXPECT_DOUBLE_EQ(st.bpuGatedCycles, 50);
    EXPECT_DOUBLE_EQ(st.mlcFullCycles, 100);
    EXPECT_DOUBLE_EQ(st.mlcOneWayCycles, 50);
}

TEST(GatingController, QuarterWaysTransition)
{
    Rig rig;
    GatingPolicy p = GatingPolicy::fullPower();
    p.mlc = MlcPolicy::QuarterWays;
    rig.ctrl.applyPolicy(p);
    EXPECT_EQ(rig.mem.mlc().activeWays(), 2u);
    EXPECT_DOUBLE_EQ(rig.ctrl.mlcActiveFraction(), 0.25);
    rig.ctrl.accrue(10);
    EXPECT_DOUBLE_EQ(rig.ctrl.stats().mlcQuarterCycles, 10);
}

TEST(GatingController, MlcActiveFraction)
{
    Rig rig;
    EXPECT_DOUBLE_EQ(rig.ctrl.mlcActiveFraction(), 1.0);
    GatingPolicy p = GatingPolicy::fullPower();
    p.mlc = MlcPolicy::HalfWays;
    rig.ctrl.applyPolicy(p);
    EXPECT_DOUBLE_EQ(rig.ctrl.mlcActiveFraction(), 0.5);
}

// --- PowerChop orchestrator -----------------------------------------------------------------

TEST(PowerChopUnit, WindowTriggersPvtFlow)
{
    Rig rig;
    Nucleus nucleus;
    PerfMonitor monitor(rig.bpu, rig.mem);
    PowerChopParams params;
    params.htb.windowSize = 4;
    params.cde.profilingWindows = 2;
    PowerChopUnit pc(params, rig.ctrl, nucleus, monitor);

    int windows_seen = 0;
    pc.setWindowObserver([&](const WindowReport &) { ++windows_seen; });

    // Two full windows of the same four translations: first window is
    // a compulsory PVT miss (profiling starts), second completes the
    // profile and registers the policy.
    for (int w = 0; w < 2; ++w) {
        for (TranslationId id = 1; id <= 4; ++id)
            pc.onTranslationHead(id, 25);
    }
    EXPECT_EQ(windows_seen, 2);
    EXPECT_EQ(pc.pvt().lookups(), 2u);
    EXPECT_EQ(pc.pvt().misses(), 2u);
    EXPECT_EQ(pc.cde().policiesRegistered(), 1u);
    EXPECT_EQ(nucleus.count(InterruptKind::PvtMiss), 2u);

    // Third window: PVT hit, no interrupt.
    for (TranslationId id = 1; id <= 4; ++id)
        pc.onTranslationHead(id, 25);
    EXPECT_EQ(pc.pvt().hits(), 1u);
    EXPECT_EQ(nucleus.count(InterruptKind::PvtMiss), 2u);
    EXPECT_EQ(pc.translationsSeen(), 12u);
}

TEST(PowerChopUnit, AppliesRegisteredPolicy)
{
    Rig rig;
    Nucleus nucleus;
    PerfMonitor monitor(rig.bpu, rig.mem);
    PowerChopParams params;
    params.htb.windowSize = 2;
    params.cde.profilingWindows = 1;
    PowerChopUnit pc(params, rig.ctrl, nucleus, monitor);

    // No SIMD committed, no L2 hits -> min-power policy expected.
    pc.onTranslationHead(1, 50);
    pc.onTranslationHead(2, 50);
    EXPECT_FALSE(rig.vpu.on());
    EXPECT_FALSE(rig.bpu.largeOn());
    EXPECT_EQ(rig.mem.mlc().activeWays(), 1u);
}
