/**
 * @file
 * Unit tests for branch predictors, BTBs and the gateable BPU
 * complex.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "uarch/agree.hh"
#include "uarch/bimodal.hh"
#include "uarch/bpu_complex.hh"
#include "uarch/btb.hh"
#include "uarch/gshare.hh"
#include "uarch/local_predictor.hh"
#include "uarch/perceptron.hh"
#include "uarch/tournament.hh"
#include "workload/branch_behavior.hh"

using namespace powerchop;

namespace
{

/** Drive a predictor with one synthetic branch process and return its
 *  accuracy over n outcomes (after a warmup). */
double
accuracyOn(DirectionPredictor &pred, const BranchBehavior &beh,
           int n = 20000, Addr pc = 0x4000)
{
    BranchOutcomeEngine eng(99);
    BranchRuntime rt;
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        bool taken = eng.nextOutcome(beh, rt);
        bool p = pred.predictAndTrain(pc, taken);
        if (i >= n / 4)
            correct += (p == taken);
    }
    return correct / (n * 0.75);
}

BranchBehavior
makeBehavior(BranchKind kind)
{
    BranchBehavior b;
    b.kind = kind;
    b.noise = 0.0;
    return b;
}

} // namespace

// --- bimodal ------------------------------------------------------------------

TEST(Bimodal, LearnsBiasedBranches)
{
    BimodalPredictor p(1024);
    BranchBehavior b = makeBehavior(BranchKind::Biased);
    b.biasTaken = 0.95;
    EXPECT_GT(accuracyOn(p, b), 0.90);
}

TEST(Bimodal, CannotLearnPatterns)
{
    BimodalPredictor p(1024);
    BranchBehavior b = makeBehavior(BranchKind::Pattern);
    b.patternBits = 0b0101;  // alternating, worst case for 2-bit
    b.patternLen = 4;
    EXPECT_LT(accuracyOn(p, b), 0.70);
}

TEST(Bimodal, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(BimodalPredictor(1000), FatalError);
}

TEST(Bimodal, ResetClearsState)
{
    BimodalPredictor p(64);
    for (int i = 0; i < 100; ++i)
        p.predictAndTrain(0x40, true);
    p.reset();
    // Counter back to weakly-not-taken: first prediction is NT.
    BimodalPredictor fresh(64);
    EXPECT_EQ(p.predictAndTrain(0x40, true),
              fresh.predictAndTrain(0x40, true));
}

// --- local two-level -----------------------------------------------------------

TEST(LocalPredictor, LearnsShortPatterns)
{
    LocalPredictor p(1024, 10, 1024);
    BranchBehavior b = makeBehavior(BranchKind::Pattern);
    b.patternBits = 0b011011;
    b.patternLen = 6;
    EXPECT_GT(accuracyOn(p, b), 0.95);
}

TEST(LocalPredictor, CannotLearnGlobalCorrelation)
{
    LocalPredictor p(1024, 10, 1024);
    // Alternate a random churn branch with a correlated branch at a
    // different PC; the local predictor sees no cross-branch history.
    BranchOutcomeEngine eng(7);
    BranchBehavior churn = makeBehavior(BranchKind::Random);
    BranchBehavior corr = makeBehavior(BranchKind::GlobalCorrelated);
    corr.historyMask = 0b1;  // equals the previous outcome
    BranchRuntime rt_churn, rt_corr;
    int correct = 0, n = 20000;
    for (int i = 0; i < n; ++i) {
        eng.nextOutcome(churn, rt_churn);
        bool taken = eng.nextOutcome(corr, rt_corr);
        correct += (p.predictAndTrain(0x8000, taken) == taken);
    }
    EXPECT_LT(correct / double(n), 0.75);
}

TEST(LocalPredictor, ValidatesGeometry)
{
    EXPECT_THROW(LocalPredictor(1000, 10, 1024), FatalError);
    EXPECT_THROW(LocalPredictor(1024, 0, 1024), FatalError);
    EXPECT_THROW(LocalPredictor(1024, 20, 1024), FatalError);
}

// --- gshare ---------------------------------------------------------------------

TEST(Gshare, LearnsGlobalCorrelation)
{
    GsharePredictor p(4096, 8);
    BranchOutcomeEngine eng(11);
    BranchBehavior churn = makeBehavior(BranchKind::Biased);
    churn.biasTaken = 0.5;
    BranchBehavior corr = makeBehavior(BranchKind::GlobalCorrelated);
    corr.historyMask = 0b11;
    BranchRuntime rt_churn, rt_corr;
    int correct = 0, n = 40000, counted = 0;
    for (int i = 0; i < n; ++i) {
        bool t1 = eng.nextOutcome(churn, rt_churn);
        p.predictAndTrain(0x100, t1);
        bool taken = eng.nextOutcome(corr, rt_corr);
        bool pred = p.predictAndTrain(0x200, taken);
        if (i > n / 2) {
            correct += (pred == taken);
            ++counted;
        }
    }
    EXPECT_GT(correct / double(counted), 0.85);
}

TEST(Gshare, HistoryTracked)
{
    GsharePredictor p(256, 4);
    p.predictAndTrain(0x10, true);
    p.predictAndTrain(0x10, false);
    p.predictAndTrain(0x10, true);
    EXPECT_EQ(p.history(), 0b101u);
}

TEST(Gshare, ResetClearsHistory)
{
    GsharePredictor p(256, 4);
    p.predictAndTrain(0x10, true);
    p.reset();
    EXPECT_EQ(p.history(), 0u);
}

// --- tournament -----------------------------------------------------------------

TEST(Tournament, BeatsBimodalOnPatterns)
{
    TournamentPredictor t;
    BimodalPredictor bi(1024);
    BranchBehavior b = makeBehavior(BranchKind::Pattern);
    b.patternBits = 0b0011;
    b.patternLen = 4;
    double acc_t = accuracyOn(t, b);
    double acc_b = accuracyOn(bi, b);
    EXPECT_GT(acc_t, acc_b + 0.2);
}

TEST(Tournament, MatchesBimodalOnBiased)
{
    TournamentPredictor t;
    BimodalPredictor bi(1024);
    BranchBehavior b = makeBehavior(BranchKind::Biased);
    b.biasTaken = 0.95;
    EXPECT_NEAR(accuracyOn(t, b), accuracyOn(bi, b), 0.05);
}

TEST(Tournament, TracksAccuracyStats)
{
    TournamentPredictor t;
    BranchBehavior b = makeBehavior(BranchKind::Biased);
    accuracyOn(t, b, 1000);
    EXPECT_EQ(t.lookups(), 1000u);
    EXPECT_LE(t.mispredicts(), t.lookups());
    EXPECT_GT(t.mispredictRate(), 0.0);
    t.resetWindow();
    EXPECT_EQ(t.windowLookups(), 0u);
    EXPECT_EQ(t.lookups(), 1000u);
}

// --- BTB ------------------------------------------------------------------------

TEST(Btb, HitsAfterInstall)
{
    Btb btb(64, 4);
    EXPECT_FALSE(btb.predictAndUpdate(0x100, 0x500));
    EXPECT_TRUE(btb.predictAndUpdate(0x100, 0x500));
}

TEST(Btb, DetectsTargetChange)
{
    Btb btb(64, 4);
    btb.predictAndUpdate(0x100, 0x500);
    EXPECT_FALSE(btb.predictAndUpdate(0x100, 0x600));
    EXPECT_TRUE(btb.predictAndUpdate(0x100, 0x600));
}

TEST(Btb, LruEvictsOldest)
{
    Btb btb(4, 4);  // one set
    btb.predictAndUpdate(0x10, 0x1);
    btb.predictAndUpdate(0x20, 0x2);
    btb.predictAndUpdate(0x30, 0x3);
    btb.predictAndUpdate(0x40, 0x4);
    // Touch 0x10 so 0x20 is LRU; install a fifth entry.
    EXPECT_TRUE(btb.predictAndUpdate(0x10, 0x1));
    btb.predictAndUpdate(0x50, 0x5);
    EXPECT_TRUE(btb.predictAndUpdate(0x10, 0x1));
    EXPECT_FALSE(btb.predictAndUpdate(0x20, 0x2));
}

TEST(Btb, ResetInvalidates)
{
    Btb btb(64, 4);
    btb.predictAndUpdate(0x100, 0x500);
    btb.reset();
    EXPECT_FALSE(btb.predictAndUpdate(0x100, 0x500));
}

TEST(Btb, ValidatesGeometry)
{
    EXPECT_THROW(Btb(100, 4), FatalError);
    EXPECT_THROW(Btb(64, 0), FatalError);
    EXPECT_THROW(Btb(64, 24), FatalError);
}

// --- BPU complex -----------------------------------------------------------------

TEST(BpuComplex, ActivePredictorSwitchesOnGating)
{
    BpuComplex bpu;
    // Train a pattern only the large side can learn.
    BranchOutcomeEngine eng(13);
    BranchBehavior b = makeBehavior(BranchKind::Pattern);
    b.patternBits = 0b0011;
    b.patternLen = 4;
    BranchRuntime rt;

    auto run = [&](int n) {
        int mis = 0;
        for (int i = 0; i < n; ++i) {
            bool taken = eng.nextOutcome(b, rt);
            mis += bpu.predict(0x1000, taken, 0x2000)
                       .directionMispredict;
        }
        return mis / double(n);
    };

    run(4000);               // warm up
    double on_rate = run(4000);
    bpu.gateLargeOff();
    EXPECT_FALSE(bpu.largeOn());
    double off_rate = run(4000);
    EXPECT_GT(off_rate, on_rate + 0.1);

    bpu.gateLargeOn();
    run(4000);               // re-warm
    double regated_rate = run(4000);
    EXPECT_LT(regated_rate, off_rate - 0.1);
}

TEST(BpuComplex, ShadowSurvivesGating)
{
    BpuComplex bpu;
    BranchOutcomeEngine eng(17);
    BranchBehavior b = makeBehavior(BranchKind::Pattern);
    b.patternBits = 0b0110;
    b.patternLen = 4;
    BranchRuntime rt;
    for (int i = 0; i < 8000; ++i)
        bpu.predict(0x3000, eng.nextOutcome(b, rt), 0x4000);

    bpu.gateLargeOff();
    bpu.resetWindowStats();
    for (int i = 0; i < 2000; ++i)
        bpu.predict(0x3000, eng.nextOutcome(b, rt), 0x4000);

    // The shadow large predictor kept its training, so its window
    // rate stays far below the small predictor's.
    EXPECT_LT(bpu.largeWindowMispredictRate(),
              bpu.smallWindowMispredictRate() - 0.1);
}

TEST(BpuComplex, IndirectUsesBtbOnly)
{
    BpuComplex bpu;
    EXPECT_TRUE(bpu.predictIndirect(0x100, 0x700).targetMiss);
    EXPECT_FALSE(bpu.predictIndirect(0x100, 0x700).targetMiss);
    // Branch counter untouched by indirect jumps.
    EXPECT_EQ(bpu.branches(), 0u);
}

TEST(BpuComplex, GatingLosesLargeBtbState)
{
    BpuComplex bpu;
    bpu.predictIndirect(0x100, 0x700);
    EXPECT_FALSE(bpu.predictIndirect(0x100, 0x700).targetMiss);
    bpu.gateLargeOff();
    bpu.gateLargeOn();
    // Large BTB state was lost while gated.
    EXPECT_TRUE(bpu.predictIndirect(0x100, 0x700).targetMiss);
}

TEST(BpuComplex, SmallBtbServesWhileGated)
{
    BpuComplex bpu;
    bpu.predictIndirect(0x100, 0x700);  // installs in both BTBs
    bpu.gateLargeOff();
    EXPECT_FALSE(bpu.predictIndirect(0x100, 0x700).targetMiss);
}

// The shadow large predictor is forked on the first gate-off. An
// eager shadow kept here (built as BpuComplex builds its large side
// and trained on every branch) must give the same profiling rate
// after every event of a random stream of branches, gate and ungate
// events and window resets, for every large organization.
TEST(BpuComplex, LazyShadowMatchesEagerShadow)
{
    const LargePredictorKind kinds[] = {LargePredictorKind::Tournament,
                                        LargePredictorKind::Agree,
                                        LargePredictorKind::Perceptron};
    for (LargePredictorKind kind : kinds) {
        SCOPED_TRACE(largePredictorKindName(kind));
        BpuParams params;
        params.largeKind = kind;
        const TournamentParams &t = params.large;
        std::unique_ptr<DirectionPredictor> shadow;
        switch (kind) {
          case LargePredictorKind::Tournament:
            shadow = std::make_unique<TournamentPredictor>(t);
            break;
          case LargePredictorKind::Agree:
            shadow = std::make_unique<AgreePredictor>(
                t.globalEntries, t.localPatternEntries,
                t.globalHistoryBits);
            break;
          case LargePredictorKind::Perceptron:
            shadow = std::make_unique<PerceptronPredictor>(
                t.localHistoryEntries, t.globalHistoryBits * 2);
            break;
        }
        BpuComplex bpu(params);

        Rng rng(static_cast<std::uint64_t>(kind) + 31);
        // 64 branches, each with its own bias; a few follow a short
        // loop pattern that only history-based predictors learn.
        std::vector<double> bias(64);
        for (double &b : bias)
            b = rng.uniform();
        const int first_gate = 3000 + static_cast<int>(rng.below(3000));
        std::uint64_t trip = 0;
        for (int step = 0; step < 30'000; ++step) {
            const double u = rng.uniform();
            if (step == first_gate || (step > first_gate && u < 0.01)) {
                if (bpu.largeOn())
                    bpu.gateLargeOff();
                else
                    bpu.gateLargeOn();
            } else if (u < 0.03) {
                bpu.resetWindowStats();
                shadow->resetWindow();
            } else {
                const std::size_t b = rng.below(bias.size());
                const Addr pc = 0x10000 + b * 16;
                const bool taken = b < 8 ? (++trip % 4 != 0)
                                         : rng.bernoulli(bias[b]);
                bpu.predict(pc, taken, pc + 0x400);
                shadow->predictAndTrain(pc, taken);
            }
            ASSERT_EQ(bpu.largeWindowMispredictRate(),
                      shadow->windowMispredictRate())
                << "step " << step;
        }
    }
}
