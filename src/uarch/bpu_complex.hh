/**
 * @file
 * The branch prediction unit complex managed by PowerChop.
 *
 * Table I models the BPU as a large tournament (local/global with
 * chooser and big BTB) that can be power gated down to a small
 * local-only predictor with a small BTB. Both predictors are always
 * simulated so the Criticality Decision Engine can read both
 * mispredict rates from "hardware performance monitors" during its
 * profiling windows; only the active one determines timing. Gating
 * the large side off loses its global, chooser and BTB state, which
 * must re-warm after regating (Section IV-D).
 *
 * Profiling additionally uses a never-gated *shadow* copy of the
 * large predictor so MisPred_Large reflects the steady-state benefit
 * of the unit rather than its post-regate re-warm transient. This is
 * the predictor-side analogue of shadow-tag cache monitors and is
 * what a robust implementation of the paper's "hardware performance
 * monitors" requires (see DESIGN.md). Until the large side is first
 * gated off the shadow would equal it, so profiling reads the large
 * predictor until then and the first gate-off copies it.
 */

#ifndef POWERCHOP_UARCH_BPU_COMPLEX_HH
#define POWERCHOP_UARCH_BPU_COMPLEX_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "uarch/bimodal.hh"
#include "uarch/btb.hh"
#include "uarch/direction_predictor.hh"
#include "uarch/tournament.hh"

namespace powerchop
{

/** Organization of the large (gateable) predictor. The paper's
 *  Section III lists local/global/hybrid/adaptive/agree/neural as the
 *  families tournaments draw from; the tournament is Table I's
 *  configuration and the others are selectable alternatives. */
enum class LargePredictorKind : std::uint8_t
{
    Tournament,
    Agree,
    Perceptron,
};

/** @return a display name for a large-predictor organization. */
const char *largePredictorKindName(LargePredictorKind k);

/** Geometry of the BPU complex (Table I). */
struct BpuParams
{
    LargePredictorKind largeKind = LargePredictorKind::Tournament;
    TournamentParams large;
    unsigned largeBtbEntries = 4096;
    unsigned smallPredictorEntries = 1024;
    unsigned smallBtbEntries = 1024;
    unsigned btbAssoc = 4;
};

/** Result of predicting one branch through the active predictor. */
struct BpuOutcome
{
    bool directionMispredict = false;
    bool targetMiss = false;
};

/**
 * The gateable BPU complex: large tournament + small local predictor.
 */
class BpuComplex
{
  public:
    explicit BpuComplex(const BpuParams &params = {});

    /**
     * Predict a branch through the currently active predictor and
     * train both (the inactive one trains as a shadow for profiling;
     * while the large unit is physically gated its shadow stats are
     * still defined because profiling windows only run when it is on).
     *
     * The default tournament organization takes a devirtualized
     * inline path (predictAndTrainFast); other organizations go
     * through the DirectionPredictor interface. Results are identical
     * either way.
     *
     * @param pc     Branch PC.
     * @param taken  Resolved direction.
     * @param target Resolved target (used when taken).
     * @return the active predictor's outcome quality.
     */
    BpuOutcome
    predict(Addr pc, bool taken, Addr target)
    {
        ++branches_;

        // Both predictors observe every branch so that profiling
        // windows can compare their accuracies; this mirrors the
        // paper's use of hardware performance monitors for
        // MisPred_Large/MisPred_Small.
        bool large_pred;
        if (tournamentLarge_) {
            large_pred = tournamentLarge_->predictAndTrainFast(pc, taken);
            if (tournamentShadow_)
                tournamentShadow_->predictAndTrainFast(pc, taken);
        } else {
            large_pred = large_->predictAndTrain(pc, taken);
            if (shadowLarge_)
                shadowLarge_->predictAndTrain(pc, taken);
        }
        bool small_pred = small_.predictAndTrainFast(pc, taken);

        BpuOutcome out;
        bool active_pred = largeOn_ ? large_pred : small_pred;
        out.directionMispredict = (active_pred != taken);

        if (taken) {
            bool large_hit = largeBtb_.predictAndUpdate(pc, target);
            bool small_hit = smallBtb_.predictAndUpdate(pc, target);
            out.targetMiss = largeOn_ ? !large_hit : !small_hit;
        }

        if (out.directionMispredict)
            ++activeMispredicts_;
        if (out.targetMiss)
            ++activeTargetMisses_;
        return out;
    }

    /**
     * Predict an indirect region-chaining jump: BTB target prediction
     * only, no direction prediction (the jump is always taken).
     *
     * @param pc     Jump PC.
     * @param target Resolved target.
     * @return targetMiss set when the active BTB lacked the target.
     */
    BpuOutcome
    predictIndirect(Addr pc, Addr target)
    {
        BpuOutcome out;
        bool large_hit = largeBtb_.predictAndUpdate(pc, target);
        bool small_hit = smallBtb_.predictAndUpdate(pc, target);
        out.targetMiss = largeOn_ ? !large_hit : !small_hit;
        if (out.targetMiss)
            ++activeTargetMisses_;
        return out;
    }

    /** Gate the large side off: timing falls back to the small
     *  predictor and all large-side state is lost. The first call
     *  copies the shadow off the large predictor before the loss. */
    void gateLargeOff();

    /** Gate the large side back on; it restarts cold (re-warm). */
    void gateLargeOn();

    bool largeOn() const { return largeOn_; }

    /** Window mispredict rates for CDE profiling. @{ */
    double largeWindowMispredictRate() const;
    double smallWindowMispredictRate() const;
    void resetWindowStats();
    /** @} */

    /** Lifetime stats. @{ */
    std::uint64_t branches() const { return branches_; }
    std::uint64_t activeMispredicts() const { return activeMispredicts_; }
    std::uint64_t activeTargetMisses() const { return activeTargetMisses_; }
    /** @} */

    const DirectionPredictor &large() const { return *large_; }
    const BimodalPredictor &small() const { return small_; }

  private:
    /** Build a large predictor of the configured organization, or
     *  copy `from` (one such predictor) when given. */
    static std::unique_ptr<DirectionPredictor>
    makeLarge(const BpuParams &params,
              const DirectionPredictor *from = nullptr);

    BpuParams params_;
    std::unique_ptr<DirectionPredictor> large_;
    /** Never-reset shadow of the large predictor; profiling only.
     *  Null until the large side is first gated off. */
    std::unique_ptr<DirectionPredictor> shadowLarge_;
    /** Concrete aliases of large_/shadowLarge_ when the organization
     *  is the default tournament; enables the inline fast path. @{ */
    TournamentPredictor *tournamentLarge_ = nullptr;
    TournamentPredictor *tournamentShadow_ = nullptr;
    /** @} */
    BimodalPredictor small_;
    Btb largeBtb_;
    Btb smallBtb_;
    bool largeOn_ = true;

    std::uint64_t branches_ = 0;
    std::uint64_t activeMispredicts_ = 0;
    std::uint64_t activeTargetMisses_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_UARCH_BPU_COMPLEX_HH
