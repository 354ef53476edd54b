/**
 * @file
 * Results of one simulation run, with the comparison arithmetic the
 * evaluation figures are built from (slowdown, power reduction,
 * energy reduction, leakage reduction).
 */

#ifndef POWERCHOP_SIM_SIM_RESULT_HH
#define POWERCHOP_SIM_SIM_RESULT_HH

#include <cstdint>
#include <string>

#include "core/fault_injector.hh"
#include "core/gating_controller.hh"
#include "power/accumulator.hh"

namespace powerchop
{

/** Simulation operating mode. */
enum class SimMode : std::uint8_t
{
    FullPower,    ///< All units at full power throughout (baseline).
    PowerChop,    ///< PowerChop manages the three units.
    MinPower,     ///< All units at their lowest-power states.
    TimeoutVpu,   ///< Idle-timeout gating on the VPU only (V-E).
    StaticPolicy, ///< A fixed caller-supplied policy for the whole
                  ///< run (Figures 2-3 compare static unit configs).
    DrowsyMlc,    ///< Periodic drowsy MLC (Flautner et al.), the
                  ///< related-work per-line leakage baseline.
};

/** @return a display name for a mode. */
const char *simModeName(SimMode m);

/**
 * Inverse of simModeName() for the five modes a command line or a
 * SIM request can name. static-policy is not among them: it needs a
 * policy that no flag carries.
 * @return false when `name` names none of them.
 */
bool parseSimMode(const std::string &name, SimMode &out);

/** Everything measured in one run. */
struct SimResult
{
    std::string workload;
    std::string machine;
    SimMode mode = SimMode::FullPower;

    /**
     * Committed guest instructions — THE canonical executed-
     * instruction count. Every per-instruction rate in this struct
     * (ipc(), mlcAccessesPerKilo, branchesPerKilo, the mispredict
     * rate) divides by this count. It equals the run's instruction
     * budget: simulate() always retires exactly the budget.
     *
     * It deliberately excludes the extra scalar issue slots of
     * emulated SIMD ops; those are micro-architectural work, not
     * guest instructions, and are reported separately as slotOps
     * (the energy model's Rest-unit dynamic-event count).
     */
    InsnCount instructions = 0;
    Cycles cycles = 0;
    double seconds = 0;

    /**
     * Issue-slot operations: `instructions` plus the extra scalar
     * slots of emulated SIMD expansion (== activity.instructions).
     * This is the base of the Rest unit's dynamic energy, never of
     * the per-instruction rates above.
     */
    double slotOps = 0;

    double ipc() const
    {
        return cycles > 0 ? instructions / cycles : 0.0;
    }

    /** Gating activity. */
    GatingStats gating;

    /** Per-unit gated-off cycle fractions (Figures 9-10). @{ */
    double vpuGatedFraction = 0;
    double bpuGatedFraction = 0;
    double mlcHalfFraction = 0;
    double mlcQuarterFraction = 0;
    double mlcOneWayFraction = 0;
    /** @} */

    /** Policy switches per million cycles (Figure 11). @{ */
    double vpuSwitchesPerMcycle = 0;
    double bpuSwitchesPerMcycle = 0;
    double mlcSwitchesPerMcycle = 0;
    /** @} */

    /** PVT behaviour (Section IV-C3). @{ */
    std::uint64_t pvtLookups = 0;
    std::uint64_t pvtHits = 0;
    std::uint64_t translationsExecuted = 0;
    /** PVT misses as a fraction of executed translations. */
    double pvtMissPerTranslation = 0;
    /** @} */

    /** Cache behaviour. Raw counts are kept next to the derived
     *  per-kilo rates so every denominator is auditable:
     *  mlcAccessesPerKilo == 1000 * mlcAccesses / instructions. @{ */
    double l1HitRate = 0;
    double mlcHitRate = 0;
    std::uint64_t mlcAccesses = 0;
    double mlcAccessesPerKilo = 0;
    /** @} */

    /** Branch behaviour. branchesPerKilo == 1000 * branchLookups /
     *  instructions; branchMispredictRate == branchMispredicts /
     *  branchLookups (0 when there were no lookups). @{ */
    std::uint64_t branchLookups = 0;
    std::uint64_t branchMispredicts = 0;
    double branchMispredictRate = 0;
    double branchesPerKilo = 0;
    /** @} */

    /** SIMD behaviour. @{ */
    std::uint64_t simdOps = 0;
    std::uint64_t simdEmulated = 0;
    /** @} */

    /** Drowsy baseline: time-averaged drowsy line fraction and
     *  wakeup count (DrowsyMlc mode only). @{ */
    double mlcDrowsyFraction = 0;
    std::uint64_t drowsyWakes = 0;
    /** @} */

    /** Resilience: injected-fault counts and QoS watchdog activity.
     *  All zero unless fault injection / the watchdog were enabled;
     *  toString()/toJson() render them only when non-zero so
     *  fault-free output stays byte-identical. @{ */
    FaultStats faults;
    std::uint64_t safeModeActivations = 0;
    double safeModeWindowFraction = 0;
    /** @} */

    /** Raw activity and the resulting energy breakdown. */
    ActivityRecord activity;
    EnergyBreakdown energy;

    // --- comparisons against a baseline run ------------------------------

    /** Fractional slowdown vs. a baseline (positive = slower). */
    double slowdownVs(const SimResult &base) const;

    /** Fractional total-core average-power reduction vs. baseline. */
    double powerReductionVs(const SimResult &base) const;

    /** Fractional total energy reduction vs. baseline. */
    double energyReductionVs(const SimResult &base) const;

    /** Fractional leakage-power reduction vs. baseline. */
    double leakageReductionVs(const SimResult &base) const;

    /** Multi-line human-readable summary. */
    std::string toString() const;

    /** Compact single-object JSON rendering of the run's metrics
     *  (for scripting; no external dependencies). */
    std::string toJson() const;
};

} // namespace powerchop

#endif // POWERCHOP_SIM_SIM_RESULT_HH
