/**
 * @file
 * The gating controller: enacts policy vectors on the physical units
 * and accounts for every overhead of Section IV-D — switch latencies
 * (50/30/20 cycles for MLC/VPU/BPU), the VPU's 500-cycle register
 * save/restore, MLC dirty-line write-backs, state loss with re-warm,
 * and the per-switch energy overhead events.
 */

#ifndef POWERCHOP_CORE_GATING_CONTROLLER_HH
#define POWERCHOP_CORE_GATING_CONTROLLER_HH

#include <cstdint>

#include "core/policy.hh"
#include "uarch/bpu_complex.hh"
#include "uarch/mem_hierarchy.hh"
#include "uarch/vpu.hh"

namespace powerchop
{

class FaultInjector;

namespace telemetry
{
class TraceRecorder;
} // namespace telemetry

/** Performance penalties of gating transitions (Section IV-D). */
struct GatingPenalties
{
    double mlcSwitchCycles = 50.0;
    double vpuSwitchCycles = 30.0;
    double bpuSwitchCycles = 20.0;

    /** Explicit VPU register-file save/restore per transition. */
    double vpuSaveRestoreCycles = 500.0;

    /** Cycles to write one dirty MLC line back to the LLC; execution
     *  is halted while write-backs occur. */
    double mlcWritebackCyclesPerLine = 4.0;
};

/** Per-unit switch counters and state residency integrals. */
struct GatingStats
{
    std::uint64_t vpuSwitches = 0;
    std::uint64_t bpuSwitches = 0;
    std::uint64_t mlcSwitches = 0;

    double vpuGatedCycles = 0;
    double bpuGatedCycles = 0;
    double mlcFullCycles = 0;
    double mlcHalfCycles = 0;
    double mlcQuarterCycles = 0;
    double mlcOneWayCycles = 0;

    std::uint64_t mlcDirtyWritebacks = 0;
    double stallCycles = 0;
};

/**
 * Applies gating policies to the VPU, BPU and MLC.
 *
 * Residency accounting uses an accrue-then-transition protocol: the
 * simulator calls accrue(delta) as cycles elapse; transitions bill
 * their stalls and bump switch counters.
 */
class GatingController
{
  public:
    /**
     * @param vpu  The vector unit.
     * @param bpu  The branch predictor complex.
     * @param mem  The memory hierarchy (owns the MLC).
     * @param penalties Transition costs.
     */
    GatingController(Vpu &vpu, BpuComplex &bpu, MemHierarchy &mem,
                     const GatingPenalties &penalties = {});

    /**
     * Transition the units to a policy.
     *
     * @param policy Target policy vector.
     * @return stall cycles charged for the transitions.
     */
    double applyPolicy(const GatingPolicy &policy);

    /** Add elapsed cycles to the current states' residency. */
    void accrue(double cycles);

    const GatingPolicy &current() const { return current_; }
    const GatingStats &stats() const { return stats_; }
    const GatingPenalties &penalties() const { return penalties_; }

    /** Bumped whenever the MLC way policy actually changes; lets the
     *  simulator cache the per-policy access counter it increments on
     *  the memory hot path instead of switching on the policy enum
     *  at every MLC access. */
    std::uint64_t mlcPolicyEpoch() const { return mlcPolicyEpoch_; }

    /** Active MLC way fraction under the current policy. */
    double mlcActiveFraction() const;

    /**
     * Attach a fault injector (nullptr detaches). An active injector
     * may bit-flip the controller's current-state record before a
     * policy application (forcing spurious or missed transitions) and
     * stretch transition stalls (slow wakeups).
     */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** Attach a trace recorder (nullptr detaches). Each unit state
     *  change emits one gate-state event with the stall cycles
     *  attributed to that unit's transition; recording never feeds
     *  back into gating decisions. */
    void setTrace(telemetry::TraceRecorder *trace) { trace_ = trace; }

  private:
    Vpu &vpu_;
    BpuComplex &bpu_;
    MemHierarchy &mem_;
    GatingPenalties penalties_;
    GatingPolicy current_ = GatingPolicy::fullPower();
    GatingStats stats_;
    std::uint64_t mlcPolicyEpoch_ = 0;
    FaultInjector *injector_ = nullptr;
    telemetry::TraceRecorder *trace_ = nullptr;
};

} // namespace powerchop

#endif // POWERCHOP_CORE_GATING_CONTROLLER_HH
