/**
 * @file
 * One simulated machine: a run's components wired for its SimMode,
 * plus the cycle, activity and translation-attribution state.
 *
 * simulate() and verify::referenceSimulate() share everything but
 * what the differential oracle exists to check: instruction stepping
 * (slot bursts vs one generator next() per instruction), the sampler,
 * the destination of the per-policy MLC access counter, cancellation
 * polling and simulate()'s shared translation metadata. The block-
 * head step, the per-instruction charges, the end-of-run flush and
 * the result roll-up are written once, here.
 */

#ifndef POWERCHOP_SIM_SIM_MACHINE_HH
#define POWERCHOP_SIM_SIM_MACHINE_HH

#include <optional>

#include "sim/simulator.hh"
#include "telemetry/metrics.hh"

namespace powerchop
{

class SimMachine
{
  public:
    /**
     * Build the components for one run and wire them for opts.mode:
     * PowerChop's managed units and window observer, the fault
     * injector, the trace recorder and metrics collector when
     * attached, and the whole-run policy of MinPower/StaticPolicy.
     * All three arguments must outlive the machine.
     */
    SimMachine(const MachineConfig &machine, const WorkloadSpec &workload,
               const SimOptions &opts);

    SimMachine(const SimMachine &) = delete;

    WorkloadGenerator &gen() { return gen_; }
    BtSystem &bt() { return bt_; }
    PerfMonitor &monitor() { return monitor_; }
    const GatingController &controller() const { return controller_; }
    Cycles cycles() const { return cycles_; }

    /** The loops add the per-policy MLC access counts here. */
    ActivityRecord &activity() { return act_; }

    /**
     * The block-head step, with @p n instructions executed so far:
     * stay on the current translation's trace while the block
     * sequence follows it, otherwise enter the region headed by
     * @p blk, crediting the instructions since the previous
     * translated head to that translation (PowerChop mode); then gate
     * off a VPU idle for the timeout period (TimeoutVpu mode) and tick
     * the drowsy gater. Fixes the execution mode, and so issue()'s
     * cost, for the whole block.
     */
    void enterBlock(BlockId blk, InsnCount n);

    /** Charge the issue cost of @p k instructions of the current
     *  block, one add each: the accumulation order of the cycle count
     *  is part of the bit-exact contract. */
    void
    issue(InsnCount k = 1)
    {
        for (InsnCount i = 0; i != k; ++i)
            cycles_ += insnCycles_;
    }

    /** The SIMD instruction after @p n executed ones: restart the
     *  idle clock and wake a timeout-gated VPU (TimeoutVpu mode), and
     *  charge the extra issue slots (and energy) of scalar
     *  emulation. */
    void
    simd(InsnCount n)
    {
        if (useTimeout_) {
            lastSimd_ = cycles_;
            if (!controller_.current().vpuOn)
                switchVpu(true, n);
        }
        const double slots = vpu_.executeSimd();
        if (slots > 1.0) {
            cycles_ += (slots - 1.0) * slot_;
            act_.instructions += slots - 1.0;
        }
    }

    /**
     * A load or store: charge the MLC hit, drowsy-line wake or memory
     * miss penalty (misses adjacent to the previous miss are largely
     * hidden by the stream detector).
     *
     * @return whether the access reached the MLC; the caller counts
     *         it against the MLC policy in effect.
     */
    bool
    memAccess(Addr addr, bool is_store)
    {
        const MemAccessResult r = mem_.access(addr, is_store);
        const double scale = is_store ? core_.storeStallFraction : 1.0;
        if (r.level == MemLevel::Mlc) {
            cycles_ += core_.mlcHitPenalty * scale;
            if (r.mlcWokeDrowsy)
                cycles_ += machine_.drowsy.wakePenaltyCycles * scale;
        } else if (r.level == MemLevel::Memory) {
            const Addr line = addr >> 6; // 64-byte lines
            const Addr delta = line > lastMissLine_
                ? line - lastMissLine_ : lastMissLine_ - line;
            const bool streamed = delta <= 2;
            lastMissLine_ = line;
            cycles_ += core_.memoryPenalty * scale *
                       (streamed ? core_.streamMissFactor : 1.0);
        }
        if (r.level == MemLevel::L1)
            return false;
        ++mlcAccesses_;
        return true;
    }

    /** An internal conditional branch. */
    void
    branch(Addr pc, bool taken, Addr target)
    {
        const BpuOutcome o = bpu_.predict(pc, taken, target);
        ++branchLookups_;
        if (bpu_.largeOn())
            ++bpuLargeLookups_;
        if (o.directionMispredict) {
            cycles_ += core_.mispredictPenalty;
            ++branchMispredicts_;
        } else if (o.targetMiss) {
            cycles_ += core_.btbMissPenalty;
        }
    }

    /** A block's region-chaining terminator: direct-chained in the
     *  region cache, so only a changed target costs a fetch bubble. */
    void
    terminator(Addr pc, Addr target)
    {
        if (bpu_.predictIndirect(pc, target).targetMiss)
            cycles_ += core_.btbMissPenalty;
    }

    /**
     * End the run after @p n instructions: credit the instructions
     * after the final translated head (otherwise the last HTB window
     * of every run would be lost), settle residencies and the drowsy
     * gater, and close the trace.
     */
    void finish(InsnCount n);

    /** Roll up residencies, rates and energy of the finished run. */
    SimResult result(InsnCount n) const;

  private:
    void accrue();

    /** PowerChop's HTB/CDE step for the last translation. */
    void creditTranslation(InsnCount n);

    /** The timeout baseline's VPU transition after @p n instructions,
     *  made by the controller like every other unit power-state
     *  change. Out of line: it is rare, and simd() stays small. */
    void switchVpu(bool on, InsnCount n);

    const MachineConfig &machine_;
    const WorkloadSpec &workload_;
    const SimOptions &opts_;
    const CoreParams &core_;
    const double slot_;
    const bool usePowerChop_, useTimeout_, useDrowsy_;

    WorkloadGenerator gen_;
    BtSystem bt_;
    BpuComplex bpu_;
    MemHierarchy mem_;
    Vpu vpu_;
    GatingController controller_;
    PerfMonitor monitor_;
    PowerChopUnit pchop_;
    /** Per-run fault source: seeded from the config and private to
     *  the run, so fault sequences are deterministic on any worker
     *  count. */
    FaultInjector injector_;
    DrowsyMlc drowsy_;
    CorePowerModel powerModel_;
    telemetry::TraceRecorder *const trace_;
    std::optional<telemetry::WindowMetricsCollector> collector_;

    Cycles cycles_ = 0;

    /** The timeout baseline's idle clock: its period, and the cycle
     *  of the last SIMD op. */
    const double timeoutCycles_;
    Cycles lastSimd_ = 0;

    /**
     * Residency accounting: accrue() charges elapsed cycles to the
     * policy in effect when they elapsed; transition stalls are
     * charged to the *new* policy (lastAccrue_ is left at the pre-
     * stall time), so per-unit residencies always sum to the run's
     * total cycles — the conservation law the invariant auditor
     * checks.
     */
    Cycles lastAccrue_ = 0;

    /** Issue cost of one instruction in the current block's mode. */
    double insnCycles_;

    ActivityRecord act_;
    std::uint64_t branchLookups_ = 0;
    std::uint64_t branchMispredicts_ = 0;
    std::uint64_t bpuLargeLookups_ = 0;
    std::uint64_t mlcAccesses_ = 0;

    /** Translation attribution: the instructions since the last
     *  region entry (counted from headInsn_) are credited to lastTrans_
     *  at the next translated head. */
    TranslationId lastTrans_ = invalidTranslationId;
    InsnCount headInsn_ = 0;

    /** Multi-block trace execution: while the dynamic block sequence
     *  matches the current translation's trace, execution stays
     *  inside it — no region-cache lookup and no new translation-head
     *  event until the trace exits (side exit or completion). */
    const Translation *curTrace_ = nullptr;
    std::size_t traceIdx_ = 0;

    /** Line of the previous memory miss, for the stream detector. */
    Addr lastMissLine_ = ~static_cast<Addr>(0);
};

} // namespace powerchop

#endif // POWERCHOP_SIM_SIM_MACHINE_HH
