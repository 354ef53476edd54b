#include "sim/sim_machine.hh"

namespace powerchop
{

namespace
{

/** The controller's transition costs: in TimeoutVpu mode the VPU
 *  switches at the timeout baseline's costs. */
GatingPenalties
controllerPenalties(const MachineConfig &machine, SimMode mode)
{
    GatingPenalties p = machine.penalties;
    if (mode == SimMode::TimeoutVpu) {
        p.vpuSwitchCycles = machine.timeout.switchCycles;
        p.vpuSaveRestoreCycles = machine.timeout.saveRestoreCycles;
    }
    return p;
}

} // namespace

SimMachine::SimMachine(const MachineConfig &machine,
                       const WorkloadSpec &workload,
                       const SimOptions &opts)
    : machine_(machine), workload_(workload), opts_(opts),
      core_(machine.core), slot_(1.0 / machine.core.issueWidth),
      usePowerChop_(opts.mode == SimMode::PowerChop),
      useTimeout_(opts.mode == SimMode::TimeoutVpu),
      useDrowsy_(opts.mode == SimMode::DrowsyMlc),
      gen_(workload), bt_(gen_.program(), machine.bt),
      bpu_(machine.bpu), mem_(machine.l1, machine.mlc),
      vpu_(machine.vpu),
      controller_(vpu_, bpu_, mem_,
                  controllerPenalties(machine, opts.mode)),
      monitor_(bpu_, mem_),
      pchop_(machine.powerChop, controller_, bt_.nucleus(), monitor_),
      injector_(machine.faults),
      drowsy_(mem_, machine.drowsy), powerModel_(machine.power),
      trace_(opts.trace),
      timeoutCycles_(opts.timeoutCycles > 0 ? opts.timeoutCycles
                                            : machine.timeout.timeoutCycles),
      insnCycles_(machine.core.interpreterCpi)
{
    if (injector_.active()) {
        controller_.setFaultInjector(&injector_);
        pchop_.setFaultInjector(&injector_);
    }

    if (usePowerChop_) {
        pchop_.setManagedUnits(opts.manageVpu, opts.manageBpu,
                               opts.manageMlc);
        if (opts.windowObserver)
            pchop_.setWindowObserver(opts.windowObserver);
        if (opts.metrics) {
            collector_.emplace(*opts.metrics, &powerModel_,
                               core_.frequencyHz, machine.mlc.assoc);
            pchop_.setMetricsCollector(&*collector_);
        }
    }

    if (trace_) {
        trace_->beginRun(workload.name, machine.name,
                         simModeName(opts.mode), machine.telemetry);
        controller_.setTrace(trace_);
        pchop_.setTrace(trace_);
        if (injector_.active())
            injector_.setTrace(trace_);
    }

    if (opts.mode == SimMode::MinPower) {
        // Everything to its lowest-power state for the entire run.
        cycles_ += controller_.applyPolicy(GatingPolicy::minPower());
    } else if (opts.mode == SimMode::StaticPolicy) {
        cycles_ += controller_.applyPolicy(opts.staticPolicy);
    }
}

void
SimMachine::accrue()
{
    if (cycles_ > lastAccrue_) {
        controller_.accrue(cycles_ - lastAccrue_);
        lastAccrue_ = cycles_;
    }
}

void
SimMachine::creditTranslation(InsnCount n)
{
    accrue();
    if (trace_)
        trace_->setNow(n, cycles_);
    cycles_ += pchop_.onTranslationHead(lastTrans_, n - headInsn_,
                                        cycles_);
}

void
SimMachine::switchVpu(bool on, InsnCount n)
{
    accrue();
    if (trace_)
        trace_->setNow(n, cycles_);
    GatingPolicy policy = GatingPolicy::fullPower();
    policy.vpuOn = on;
    cycles_ += controller_.applyPolicy(policy);
}

void
SimMachine::enterBlock(BlockId blk, InsnCount n)
{
    bool interpreting = false;
    if (curTrace_ && traceIdx_ < curTrace_->blocks.size() &&
        curTrace_->blocks[traceIdx_] == blk) {
        // Still on the translated trace's expected path.
        ++traceIdx_;
    } else {
        curTrace_ = nullptr;
        const RegionEntry entry = bt_.enterRegion(blk);
        cycles_ += entry.extraCycles;
        interpreting = (entry.mode == ExecMode::Interpreted);

        if (entry.mode == ExecMode::Translated) {
            // Credit the instructions executed since the previous
            // head to that translation, then roll the HTB.
            if (usePowerChop_ && lastTrans_ != invalidTranslationId)
                creditTranslation(n);
            lastTrans_ = entry.translation->id;
            curTrace_ = entry.translation;
            traceIdx_ = 1;
        } else {
            lastTrans_ = invalidTranslationId;
        }
        headInsn_ = n;
    }
    insnCycles_ = interpreting ? core_.interpreterCpi : slot_;

    if (useTimeout_ && controller_.current().vpuOn &&
        cycles_ - lastSimd_ >= timeoutCycles_)
        switchVpu(false, n);
    if (useDrowsy_)
        drowsy_.tick(cycles_);
}

void
SimMachine::finish(InsnCount n)
{
    if (usePowerChop_ && lastTrans_ != invalidTranslationId &&
        n > headInsn_)
        creditTranslation(n);

    accrue();
    if (useDrowsy_)
        drowsy_.finish(cycles_);

    if (trace_) {
        trace_->setNow(n, cycles_);
        trace_->endRun(n, cycles_);
    }
}

SimResult
SimMachine::result(InsnCount n) const
{
    // All divisions below are guarded: a short run keeps every rate
    // finite, and a default/failed result stays all-zero instead of
    // propagating NaNs into downstream tables.
    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    SimResult res;
    res.workload = workload_.name;
    res.machine = machine_.name;
    res.mode = opts_.mode;
    res.instructions = n;
    res.cycles = cycles_;
    res.seconds = per(cycles_, core_.frequencyHz);

    res.gating = controller_.stats();
    res.vpuGatedFraction = per(res.gating.vpuGatedCycles, cycles_);
    res.bpuGatedFraction = per(res.gating.bpuGatedCycles, cycles_);
    res.mlcHalfFraction = per(res.gating.mlcHalfCycles, cycles_);
    res.mlcQuarterFraction = per(res.gating.mlcQuarterCycles, cycles_);
    res.mlcOneWayFraction = per(res.gating.mlcOneWayCycles, cycles_);

    const double mcycles = cycles_ / 1e6;
    res.vpuSwitchesPerMcycle = per(res.gating.vpuSwitches, mcycles);
    res.bpuSwitchesPerMcycle = per(res.gating.bpuSwitches, mcycles);
    res.mlcSwitchesPerMcycle = per(res.gating.mlcSwitches, mcycles);

    res.pvtLookups = pchop_.pvt().lookups();
    res.pvtHits = pchop_.pvt().hits();

    // Resilience observability: what the fault injector actually did
    // and how often the QoS watchdog had to roll back. All zero (and
    // absent from renderings) in a fault-free run.
    res.faults = injector_.stats();
    const QosStats &qos = pchop_.qos().stats();
    res.safeModeActivations = qos.safeModeActivations;
    res.safeModeWindowFraction = qos.windowsObserved
        ? static_cast<double>(qos.safeModeWindows) /
              qos.windowsObserved
        : 0.0;
    res.translationsExecuted = pchop_.translationsSeen();
    res.pvtMissPerTranslation = res.translationsExecuted
        ? static_cast<double>(pchop_.pvt().misses()) /
              res.translationsExecuted
        : 0.0;

    res.l1HitRate = mem_.l1().hitRate();
    res.mlcHitRate = mem_.mlc().hitRate();
    res.mlcAccesses = mlcAccesses_;
    res.mlcAccessesPerKilo =
        per(1000.0 * mlcAccesses_, res.instructions);

    res.branchLookups = branchLookups_;
    res.branchMispredicts = branchMispredicts_;
    res.branchMispredictRate =
        per(branchMispredicts_, branchLookups_);
    res.branchesPerKilo =
        per(1000.0 * branchLookups_, res.instructions);

    res.simdOps = vpu_.nativeOps();
    res.simdEmulated = vpu_.emulatedOps();

    ActivityRecord act = act_;
    if (useDrowsy_) {
        res.mlcDrowsyFraction = drowsy_.avgDrowsyFraction();
        res.drowsyWakes = mem_.mlc().drowsyWakes();
        act.mlcDrowsyFraction = res.mlcDrowsyFraction;
        act.drowsyLeakageFraction =
            machine_.drowsy.drowsyLeakageFraction;
    }

    // --- Energy ------------------------------------------------------------
    act.cycles = cycles_;
    act.instructions += res.instructions;
    act.vpuOps = static_cast<double>(vpu_.nativeOps());
    act.bpuLargeLookups = static_cast<double>(bpuLargeLookups_);
    act.vpuGatedCycles = res.gating.vpuGatedCycles;
    act.bpuGatedCycles = res.gating.bpuGatedCycles;
    act.mlcFullCycles = res.gating.mlcFullCycles;
    act.mlcHalfCycles = res.gating.mlcHalfCycles;
    act.mlcQuarterCycles = res.gating.mlcQuarterCycles;
    act.mlcOneWayCycles = res.gating.mlcOneWayCycles;
    act.vpuSwitches = static_cast<double>(res.gating.vpuSwitches);
    act.bpuSwitches = static_cast<double>(res.gating.bpuSwitches);
    act.mlcSwitches = static_cast<double>(res.gating.mlcSwitches);

    res.slotOps = act.instructions;
    res.activity = act;
    res.energy = accumulateEnergy(powerModel_, act, machine_.mlc.assoc);
    return res;
}

} // namespace powerchop
