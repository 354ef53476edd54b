#include "verify/invariant_auditor.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "power/accumulator.hh"
#include "telemetry/trace.hh"

namespace powerchop
{
namespace verify
{

bool
AuditReport::has(const std::string &invariant) const
{
    for (const auto &v : violations) {
        if (v.invariant == invariant)
            return true;
    }
    return false;
}

std::string
AuditReport::toString() const
{
    if (violations.empty())
        return csprintf("ok (%zu checks)", checks);
    std::ostringstream out;
    out << violations.size() << " invariant violation"
        << (violations.size() == 1 ? "" : "s") << ": ";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        if (i)
            out << "; ";
        out << "[" << violations[i].invariant << "] "
            << violations[i].detail;
    }
    return out.str();
}

InvariantAuditor::InvariantAuditor(double rel_tol) : relTol_(rel_tol)
{
    if (!(rel_tol >= 0))
        fatal("InvariantAuditor: negative tolerance %f", rel_tol);
}

namespace
{

/** Checker bound to one report: counts every evaluated check and
 *  records failures by invariant id. */
class Checker
{
  public:
    Checker(AuditReport &rep, double rel_tol)
        : rep_(rep), relTol_(rel_tol)
    {
    }

    /** a == b up to relTol * max(1, |a|, |b|). */
    bool
    near(double a, double b) const
    {
        const double scale =
            std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
        return std::fabs(a - b) <= relTol_ * scale;
    }

    void
    require(bool ok, const char *invariant, const std::string &detail)
    {
        ++rep_.checks;
        if (!ok)
            rep_.violations.push_back({invariant, detail});
    }

    /** Equality check with the standard "name: a != b" detail. */
    void
    equal(double a, double b, const char *invariant, const char *what)
    {
        require(near(a, b), invariant,
                csprintf("%s: %.12g != %.12g (diff %.3g)", what, a, b,
                         a - b));
    }

    void
    finite(double v, const char *what)
    {
        require(std::isfinite(v), "finite-values",
                csprintf("%s is not finite (%g)", what, v));
    }

    void
    inUnitRange(double v, const char *what)
    {
        require(v >= 0 && v <= 1 + relTol_, "unit-range",
                csprintf("%s = %.12g outside [0, 1]", what, v));
    }

  private:
    AuditReport &rep_;
    double relTol_;
};

} // namespace

void
InvariantAuditor::auditInternal(const SimResult &res,
                                AuditReport &rep) const
{
    Checker c(rep, relTol_);
    const GatingStats &g = res.gating;
    const ActivityRecord &a = res.activity;
    const double cycles = res.cycles;
    const double insns = static_cast<double>(res.instructions);

    // Nothing divides sensibly in an all-zero (default-constructed or
    // failed-job) result; it is vacuously consistent.
    c.finite(res.cycles, "cycles");
    c.finite(res.seconds, "seconds");
    c.finite(res.slotOps, "slotOps");
    for (const double *v :
         {&res.vpuGatedFraction, &res.bpuGatedFraction,
          &res.mlcHalfFraction, &res.mlcQuarterFraction,
          &res.mlcOneWayFraction, &res.vpuSwitchesPerMcycle,
          &res.bpuSwitchesPerMcycle, &res.mlcSwitchesPerMcycle,
          &res.pvtMissPerTranslation, &res.l1HitRate, &res.mlcHitRate,
          &res.mlcAccessesPerKilo, &res.branchMispredictRate,
          &res.branchesPerKilo, &res.mlcDrowsyFraction,
          &res.safeModeWindowFraction})
        c.finite(*v, "derived metric");

    c.require(cycles >= 0, "nonnegative-time",
              csprintf("cycles = %.12g", cycles));
    c.require(res.seconds >= 0, "nonnegative-time",
              csprintf("seconds = %.12g", res.seconds));

    // --- Residency conservation ---------------------------------------
    // The MLC is always in exactly one of its four states, so the four
    // residencies partition the run.
    const double mlc_residency = g.mlcFullCycles + g.mlcHalfCycles +
                                 g.mlcQuarterCycles + g.mlcOneWayCycles;
    c.equal(mlc_residency, cycles, "mlc-residency-conservation",
            "sum of MLC state residencies vs total cycles");

    // The VPU/BPU are on or gated; gated residency never exceeds the
    // run (the ungated remainder is implicit).
    c.require(g.vpuGatedCycles >= 0 &&
                  g.vpuGatedCycles <= cycles * (1 + relTol_) + relTol_,
              "residency-bound",
              csprintf("vpuGatedCycles = %.12g of %.12g cycles",
                       g.vpuGatedCycles, cycles));
    c.require(g.bpuGatedCycles >= 0 &&
                  g.bpuGatedCycles <= cycles * (1 + relTol_) + relTol_,
              "residency-bound",
              csprintf("bpuGatedCycles = %.12g of %.12g cycles",
                       g.bpuGatedCycles, cycles));

    // --- Derived fractions and rates match their raw counters ---------
    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    c.equal(res.vpuGatedFraction, per(g.vpuGatedCycles, cycles),
            "fraction-consistency", "vpuGatedFraction");
    c.equal(res.bpuGatedFraction, per(g.bpuGatedCycles, cycles),
            "fraction-consistency", "bpuGatedFraction");
    c.equal(res.mlcHalfFraction, per(g.mlcHalfCycles, cycles),
            "fraction-consistency", "mlcHalfFraction");
    c.equal(res.mlcQuarterFraction, per(g.mlcQuarterCycles, cycles),
            "fraction-consistency", "mlcQuarterFraction");
    c.equal(res.mlcOneWayFraction, per(g.mlcOneWayCycles, cycles),
            "fraction-consistency", "mlcOneWayFraction");

    const double mcycles = cycles / 1e6;
    c.equal(res.vpuSwitchesPerMcycle,
            per(static_cast<double>(g.vpuSwitches), mcycles),
            "switch-rate-consistency", "vpuSwitchesPerMcycle");
    c.equal(res.bpuSwitchesPerMcycle,
            per(static_cast<double>(g.bpuSwitches), mcycles),
            "switch-rate-consistency", "bpuSwitchesPerMcycle");
    c.equal(res.mlcSwitchesPerMcycle,
            per(static_cast<double>(g.mlcSwitches), mcycles),
            "switch-rate-consistency", "mlcSwitchesPerMcycle");

    const std::pair<double, const char *> unit_ranged[] = {
        {res.vpuGatedFraction, "vpuGatedFraction"},
        {res.bpuGatedFraction, "bpuGatedFraction"},
        {res.mlcHalfFraction, "mlcHalfFraction"},
        {res.mlcQuarterFraction, "mlcQuarterFraction"},
        {res.mlcOneWayFraction, "mlcOneWayFraction"},
        {res.l1HitRate, "l1HitRate"},
        {res.mlcHitRate, "mlcHitRate"},
        {res.branchMispredictRate, "branchMispredictRate"},
        {res.mlcDrowsyFraction, "mlcDrowsyFraction"},
        {res.safeModeWindowFraction, "safeModeWindowFraction"},
    };
    for (const auto &[v, what] : unit_ranged)
        c.inUnitRange(v, what);

    // --- Canonical instruction-count denominators ---------------------
    // Every per-kilo / per-cycle rate divides by `instructions`, the
    // committed guest count (see SimResult), never by slotOps.
    c.equal(res.mlcAccessesPerKilo,
            per(1000.0 * static_cast<double>(res.mlcAccesses), insns),
            "rate-denominator", "mlcAccessesPerKilo");
    c.equal(res.branchesPerKilo,
            per(1000.0 * static_cast<double>(res.branchLookups), insns),
            "rate-denominator", "branchesPerKilo");
    c.equal(res.branchMispredictRate,
            per(static_cast<double>(res.branchMispredicts),
                static_cast<double>(res.branchLookups)),
            "rate-denominator", "branchMispredictRate");
    c.require(res.branchMispredicts <= res.branchLookups,
              "counter-bound",
              csprintf("branchMispredicts %llu > branchLookups %llu",
                       static_cast<unsigned long long>(
                           res.branchMispredicts),
                       static_cast<unsigned long long>(
                           res.branchLookups)));

    c.require(res.pvtHits <= res.pvtLookups, "counter-bound",
              csprintf("pvtHits %llu > pvtLookups %llu",
                       static_cast<unsigned long long>(res.pvtHits),
                       static_cast<unsigned long long>(
                           res.pvtLookups)));
    c.equal(res.pvtMissPerTranslation,
            per(static_cast<double>(res.pvtLookups - res.pvtHits),
                static_cast<double>(res.translationsExecuted)),
            "rate-denominator", "pvtMissPerTranslation");

    // --- SimResult vs ActivityRecord cross-consistency ----------------
    c.equal(a.cycles, cycles, "activity-consistency",
            "activity.cycles vs result cycles");
    c.equal(a.vpuOps, static_cast<double>(res.simdOps),
            "activity-consistency", "activity.vpuOps vs simdOps");
    c.equal(a.vpuGatedCycles, g.vpuGatedCycles, "activity-consistency",
            "activity.vpuGatedCycles vs gating");
    c.equal(a.bpuGatedCycles, g.bpuGatedCycles, "activity-consistency",
            "activity.bpuGatedCycles vs gating");
    c.equal(a.vpuSwitches, static_cast<double>(g.vpuSwitches),
            "activity-consistency", "activity.vpuSwitches vs gating");
    c.equal(a.bpuSwitches, static_cast<double>(g.bpuSwitches),
            "activity-consistency", "activity.bpuSwitches vs gating");
    c.equal(a.mlcSwitches, static_cast<double>(g.mlcSwitches),
            "activity-consistency", "activity.mlcSwitches vs gating");
    // The energy model reads the MLC residencies from the activity
    // record, which copies the gating view in every mode.
    const double act_mlc_residency =
        a.mlcFullCycles + a.mlcHalfCycles + a.mlcQuarterCycles +
        a.mlcOneWayCycles;
    c.equal(act_mlc_residency, cycles, "mlc-residency-conservation",
            "sum of activity MLC residencies vs total cycles");

    // MLC accesses are bucketed by the way-state they were served
    // under; the buckets partition the raw access count.
    const double act_mlc_accesses = a.mlcAccessesFull +
                                    a.mlcAccessesHalf +
                                    a.mlcAccessesQuarter +
                                    a.mlcAccessesOne;
    c.equal(act_mlc_accesses, static_cast<double>(res.mlcAccesses),
            "mlc-access-partition",
            "sum of per-state MLC access buckets vs mlcAccesses");

    c.require(a.bpuLargeLookups <=
                  static_cast<double>(res.branchLookups) *
                      (1 + relTol_),
              "counter-bound",
              csprintf("bpuLargeLookups %.12g > branchLookups %llu",
                       a.bpuLargeLookups,
                       static_cast<unsigned long long>(
                           res.branchLookups)));

    // --- SIMD and slot-op accounting ----------------------------------
    // Every SIMD instruction ran natively or emulated, and both are
    // guest instructions.
    c.require(res.simdOps + res.simdEmulated <= res.instructions,
              "counter-bound",
              csprintf("simdOps %llu + simdEmulated %llu > "
                       "instructions %llu",
                       static_cast<unsigned long long>(res.simdOps),
                       static_cast<unsigned long long>(
                           res.simdEmulated),
                       static_cast<unsigned long long>(
                           res.instructions)));
    c.equal(res.slotOps, a.instructions, "slot-op-consistency",
            "slotOps vs activity.instructions");
    c.require(res.slotOps >= insns * (1 - relTol_) || insns == 0,
              "slot-op-consistency",
              csprintf("slotOps %.12g < instructions %.12g",
                       res.slotOps, insns));
}

AuditReport
InvariantAuditor::audit(const SimResult &res) const
{
    AuditReport rep;
    auditInternal(res, rep);
    return rep;
}

AuditReport
InvariantAuditor::audit(const SimResult &res,
                        const MachineConfig &machine) const
{
    AuditReport rep;
    auditInternal(res, rep);
    Checker c(rep, relTol_);

    const double cycles = res.cycles;
    const double insns = static_cast<double>(res.instructions);

    // --- Design-point recomputations ----------------------------------
    c.equal(res.seconds,
            cycles > 0 ? cycles / machine.core.frequencyHz : 0.0,
            "seconds-consistency", "seconds vs cycles / frequency");

    // No instruction retires in less than one issue slot.
    c.require(res.ipc() <=
                  machine.core.issueWidth * (1 + relTol_),
              "ipc-bound",
              csprintf("ipc %.12g exceeds issue width %u", res.ipc(),
                       machine.core.issueWidth));

    // Emulated SIMD expansion is the only source of extra issue slots.
    const double emulated_extra =
        static_cast<double>(res.simdEmulated) *
        (machine.vpu.width * machine.vpu.emulationExpansion - 1.0);
    c.equal(res.slotOps, insns + emulated_extra, "slot-op-consistency",
            "slotOps vs instructions + emulated SIMD expansion");

    // The reported energy must be exactly what the accumulator makes
    // of the reported activity — no side-channel adjustments. Same
    // code, same inputs, so the bound is far below relTol.
    CorePowerModel model(machine.power);
    EnergyBreakdown want =
        accumulateEnergy(model, res.activity, machine.mlc.assoc);
    Checker tight(rep, 1e-12);
    tight.equal(res.energy.seconds, want.seconds, "energy-recompute",
                "energy.seconds");
    for (unsigned u = 0; u < numUnits; ++u) {
        const Unit unit = static_cast<Unit>(u);
        tight.equal(res.energy.unit(unit).leakage,
                    want.unit(unit).leakage, "energy-recompute",
                    csprintf("%s leakage energy", unitName(unit))
                        .c_str());
        tight.equal(res.energy.unit(unit).dynamic,
                    want.unit(unit).dynamic, "energy-recompute",
                    csprintf("%s dynamic energy", unitName(unit))
                        .c_str());
        tight.equal(res.energy.unit(unit).gatingOverhead,
                    want.unit(unit).gatingOverhead, "energy-recompute",
                    csprintf("%s gating overhead", unitName(unit))
                        .c_str());
    }

    // --- Mode-specific laws -------------------------------------------
    if (res.mode == SimMode::FullPower) {
        const GatingStats &g = res.gating;
        c.require(g.vpuSwitches == 0 && g.bpuSwitches == 0 &&
                      g.mlcSwitches == 0,
                  "full-power-never-gates",
                  csprintf("switches in FullPower mode: vpu %llu bpu "
                           "%llu mlc %llu",
                           static_cast<unsigned long long>(
                               g.vpuSwitches),
                           static_cast<unsigned long long>(
                               g.bpuSwitches),
                           static_cast<unsigned long long>(
                               g.mlcSwitches)));
        c.equal(g.vpuGatedCycles + g.bpuGatedCycles + g.mlcHalfCycles +
                    g.mlcQuarterCycles + g.mlcOneWayCycles,
                0.0, "full-power-never-gates",
                "gated residency in FullPower mode");
        c.equal(g.mlcFullCycles, cycles, "full-power-never-gates",
                "mlcFullCycles vs cycles in FullPower mode");
    }

    return rep;
}

AuditReport
InvariantAuditor::auditTrace(
    const telemetry::TraceRecorder &trace) const
{
    AuditReport rep;
    Checker c(rep, relTol_);

    InsnCount prev_insns = 0;
    Cycles prev_cycles = 0;
    std::size_t idx = 0;
    for (const auto &ev : trace.events()) {
        c.require(std::isfinite(ev.cycles) && ev.cycles >= 0,
                  "trace-timestamp-range",
                  csprintf("event %zu cycles = %g", idx, ev.cycles));
        c.require(ev.insns >= prev_insns, "trace-monotonic-insns",
                  csprintf("event %zu insns %llu < previous %llu", idx,
                           static_cast<unsigned long long>(ev.insns),
                           static_cast<unsigned long long>(
                               prev_insns)));
        c.require(ev.cycles >= prev_cycles - relTol_,
                  "trace-monotonic-cycles",
                  csprintf("event %zu cycles %.12g < previous %.12g",
                           idx, ev.cycles, prev_cycles));
        prev_insns = ev.insns;
        prev_cycles = std::max(prev_cycles, ev.cycles);
        ++idx;
    }

    if (!trace.events().empty()) {
        c.require(trace.endInsns() >= prev_insns,
                  "trace-end-bound",
                  csprintf("endInsns %llu < last event insns %llu",
                           static_cast<unsigned long long>(
                               trace.endInsns()),
                           static_cast<unsigned long long>(
                               prev_insns)));
        c.require(trace.endCycles() >= prev_cycles - relTol_,
                  "trace-end-bound",
                  csprintf("endCycles %.12g < last event cycles %.12g",
                           trace.endCycles(), prev_cycles));
    }

    return rep;
}

} // namespace verify
} // namespace powerchop
