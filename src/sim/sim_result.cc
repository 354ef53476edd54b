#include "sim/sim_result.hh"

#include <sstream>

#include "common/logging.hh"

namespace powerchop
{

const char *
simModeName(SimMode m)
{
    switch (m) {
      case SimMode::FullPower:
        return "full-power";
      case SimMode::PowerChop:
        return "powerchop";
      case SimMode::MinPower:
        return "min-power";
      case SimMode::TimeoutVpu:
        return "timeout-vpu";
      case SimMode::StaticPolicy:
        return "static-policy";
      case SimMode::DrowsyMlc:
        return "drowsy-mlc";
    }
    panic("unknown SimMode %d", static_cast<int>(m));
}

bool
parseSimMode(const std::string &name, SimMode &out)
{
    for (SimMode mode : {SimMode::FullPower, SimMode::PowerChop,
                         SimMode::MinPower, SimMode::TimeoutVpu,
                         SimMode::DrowsyMlc}) {
        if (name == simModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

double
SimResult::slowdownVs(const SimResult &base) const
{
    if (base.cycles <= 0)
        panic("slowdownVs against an empty baseline");
    // Same instruction count is assumed; compare cycles directly.
    return cycles / base.cycles - 1.0;
}

double
SimResult::powerReductionVs(const SimResult &base) const
{
    double p0 = base.energy.averagePower();
    if (p0 <= 0)
        panic("powerReductionVs against zero baseline power");
    return 1.0 - energy.averagePower() / p0;
}

double
SimResult::energyReductionVs(const SimResult &base) const
{
    double e0 = base.energy.totalEnergy();
    if (e0 <= 0)
        panic("energyReductionVs against zero baseline energy");
    return 1.0 - energy.totalEnergy() / e0;
}

double
SimResult::leakageReductionVs(const SimResult &base) const
{
    double l0 = base.energy.averageLeakagePower();
    if (l0 <= 0)
        panic("leakageReductionVs against zero baseline leakage");
    return 1.0 - energy.averageLeakagePower() / l0;
}

std::string
SimResult::toJson() const
{
    std::ostringstream out;
    out.precision(10);
    out << "{";
    out << "\"workload\":\"" << workload << "\",";
    out << "\"machine\":\"" << machine << "\",";
    out << "\"mode\":\"" << simModeName(mode) << "\",";
    out << "\"instructions\":" << instructions << ",";
    out << "\"cycles\":" << static_cast<std::uint64_t>(cycles) << ",";
    out << "\"ipc\":" << ipc() << ",";
    out << "\"seconds\":" << seconds << ",";
    out << "\"avg_power_w\":" << energy.averagePower() << ",";
    out << "\"avg_leakage_w\":" << energy.averageLeakagePower() << ",";
    out << "\"total_energy_j\":" << energy.totalEnergy() << ",";
    out << "\"vpu_gated\":" << vpuGatedFraction << ",";
    out << "\"bpu_gated\":" << bpuGatedFraction << ",";
    out << "\"mlc_half\":" << mlcHalfFraction << ",";
    out << "\"mlc_quarter\":" << mlcQuarterFraction << ",";
    out << "\"mlc_one_way\":" << mlcOneWayFraction << ",";
    out << "\"vpu_switches\":" << gating.vpuSwitches << ",";
    out << "\"bpu_switches\":" << gating.bpuSwitches << ",";
    out << "\"mlc_switches\":" << gating.mlcSwitches << ",";
    out << "\"pvt_lookups\":" << pvtLookups << ",";
    out << "\"pvt_hits\":" << pvtHits << ",";
    out << "\"translations\":" << translationsExecuted << ",";
    out << "\"slot_ops\":" << slotOps << ",";
    out << "\"l1_hit_rate\":" << l1HitRate << ",";
    out << "\"mlc_hit_rate\":" << mlcHitRate << ",";
    out << "\"mlc_accesses\":" << mlcAccesses << ",";
    out << "\"mlc_accesses_per_kilo\":" << mlcAccessesPerKilo << ",";
    out << "\"branch_lookups\":" << branchLookups << ",";
    out << "\"branch_mispredicts\":" << branchMispredicts << ",";
    out << "\"branches_per_kilo\":" << branchesPerKilo << ",";
    out << "\"branch_mispredict_rate\":" << branchMispredictRate << ",";
    out << "\"simd_native\":" << simdOps << ",";
    out << "\"simd_emulated\":" << simdEmulated << ",";
    out << "\"mlc_drowsy_fraction\":" << mlcDrowsyFraction << ",";
    out << "\"drowsy_wakes\":" << drowsyWakes;
    // Resilience fields appear only when something happened, so the
    // rendering of a fault-free run stays byte-identical to builds
    // without the resilience subsystem.
    if (faults.total() > 0) {
        out << ",\"faults_injected\":" << faults.total();
        out << ",\"faults_policy\":" << faults.policyCorruptions;
        out << ",\"faults_htb_drop\":" << faults.htbDrops;
        out << ",\"faults_htb_alias\":" << faults.htbAliases;
        out << ",\"faults_ctrl_flip\":" << faults.controllerFlips;
        out << ",\"faults_wakeup\":" << faults.wakeupStretches;
    }
    if (safeModeActivations > 0) {
        out << ",\"safe_mode_activations\":" << safeModeActivations;
        out << ",\"safe_mode_window_fraction\":"
            << safeModeWindowFraction;
    }
    out << "}";
    return out.str();
}

std::string
SimResult::toString() const
{
    std::ostringstream out;
    out << workload << " on " << machine << " [" << simModeName(mode)
        << "]\n";
    out << "  insns " << instructions << ", cycles "
        << static_cast<std::uint64_t>(cycles) << ", IPC " << ipc()
        << "\n";
    out << "  gated: VPU " << vpuGatedFraction * 100 << "%, BPU "
        << bpuGatedFraction * 100 << "%, MLC half "
        << mlcHalfFraction * 100 << "% / 1-way "
        << mlcOneWayFraction * 100 << "%\n";
    out << "  avg power " << energy.averagePower() << " W (leakage "
        << energy.averageLeakagePower() << " W)\n";
    if (faults.total() > 0) {
        out << "  faults injected: " << faults.total() << " (policy "
            << faults.policyCorruptions << ", htb "
            << faults.htbDrops + faults.htbAliases << ", ctrl "
            << faults.controllerFlips << ", wakeup "
            << faults.wakeupStretches << ")\n";
    }
    if (safeModeActivations > 0) {
        out << "  safe mode: " << safeModeActivations
            << " activations, " << safeModeWindowFraction * 100
            << "% of windows\n";
    }
    return out.str();
}

} // namespace powerchop
