#include "verify/differential.hh"

#include <sstream>

#include "common/logging.hh"
#include "verify/invariant_auditor.hh"
#include "verify/reference_simulator.hh"
#include "workload/suites.hh"

namespace powerchop
{
namespace verify
{

std::string
DifferentialCase::toString() const
{
    std::string s =
        workload + " on " + machine + ", " + simModeName(mode);
    if (faultSeed)
        s += csprintf(", fault seed %llu",
                      static_cast<unsigned long long>(faultSeed));
    return s;
}

std::string
DifferentialOutcome::toString() const
{
    if (ok())
        return diffCase.toString() + ": ok";
    std::ostringstream out;
    out << diffCase.toString() << ": FAIL";
    if (!mismatches.empty()) {
        out << " [diverged:";
        for (const auto &m : mismatches)
            out << " " << m.key << " (" << m.detail << ")";
        out << "]";
    }
    if (!violations.empty()) {
        out << " [invariants:";
        for (const auto &v : violations)
            out << " " << v.invariant << " (" << v.detail << ")";
        out << "]";
    }
    return out.str();
}

std::size_t
DifferentialReport::failures() const
{
    std::size_t n = 0;
    for (const auto &o : outcomes)
        if (!o.ok())
            ++n;
    return n;
}

std::string
DifferentialReport::toString() const
{
    if (ok())
        return csprintf("all %zu cases ok", outcomes.size());
    std::ostringstream out;
    out << failures() << " of " << outcomes.size()
        << " cases failed:\n";
    for (const auto &o : outcomes)
        if (!o.ok())
            out << "  " << o.toString() << "\n";
    return out.str();
}

namespace
{

MachineConfig
machineByName(const std::string &name)
{
    if (name == "server")
        return serverConfig();
    if (name == "mobile")
        return mobileConfig();
    fatal("differential: unknown machine '%s' (want server|mobile)",
          name.c_str());
}

} // namespace

void
enableFaults(MachineConfig &machine, std::uint64_t seed)
{
    machine.faults.enabled = true;
    machine.faults.seed = seed;
    machine.faults.policyCorruptRate = 0.02;
    machine.faults.htbDropRate = 0.01;
    machine.faults.htbAliasRate = 0.01;
    machine.faults.controllerFlipRate = 0.02;
    machine.faults.wakeupStretchRate = 0.05;
}

DifferentialOutcome
runDifferentialCase(const DifferentialCase &diffCase, InsnCount insns)
{
    DifferentialOutcome out;
    out.diffCase = diffCase;

    MachineConfig machine = machineByName(diffCase.machine);
    if (diffCase.faultSeed)
        enableFaults(machine, diffCase.faultSeed);
    WorkloadSpec workload = findWorkload(diffCase.workload);

    SimOptions opts;
    opts.mode = diffCase.mode;
    opts.maxInstructions = insns;

    SimResult optimized = simulate(machine, workload, opts);
    SimResult reference = referenceSimulate(machine, workload, opts);

    // The oracle's contract is bit-exactness: same arithmetic in the
    // same order, so tolerance zero.
    out.mismatches = compareResults(optimized, reference, 0.0);

    InvariantAuditor auditor;
    for (const auto &v : auditor.audit(optimized, machine).violations)
        out.violations.push_back(
            {"optimized/" + v.invariant, v.detail});
    for (const auto &v : auditor.audit(reference, machine).violations)
        out.violations.push_back(
            {"reference/" + v.invariant, v.detail});

    return out;
}

DifferentialReport
runDifferentialMatrix(
    const DifferentialMatrix &matrix,
    const std::function<void(const DifferentialCase &)> &progress)
{
    // One representative per suite keeps the default matrix small
    // enough for CI while still crossing every workload generator
    // path (SIMD-heavy, branchy, cache-resident, phased).
    std::vector<std::string> workloads = matrix.workloads;
    if (workloads.empty())
        workloads = {"perlbench", "namd", "canneal", "msn"};

    std::vector<std::string> machines = matrix.machines;
    if (machines.empty())
        machines = {"server", "mobile"};

    std::vector<SimMode> modes = matrix.modes;
    if (modes.empty())
        modes = {SimMode::FullPower,  SimMode::PowerChop,
                 SimMode::MinPower,   SimMode::TimeoutVpu,
                 SimMode::StaticPolicy, SimMode::DrowsyMlc};

    std::vector<std::uint64_t> seeds = matrix.faultSeeds;
    if (seeds.empty())
        seeds = {0};

    DifferentialReport report;
    for (const auto &w : workloads) {
        for (const auto &m : machines) {
            for (SimMode mode : modes) {
                for (std::uint64_t seed : seeds) {
                    DifferentialCase c{w, m, mode, seed};
                    if (progress)
                        progress(c);
                    report.outcomes.push_back(
                        runDifferentialCase(c, matrix.insns));
                }
            }
        }
    }
    return report;
}

} // namespace verify
} // namespace powerchop
