/**
 * @file
 * The differential check: hold the optimized simulate() loop to the
 * reference simulator's output, bit for bit, across a matrix of
 * (workload, machine, mode, fault seed) points.
 *
 * One case runs both loops on identical inputs and feeds the pair to
 * compareResults() at tolerance zero; both results are additionally
 * run through the invariant auditor, so a case fails either when the
 * loops diverge or when either loop's books don't balance. The
 * matrix runner expands a compact spec (workload names x machines x
 * modes x seeds) into cases and aggregates a report; the CLI's
 * `powerchop verify` subcommand and the CI verify job are thin
 * wrappers around it.
 */

#ifndef POWERCHOP_VERIFY_DIFFERENTIAL_HH
#define POWERCHOP_VERIFY_DIFFERENTIAL_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "verify/golden.hh"
#include "verify/invariant_auditor.hh"

namespace powerchop
{
namespace verify
{

/** One point of the differential matrix. */
struct DifferentialCase
{
    std::string workload;
    std::string machine; // "server" or "mobile"
    SimMode mode = SimMode::PowerChop;

    /** Fault-injection seed; 0 leaves the config's fault settings
     *  untouched (fault-free by default). Non-zero enables the
     *  config's default fault mix under this seed. */
    std::uint64_t faultSeed = 0;

    std::string toString() const;
};

/** Outcome of one case. */
struct DifferentialOutcome
{
    DifferentialCase diffCase;

    /** Field mismatches between optimized and reference results. */
    std::vector<GoldenMismatch> mismatches;

    /** Invariant violations found in either loop's result. */
    std::vector<AuditViolation> violations;

    bool ok() const { return mismatches.empty() && violations.empty(); }

    std::string toString() const;
};

/** Aggregate over a matrix. */
struct DifferentialReport
{
    std::vector<DifferentialOutcome> outcomes;

    std::size_t failures() const;
    bool ok() const { return failures() == 0; }

    /** One line per failing case (or "all N cases ok"). */
    std::string toString() const;
};

/** The fault mix a non-zero fault seed enables: every fault class at
 *  a rate that fires tens of times in a 200k-instruction run. */
void enableFaults(MachineConfig &machine, std::uint64_t seed);

/**
 * Run one differential case.
 *
 * @param diffCase The matrix point.
 * @param insns    Instruction budget per run.
 * @return the outcome (mismatches + audit violations).
 */
DifferentialOutcome runDifferentialCase(const DifferentialCase &diffCase,
                                        InsnCount insns);

/** Compact matrix spec. */
struct DifferentialMatrix
{
    /** Instruction budget per run; small enough for CI, large enough
     *  to cross many HTB windows and phase changes. */
    InsnCount insns = 200'000;

    /** Workload names (findWorkload()); empty = a representative
     *  default set spanning the four suites. */
    std::vector<std::string> workloads;

    /** Machines ("server"/"mobile"); empty = both. */
    std::vector<std::string> machines;

    /** Modes; empty = all six. */
    std::vector<SimMode> modes;

    /** Fault seeds (0 = fault-free); empty = {0}. */
    std::vector<std::uint64_t> faultSeeds;
};

/**
 * Expand a matrix spec and run every case.
 *
 * @param matrix The spec (empty dimensions get defaults).
 * @param progress Optional per-case progress callback (CLI printing);
 *        called before each case runs.
 */
DifferentialReport runDifferentialMatrix(
    const DifferentialMatrix &matrix,
    const std::function<void(const DifferentialCase &)> &progress = {});

} // namespace verify
} // namespace powerchop

#endif // POWERCHOP_VERIFY_DIFFERENTIAL_HH
