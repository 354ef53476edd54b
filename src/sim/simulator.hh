/**
 * @file
 * The simulator: executes a synthetic workload on a machine design
 * point under one of the operating modes and produces a SimResult.
 *
 * The loop follows the hybrid-processor execution model: the workload
 * generator supplies the guest dynamic instruction stream; the BT
 * layer decides at each region head whether the region runs from the
 * region cache or through the interpreter; the timing model charges
 * issue slots plus penalties from the BPU, MLC and VPU models; and
 * PowerChop (or a baseline gater) manages the units' power states.
 */

#ifndef POWERCHOP_SIM_SIMULATOR_HH
#define POWERCHOP_SIM_SIMULATOR_HH

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>

#include "sim/machine_config.hh"
#include "sim/sim_result.hh"
#include "workload/generator.hh"

namespace powerchop
{

namespace telemetry
{
class TraceRecorder;
class MetricsRegistry;
} // namespace telemetry

class TranslationMetadataCache;

/**
 * Thrown by simulate() when its cancel flag is raised mid-run (the
 * robust job runner uses this for per-job wall-clock timeouts).
 * Deliberately not a FatalError/PanicError: cancellation is neither a
 * user mistake nor a simulator bug.
 */
class SimCancelledError : public std::runtime_error
{
  public:
    explicit SimCancelledError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Per-run options. */
struct SimOptions
{
    SimMode mode = SimMode::FullPower;

    /** Instructions to simulate. */
    InsnCount maxInstructions = 10'000'000;

    /** Restrict PowerChop to a subset of units (Section V-C). @{ */
    bool manageVpu = true;
    bool manageBpu = true;
    bool manageMlc = true;
    /** @} */

    /** Override the timeout period (TimeoutVpu mode). 0 = config. */
    double timeoutCycles = 0;

    /** The fixed policy applied in StaticPolicy mode. */
    GatingPolicy staticPolicy = GatingPolicy::fullPower();

    /** Optional per-window observer (receives every HTB window
     *  report; PowerChop mode only). */
    std::function<void(const WindowReport &)> windowObserver;

    /**
     * Optional per-interval sampler for time-series figures: called
     * every sampleInterval instructions with (insns so far, cycles so
     * far). 0 disables.
     */
    InsnCount sampleInterval = 0;
    std::function<void(InsnCount, Cycles)> sampler;

    /**
     * Optional cooperative-cancellation flag, polled at every basic-
     * block head and additionally every ~64K instructions inside a
     * burst (so giant blocks cannot defer cancellation indefinitely).
     * When another thread sets it, simulate() stops at the next poll
     * by throwing SimCancelledError. The flag must outlive the call.
     */
    const std::atomic<bool> *cancelFlag = nullptr;

    /**
     * Optional shared cache of per-workload translation metadata
     * (bt/translation_cache.hh). When set, simulate() acquires the
     * workload's pre-derived metadata set (building it on first use)
     * and routes it to the translator, so jobs of the same workload
     * within a batch share one derivation. Results are bit-identical
     * with or without the cache, at any worker count. The cache must
     * outlive the call; SimJobRunner wires its own cache in here when
     * the job didn't bring one.
     */
    TranslationMetadataCache *translationCache = nullptr;

    /**
     * Optional trace recorder (see telemetry/trace.hh). When set,
     * gate-state transitions, window edges, CDE decisions, QoS
     * activity and injected faults are recorded as typed events under
     * MachineConfig::telemetry's switches. Recording never feeds back
     * into simulation, so results are bit-identical either way. One
     * recorder per call; must outlive the call.
     */
    telemetry::TraceRecorder *trace = nullptr;

    /**
     * Optional metrics registry (see telemetry/metrics.hh): PowerChop
     * mode snapshots the canonical per-window series into it. The
     * registry must be empty (fresh) and outlive the call; its probe
     * callbacks are detached before simulate() returns.
     */
    telemetry::MetricsRegistry *metrics = nullptr;

    /**
     * Run the invariant auditor (verify/invariant_auditor.hh) on the
     * finished result before returning; a violated conservation law
     * throws verify::InvariantViolationError naming every broken
     * invariant. The job runner turns this on for every job when
     * POWERCHOP_AUDIT is set.
     */
    bool audit = false;
};

/**
 * Run one simulation.
 *
 * @param machine  The design point.
 * @param workload The application model.
 * @param opts     Mode and instrumentation options.
 * @return the measured result.
 */
SimResult simulate(const MachineConfig &machine,
                   const WorkloadSpec &workload, const SimOptions &opts);

/**
 * Process-wide count of guest instructions simulated by completed
 * simulate() calls, across all threads. The parallel job runner
 * snapshots it around a batch to compute aggregate MIPS.
 */
InsnCount simulatedInstructionTally();

} // namespace powerchop

#endif // POWERCHOP_SIM_SIMULATOR_HH
