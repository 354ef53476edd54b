/**
 * @file
 * The reference simulator: a deliberately simple second driver of the
 * simulated machine, used as a differential oracle for simulate().
 *
 * Both loops run the same SimMachine (sim/sim_machine.hh): its
 * wiring for the SimMode, block-head step, per-instruction charges
 * and result roll-up are written once and covered by both. What the
 * oracle checks is the production loop's own machinery, and each of
 * those parts stays independent here:
 *
 *  - instruction stepping: simulate() runs whole blocks as bursts over
 *    pre-decoded slot streams; referenceSimulate() calls the
 *    generator's next() once per instruction and finds block heads
 *    with atBlockHead();
 *  - the sampler: a countdown there, an explicit modulo here;
 *  - the per-policy MLC access counter: simulate() caches its
 *    destination per MLC policy epoch, the reference picks it from
 *    the controller's live policy at every access;
 *  - cancellation polling and its messages;
 *  - translation metadata: only simulate() uses
 *    SimOptions::translationCache; the reference lets the translator
 *    derive its own, so a bug in the cache shows as a divergence.
 *
 * The contract is bit-identical results: same (machine, workload,
 * options) must produce a SimResult whose every field matches
 * simulate()'s exactly, including floating-point state, because both
 * loops apply the same arithmetic in the same order. Any divergence,
 * however small, is a bug in one of the two loops.
 *
 * Unsupported instrumentation: the reference records no stage times
 * into StageProfiler::global() and ignores opts.audit (the oracle is
 * the thing audits are checked against). Traces, metrics, window
 * observers, samplers and cancellation behave as in simulate().
 */

#ifndef POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH
#define POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH

#include "sim/simulator.hh"

namespace powerchop
{
namespace verify
{

/**
 * Run one simulation through the reference (unoptimized) loop.
 *
 * @param machine  The design point.
 * @param workload The application model.
 * @param opts     Mode and instrumentation options.
 * @return the measured result, bit-identical to simulate()'s.
 */
SimResult referenceSimulate(const MachineConfig &machine,
                            const WorkloadSpec &workload,
                            const SimOptions &opts);

} // namespace verify
} // namespace powerchop

#endif // POWERCHOP_VERIFY_REFERENCE_SIMULATOR_HH
