#include "verify/reference_simulator.hh"

#include "common/logging.hh"
#include "sim/sim_machine.hh"

namespace powerchop
{
namespace verify
{

SimResult
referenceSimulate(const MachineConfig &machine,
                  const WorkloadSpec &workload, const SimOptions &opts)
{
    machine.validate();
    if (opts.maxInstructions == 0)
        fatal("referenceSimulate: zero instruction budget");

    SimMachine sim(machine, workload, opts);
    WorkloadGenerator &gen = sim.gen();
    ActivityRecord &act = sim.activity();

    // --- The reference loop --------------------------------------------
    // Strictly one instruction per iteration. Block heads are found by
    // asking the generator, the sampler fires from an explicit modulo,
    // and the MLC access counter is picked from the live policy at
    // every access, instead of being batched, counted down or
    // cached.
    const InsnCount max_insns = opts.maxInstructions;
    const std::atomic<bool> *cancel = opts.cancelFlag;
    for (InsnCount n = 0; n < max_insns; ++n) {
        if (gen.atBlockHead()) {
            if (cancel && cancel->load(std::memory_order_relaxed)) {
                throw SimCancelledError(csprintf(
                    "referenceSimulate(%s on %s): cancelled after "
                    "%llu of %llu instructions",
                    workload.name.c_str(), machine.name.c_str(),
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(max_insns)));
            }
            sim.enterBlock(gen.currentBlock(), n);
        }

        const DynInst &di = gen.next();
        const OpClass op = di.op();
        sim.monitor().onCommit(op);
        sim.issue();

        switch (op) {
          case OpClass::SimdOp:
            sim.simd(n);
            break;
          case OpClass::Load:
          case OpClass::Store:
            if (!sim.memAccess(di.effAddr, op == OpClass::Store))
                break;
            switch (sim.controller().current().mlc) {
              case MlcPolicy::AllWays:
                act.mlcAccessesFull += 1;
                break;
              case MlcPolicy::HalfWays:
                act.mlcAccessesHalf += 1;
                break;
              case MlcPolicy::QuarterWays:
                act.mlcAccessesQuarter += 1;
                break;
              case MlcPolicy::OneWay:
                act.mlcAccessesOne += 1;
                break;
            }
            break;
          case OpClass::Branch:
            if (di.isTerminator)
                sim.terminator(di.pc(), di.target);
            else
                sim.branch(di.pc(), di.taken, di.target);
            break;
          case OpClass::IntAlu:
          case OpClass::FpAlu:
            break;
        }

        if (opts.sampleInterval &&
            (n + 1) % opts.sampleInterval == 0)
            opts.sampler(n + 1, sim.cycles());
    }

    sim.finish(max_insns);
    return sim.result(max_insns);
}

} // namespace verify
} // namespace powerchop
