#include "sim/simulator.hh"

#include <atomic>
#include <limits>

#include "bt/translation_cache.hh"
#include "common/logging.hh"
#include "common/malloc_tuning.hh"
#include "sim/sim_machine.hh"
#include "telemetry/profiler.hh"
#include "verify/invariant_auditor.hh"
#include "workload/spec_io.hh"

namespace powerchop
{

namespace
{

/** Instructions simulated process-wide (all threads). */
std::atomic<std::uint64_t> instructionTally{0};

} // namespace

InsnCount
simulatedInstructionTally()
{
    return instructionTally.load(std::memory_order_relaxed);
}

SimResult
simulate(const MachineConfig &machine, const WorkloadSpec &workload,
         const SimOptions &opts)
{
    // First call per process: stop the allocator from returning the
    // per-job tables to the kernel between jobs (common/malloc_tuning
    // .hh); purely a host-side tweak, results are unaffected.
    tuneAllocatorForSimulation();

    machine.validate();
    if (opts.maxInstructions == 0)
        fatal("simulate: zero instruction budget");

    telemetry::StageProfiler *profiler =
        &telemetry::StageProfiler::global();
    telemetry::ScopedStageTimer translate_timer(
        profiler, telemetry::Stage::Translate);

    // Shared translation metadata: jobs of the same workload in a
    // batch derive the trace metadata once and share it. Purely a
    // build-cost optimization — the translator produces bit-identical
    // translations either way. Declared first: the machine keeps a
    // pointer to it.
    std::shared_ptr<const TranslationMetadataSet> trans_meta;
    SimMachine sim(machine, workload, opts);
    WorkloadGenerator &gen = sim.gen();
    if (opts.translationCache) {
        trans_meta = opts.translationCache->acquire(
            workloadContentKey(workload), gen.program(),
            machine.bt.translator);
        sim.bt().setTranslationMetadata(trans_meta.get());
    }

    // The per-interval sampler as a countdown: one predictable
    // decrement-and-test per instruction, and the std::function is
    // only touched when a sample actually fires. "Disabled" is a
    // countdown that cannot reach zero within any realistic budget.
    const InsnCount sample_interval = opts.sampleInterval;
    InsnCount until_sample = sample_interval
        ? sample_interval
        : std::numeric_limits<InsnCount>::max();

    // Cached destination for the per-policy MLC access counters,
    // refreshed only when the controller's MLC policy epoch moves.
    ActivityRecord &act = sim.activity();
    double *mlc_counter = &act.mlcAccessesFull;
    std::uint64_t mlc_epoch = std::numeric_limits<std::uint64_t>::max();

    translate_timer.stop();

    // Decode every block into its structure-of-arrays slot stream
    // (workload/block_batch.hh), attributed to its own stage.
    {
        telemetry::ScopedStageTimer decode_timer(
            profiler, telemetry::Stage::Decode);
        gen.prepareBatches();
    }

    telemetry::ScopedStageTimer simulate_timer(
        profiler, telemetry::Stage::Simulate);

    // The loop runs one basic block per iteration: the head work
    // (trace matching, region entry, baseline gater ticks) happens
    // once per block, then the block body executes as a burst over
    // its pre-decoded slot stream with no per-instruction dispatch.
    // The generator is at a block head whenever control reaches the
    // top of this loop.
    const InsnCount max_insns = opts.maxInstructions;
    const std::atomic<bool> *cancel = opts.cancelFlag;

    // In-burst cancellation poll period: block heads poll the flag
    // anyway, this bounds the latency inside giant blocks.
    constexpr InsnCount cancel_check_interval = 64 * 1024;
    InsnCount until_cancel = cancel_check_interval;
    auto check_cancel = [&](InsnCount done) {
        if (cancel && cancel->load(std::memory_order_relaxed)) {
            throw SimCancelledError(csprintf(
                "simulate(%s on %s): cancelled after %llu of %llu "
                "instructions",
                workload.name.c_str(), machine.name.c_str(),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(max_insns)));
        }
    };

    InsnCount n = 0;
    while (n < max_insns) {
        check_cancel(n);
        sim.enterBlock(gen.currentBlock(), n);

        // The burst executes the pre-decoded slot stream directly
        // (workload/block_batch.hh). Program order is preserved slot
        // by slot — every RNG draw, FP cycle add, cache access and
        // predictor update happens in exactly the order the pull-model
        // generator produced — so results stay bit-identical to
        // referenceSimulate().
        const DecodedBlock &db = gen.decodedBlock(gen.currentBlock());
        const InsnCount remaining_in_block = gen.blockInsnsRemaining();
        InsnCount burst = remaining_in_block;
        if (burst > max_insns - n)
            burst = max_insns - n;
        const bool full_block = (burst == remaining_in_block);

        // Offset into the block when resuming mid-block (only after a
        // clamped burst, which ends the run; kept for correctness).
        InsnCount skip = db.numInsns - remaining_in_block;

        InsnCount left = burst;
        std::uint64_t simd_committed = 0;

        const DecodedSlot *s = db.slots;
        const DecodedSlot *const s_end = db.slots + db.numSlots;
        for (; s != s_end && left != 0; ++s) {
            if (s->kind == SlotKind::AluRun) {
                // Fast path: a run of issue-slot-only instructions.
                // The cycle adds stay serial per instruction (FP
                // accumulation order is part of the bit-exact spec);
                // the sampler and cancellation countdowns split the
                // run only when they actually expire inside it.
                InsnCount m = s->count;
                if (skip != 0) {
                    if (skip >= m) {
                        skip -= m;
                        continue;
                    }
                    m -= skip;
                    skip = 0;
                }
                if (m > left)
                    m = left;
                left -= m;
                while (m != 0) {
                    InsnCount chunk = m;
                    if (chunk > until_sample)
                        chunk = until_sample;
                    if (chunk > until_cancel)
                        chunk = until_cancel;
                    sim.issue(chunk);
                    n += chunk;
                    m -= chunk;
                    until_sample -= chunk;
                    until_cancel -= chunk;
                    if (until_sample == 0) {
                        opts.sampler(n, sim.cycles());
                        until_sample = sample_interval;
                    }
                    if (until_cancel == 0) {
                        until_cancel = cancel_check_interval;
                        check_cancel(n);
                    }
                }
                continue;
            }

            if (skip != 0) {
                --skip;
                continue;
            }

            sim.issue();

            switch (s->kind) {
              case SlotKind::Simd:
                sim.simd(n);
                ++simd_committed;
                break;
              case SlotKind::Load:
              case SlotKind::Store:
                if (sim.memAccess(gen.batchMemAddr(),
                                  s->kind == SlotKind::Store)) {
                    if (mlc_epoch != sim.controller().mlcPolicyEpoch()) {
                        mlc_epoch = sim.controller().mlcPolicyEpoch();
                        switch (sim.controller().current().mlc) {
                          case MlcPolicy::AllWays:
                            mlc_counter = &act.mlcAccessesFull;
                            break;
                          case MlcPolicy::HalfWays:
                            mlc_counter = &act.mlcAccessesHalf;
                            break;
                          case MlcPolicy::QuarterWays:
                            mlc_counter = &act.mlcAccessesQuarter;
                            break;
                          case MlcPolicy::OneWay:
                            mlc_counter = &act.mlcAccessesOne;
                            break;
                        }
                    }
                    *mlc_counter += 1;
                }
                break;
              case SlotKind::Branch:
                // Internal conditional branch: outcome from its
                // process, target a short forward skip.
                sim.branch(s->pc, gen.batchBranchOutcome(*s),
                           s->pc + 2 * guestInsnBytes);
                break;
              case SlotKind::AluRun:
                break;  // handled above
            }

            ++n;
            --left;
            if (--until_sample == 0) {
                opts.sampler(n, sim.cycles());
                until_sample = sample_interval;
            }
            if (--until_cancel == 0) {
                until_cancel = cancel_check_interval;
                check_cancel(n);
            }
        }

        if (left != 0) {
            // The terminator — reached exactly when the burst covers
            // the rest of the block. Region-chaining jump: direct-
            // chained in the region cache; only a changed target
            // costs a fetch bubble. batchFinishBlock() draws the
            // next-block pick after the body's address draws, as the
            // pull model does, and rolls the schedule.
            sim.issue();
            sim.terminator(db.termPc, gen.batchFinishBlock());
            ++n;
            --left;
            if (--until_sample == 0) {
                opts.sampler(n, sim.cycles());
                until_sample = sample_interval;
            }
            if (--until_cancel == 0) {
                until_cancel = cancel_check_interval;
                check_cancel(n);
            }
        } else if (!full_block) {
            gen.batchConsumePartial(burst);
        }

        // Window counters are only read at block heads, so the whole
        // burst commits in one bulk update.
        sim.monitor().onCommitBulk(burst, simd_committed);
    }

    simulate_timer.stop();

    sim.finish(n);
    SimResult res = sim.result(n);

    if (opts.audit) {
        verify::InvariantAuditor auditor;
        verify::AuditReport audit = auditor.audit(res, machine);
        if (opts.trace) {
            for (const auto &v :
                 auditor.auditTrace(*opts.trace).violations)
                audit.violations.push_back(v);
        }
        if (!audit.ok()) {
            throw verify::InvariantViolationError(csprintf(
                "simulate(%s on %s, %s): %s", workload.name.c_str(),
                machine.name.c_str(), simModeName(opts.mode),
                audit.toString().c_str()));
        }
    }

    instructionTally.fetch_add(res.instructions,
                               std::memory_order_relaxed);
    return res;
}

} // namespace powerchop
