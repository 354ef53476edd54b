/**
 * @file
 * The simulator ledger: where simulate()'s host time goes, layer by
 * layer, measured from outside the simulator.
 *
 * For each sampled job the ledger
 *  1. times simulate() itself (the end-to-end cost per instruction);
 *  2. records the job's event stream once, through
 *     WorkloadGenerator::next() — the stream referenceSimulate()
 *     consumes — plus the translation-head stream BtSystem::
 *     enterRegion() produces at block heads;
 *  3. replays each stream alone through its layer's public entry
 *     point on fresh state: the generator's batch API (workload),
 *     enterRegion (bt), MemHierarchy::access / BpuComplex::predict /
 *     Vpu::executeSimd (uarch), PowerChopUnit::onTranslationHead
 *     (core) and accumulateEnergy (power).
 *
 * Each layer's contribution is its replay time (construction
 * included) per simulated instruction; whatever simulate() spends
 * beyond their sum — the timing loop's own bookkeeping and the cost
 * of interleaving the layers — is reported as the residual, so the
 * parts always sum to the measured whole. The core layer is replayed
 * on every job, which gives its per-head cost, but contributes only
 * for PowerChop-mode jobs: simulate() never calls it in the others.
 */

#ifndef PCBENCH_LEDGER_HH
#define PCBENCH_LEDGER_HH

#include <string>
#include <vector>

#include "bench_support.hh"
#include "workload/spec_io.hh"

namespace pcbench
{

/** Sums over the ledger's jobs. */
struct LedgerTotals
{
    std::uint64_t jobs = 0;
    std::uint64_t insns = 0;
    double simNs = 0;
    double workloadBuildNs = 0;
    double workloadStreamNs = 0;
    double btBuildNs = 0;
    double btReplayNs = 0;
    std::uint64_t btCalls = 0;
    double memNs = 0;
    std::uint64_t memOps = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t mlcHits = 0;
    std::uint64_t mlcAccesses = 0;
    double bpuNs = 0;
    std::uint64_t bpuCalls = 0;
    std::uint64_t condBranches = 0;
    double vpuNs = 0;
    std::uint64_t simdOps = 0;
    double coreNs = 0;          ///< Replays of every job.
    std::uint64_t coreHeads = 0;
    double coreContribNs = 0;   ///< Replays of PowerChop-mode jobs.
    std::uint64_t pvtHits = 0;
    std::uint64_t pvtLookups = 0;
    double powerNs = 0;

    /** The recorded streams agreed with simulate()'s own counts. */
    bool consistent = true;
    std::string detail;

    /** Append the simulator ledger's per-layer metrics. */
    void
    report(RunResult &r) const
    {
        const auto per = [](double a, double b) {
            return b > 0 ? a / b : 0.0;
        };
        const double n = static_cast<double>(insns);
        const double sim = per(simNs, n);
        const double workload = per(workloadBuildNs + workloadStreamNs, n);
        const double bt = per(btBuildNs + btReplayNs, n);
        const double uarch = per(memNs + bpuNs + vpuNs, n);
        const double core = per(coreContribNs, n);
        const double power = per(powerNs, n);
        r.metric("sim.ns_per_insn", sim, "ns/insn", jobs);
        r.metric("workload.ns_per_insn", workload, "ns/insn", jobs);
        r.metric("workload.build_ms", per(workloadBuildNs, jobs) * 1e-6,
                 "ms", jobs);
        r.metric("bt.ns_per_insn", bt, "ns/insn", jobs);
        r.metric("bt.build_ms", per(btBuildNs, jobs) * 1e-6, "ms", jobs);
        r.metric("bt.enter_region_ns", per(btReplayNs, btCalls), "ns",
                 btCalls);
        r.metric("bt.heads_per_kinsn", per(1000.0 * btCalls, n),
                 "1/kinsn");
        r.metric("uarch.ns_per_insn", uarch, "ns/insn", jobs);
        r.metric("uarch.mem_access_ns", per(memNs, memOps), "ns", memOps);
        r.metric("uarch.mem_per_kinsn", per(1000.0 * memOps, n),
                 "1/kinsn");
        r.metric("uarch.l1_hit_rate", per(l1Hits, memOps), "ratio",
                 memOps);
        r.metric("uarch.mlc_hit_rate", per(mlcHits, mlcAccesses), "ratio",
                 mlcAccesses);
        r.metric("uarch.bpu_predict_ns", per(bpuNs, bpuCalls), "ns",
                 bpuCalls);
        r.metric("uarch.branches_per_kinsn", per(1000.0 * condBranches, n),
                 "1/kinsn");
        r.metric("uarch.vpu_op_ns", per(vpuNs, simdOps), "ns", simdOps);
        r.metric("uarch.simd_per_kinsn", per(1000.0 * simdOps, n),
                 "1/kinsn");
        r.metric("core.ns_per_insn", core, "ns/insn", jobs);
        r.metric("core.head_ns", per(coreNs, coreHeads), "ns", coreHeads);
        r.metric("core.pvt_hit_rate", per(pvtHits, pvtLookups), "ratio",
                 pvtLookups);
        r.metric("power.ns_per_insn", power, "ns/insn", jobs);
        r.metric("power.energy_us_per_job", per(powerNs, jobs) * 1e-3,
                 "us", jobs);
        r.metric("sim.residual_ns_per_insn",
                 sim - (workload + bt + uarch + core + power), "ns/insn",
                 jobs);
    }
};

namespace ledger_detail
{

/** One job's event stream, as next() produced it. */
struct Recorded
{
    struct Block
    {
        BlockId id = 0;
        std::uint32_t insns = 0;
        std::uint32_t simd = 0;
    };
    struct Branch
    {
        Addr pc = 0;
        Addr target = 0;
        bool taken = false;
        bool terminator = false;
    };
    std::vector<Block> blocks;
    std::vector<Addr> memAddr;
    std::vector<std::uint8_t> memStore;
    std::vector<Branch> branches;
    std::uint64_t simd = 0;
    std::uint64_t condBranches = 0;
};

/** One PowerChopUnit::onTranslationHead call of the job. */
struct HeadEvent
{
    TranslationId id = invalidTranslationId;
    std::uint64_t credit = 0;     ///< Insns credited to `id`.
    std::uint64_t commits = 0;    ///< Insns committed since last call.
    std::uint64_t simd = 0;       ///< SIMD among those commits.
    std::uint64_t committed = 0;  ///< Insns committed so far.
};

inline Recorded
record(WorkloadGenerator &gen, InsnCount insns)
{
    Recorded r;
    r.memAddr.reserve(insns / 2);
    r.memStore.reserve(insns / 2);
    r.branches.reserve(insns / 4);
    for (InsnCount n = 0; n < insns; ++n) {
        if (gen.atBlockHead())
            r.blocks.push_back({gen.currentBlock(), 0, 0});
        const DynInst &di = gen.next();
        Recorded::Block &b = r.blocks.back();
        ++b.insns;
        switch (di.op()) {
          case OpClass::SimdOp:
            ++b.simd;
            ++r.simd;
            break;
          case OpClass::Load:
          case OpClass::Store:
            r.memAddr.push_back(di.effAddr);
            r.memStore.push_back(di.op() == OpClass::Store);
            break;
          case OpClass::Branch:
            r.branches.push_back(
                {di.pc(), di.target, di.taken, di.isTerminator});
            if (!di.isTerminator)
                ++r.condBranches;
            break;
          case OpClass::IntAlu:
          case OpClass::FpAlu:
            break;
        }
    }
    return r;
}

/**
 * The block-head loop of simulate(): follow the current translation's
 * trace, otherwise enter a region. When `events` is non-null the
 * translation-head calls PowerChop mode would make are collected.
 */
inline double
headLoop(BtSystem &bt, const Recorded &r, std::uint64_t &calls,
         std::vector<HeadEvent> *events)
{
    double extra = 0;
    const Translation *cur = nullptr;
    std::size_t idx = 0;
    TranslationId last = invalidTranslationId;
    std::uint64_t since = 0, commits = 0, simd = 0, committed = 0;
    for (const Recorded::Block &b : r.blocks) {
        if (cur && idx < cur->blocks.size() && cur->blocks[idx] == b.id) {
            ++idx;
        } else {
            cur = nullptr;
            const RegionEntry e = bt.enterRegion(b.id);
            ++calls;
            extra += e.extraCycles;
            if (e.mode == ExecMode::Translated) {
                if (events && last != invalidTranslationId) {
                    events->push_back({last, since, commits, simd,
                                       committed});
                    commits = simd = 0;
                }
                last = e.translation->id;
                cur = e.translation;
                idx = 1;
            } else {
                last = invalidTranslationId;
            }
            since = 0;
        }
        since += b.insns;
        commits += b.insns;
        simd += b.simd;
        committed += b.insns;
    }
    if (events && last != invalidTranslationId && since > 0)
        events->push_back({last, since, commits, simd, committed});
    return extra;
}

/** Keeps replay results observable so no loop is optimized away. */
inline volatile std::uint64_t sink;

} // namespace ledger_detail

/**
 * Run the ledger over `jobs`, recording one span per layer replay
 * under `parent`.
 */
inline LedgerTotals
runLedger(const std::vector<SimJob> &jobs, Tracer &tracer, int parent)
{
    using namespace ledger_detail;
    LedgerTotals t;
    TranslationMetadataCache metaCache;
    std::uint64_t local = 0;

    for (const SimJob &job0 : jobs) {
        SimJob job = job0;
        job.opts.translationCache = &metaCache;
        const MachineConfig &m = job.machine;
        const InsnCount insns = job.opts.maxInstructions;
        const std::uint64_t key = campaignJobKey(job0);
        const int span = tracer.begin("ledger.job", parent, key);
        const auto timed = [&](const char *name, auto &&fn) {
            const std::int64_t t0 = monotonicNanos();
            fn();
            const std::int64_t t1 = monotonicNanos();
            tracer.add(name, t0, t1, span, key);
            return static_cast<double>(t1 - t0);
        };

        // End to end: median of three runs on a warm metadata cache
        // (the first also warms it).
        SimResult res = simulate(m, job.workload, job.opts);
        Samples simNs;
        for (int rep = 0; rep < 3; ++rep) {
            simNs.add(timed("ledger.sim", [&] {
                res = simulate(m, job.workload, job.opts);
            }));
        }
        t.simNs += simNs.median();

        WorkloadGenerator recGen(job.workload);
        const Recorded r = record(recGen, insns);
        std::vector<HeadEvent> events;
        {
            BtSystem bt(recGen.program(), m.bt);
            bt.setTranslationMetadata(
                metaCache
                    .acquire(workloadContentKey(job.workload),
                             recGen.program(), m.bt.translator)
                    .get());
            std::uint64_t calls = 0;
            headLoop(bt, r, calls, &events);
        }
        if (r.condBranches != res.branchLookups ||
            r.simd != res.simdOps + res.simdEmulated) {
            t.consistent = false;
            t.detail = job.workload.name + ": recorded stream disagrees "
                                           "with simulate() counts";
        }

        // workload: the generator alone, consumed through the batch
        // API exactly as simulate()'s hot loop consumes it.
        std::unique_ptr<WorkloadGenerator> gen;
        t.workloadBuildNs += timed("ledger.workload.build", [&] {
            gen = std::make_unique<WorkloadGenerator>(job.workload);
            gen->prepareBatches();
        });
        t.workloadStreamNs += timed("ledger.workload.stream", [&] {
            InsnCount n = 0;
            while (n < insns) {
                const DecodedBlock &db =
                    gen->decodedBlock(gen->currentBlock());
                const InsnCount rem = gen->blockInsnsRemaining();
                const InsnCount burst = std::min(rem, insns - n);
                InsnCount left = burst;
                for (const DecodedSlot *s = db.slots;
                     s != db.slots + db.numSlots && left != 0; ++s) {
                    if (s->kind == SlotKind::AluRun) {
                        left -= std::min<InsnCount>(s->count, left);
                        continue;
                    }
                    if (s->kind == SlotKind::Load ||
                        s->kind == SlotKind::Store)
                        local += gen->batchMemAddr();
                    else if (s->kind == SlotKind::Branch)
                        local += gen->batchBranchOutcome(*s);
                    --left;
                }
                if (left != 0)
                    local += gen->batchFinishBlock();
                else if (burst != rem)
                    gen->batchConsumePartial(burst);
                n += burst;
            }
        });

        // bt: region entry at every block head that leaves the trace.
        std::unique_ptr<BtSystem> bt;
        t.btBuildNs += timed("ledger.bt.build", [&] {
            bt = std::make_unique<BtSystem>(gen->program(), m.bt);
            bt->setTranslationMetadata(
                metaCache
                    .acquire(workloadContentKey(job.workload),
                             gen->program(), m.bt.translator)
                    .get());
        });
        t.btReplayNs += timed("ledger.bt.replay", [&] {
            local += static_cast<std::uint64_t>(
                headLoop(*bt, r, t.btCalls, nullptr));
        });

        // uarch: each unit alone on its own slice of the stream.
        std::uint64_t l1Hits = 0;
        t.memNs += timed("ledger.uarch.mem", [&] {
            MemHierarchy mem(m.l1, m.mlc);
            for (std::size_t i = 0; i < r.memAddr.size(); ++i)
                local += static_cast<std::uint64_t>(
                    mem.access(r.memAddr[i], r.memStore[i]).level);
            l1Hits = mem.l1().hits();
            if (mem.l1().hitRate() != res.l1HitRate) {
                t.consistent = false;
                t.detail = job.workload.name +
                           ": replayed L1 hit rate disagrees with "
                           "simulate()";
            }
        });
        t.memOps += r.memAddr.size();
        t.l1Hits += l1Hits;
        t.mlcAccesses += res.mlcAccesses;
        t.mlcHits += static_cast<std::uint64_t>(
            std::llround(res.mlcHitRate * res.mlcAccesses));
        t.bpuNs += timed("ledger.uarch.bpu", [&] {
            BpuComplex bpu(m.bpu);
            for (const Recorded::Branch &b : r.branches) {
                const BpuOutcome o =
                    b.terminator ? bpu.predictIndirect(b.pc, b.target)
                                 : bpu.predict(b.pc, b.taken, b.target);
                local += o.directionMispredict + o.targetMiss;
            }
        });
        t.bpuCalls += r.branches.size();
        t.condBranches += r.condBranches;
        t.vpuNs += timed("ledger.uarch.vpu", [&] {
            Vpu vpu(m.vpu);
            double slots = 0;
            for (std::uint64_t i = 0; i < r.simd; ++i)
                slots += vpu.executeSimd();
            local += static_cast<std::uint64_t>(slots);
        });
        t.simdOps += r.simd;

        // core: PowerChop's per-head work on this job's head stream.
        {
            BpuComplex bpu(m.bpu);
            MemHierarchy mem(m.l1, m.mlc);
            Vpu vpu(m.vpu);
            GatingController controller(vpu, bpu, mem, m.penalties);
            PerfMonitor monitor(bpu, mem);
            const double cpi = res.cycles / static_cast<double>(insns);
            const double ns = timed("ledger.core", [&] {
                PowerChopUnit pchop(m.powerChop, controller,
                                    bt->nucleus(), monitor);
                pchop.setManagedUnits(job.opts.manageVpu,
                                      job.opts.manageBpu,
                                      job.opts.manageMlc);
                double stall = 0;
                for (const HeadEvent &e : events) {
                    monitor.onCommitBulk(e.commits, e.simd);
                    stall += pchop.onTranslationHead(
                        e.id, e.credit,
                        static_cast<double>(e.committed) * cpi);
                }
                local += static_cast<std::uint64_t>(stall);
            });
            t.coreNs += ns;
            t.coreHeads += events.size();
            if (job.opts.mode == SimMode::PowerChop)
                t.coreContribNs += ns;
            t.pvtHits += res.pvtHits;
            t.pvtLookups += res.pvtLookups;
        }

        // power: the end-of-run energy roll-up, repeated for a
        // resolvable time.
        constexpr int kPowerReps = 100;
        t.powerNs += timed("ledger.power", [&] {
            for (int rep = 0; rep < kPowerReps; ++rep) {
                const CorePowerModel model(m.power);
                local += static_cast<std::uint64_t>(
                    accumulateEnergy(model, res.activity, m.mlc.assoc)
                        .totalEnergy() * 1e9);
            }
        }) / kPowerReps;

        t.insns += insns;
        ++t.jobs;
        tracer.end(span);
    }
    ledger_detail::sink = local;
    return t;
}

} // namespace pcbench

#endif // PCBENCH_LEDGER_HH
