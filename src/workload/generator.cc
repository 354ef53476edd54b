#include "workload/generator.hh"
#include <cmath>

#include <algorithm>
#include <array>
#include <unordered_map>

#include "common/logging.hh"
#include "workload/address_stream.hh"

namespace powerchop
{

/**
 * Runtime state of one phase: its cluster's block lists, the hot-block
 * sampling weights, the memory address stream, and per-branch pattern
 * positions.
 */
struct WorkloadGenerator::PhaseState
{
    std::vector<BlockId> hotBlocks;
    std::vector<BlockId> coldBlocks;

    /** Cumulative distribution over hotBlocks for weighted sampling. */
    std::vector<double> hotCdf;

    std::unique_ptr<AddressStream> mem;

    /** The phase's coldEscapeProb, prepared for Rng::chance(). */
    Chance coldEscape{0.0};

    /** Outcome process of each internal branch, keyed by branch PC. */
    std::unordered_map<Addr, BranchBehavior> behaviors;

    /** Mutable pattern positions, keyed by branch PC. */
    std::unordered_map<Addr, BranchRuntime> runtime;
};

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec &spec)
    : spec_(spec), program_(std::make_unique<Program>()),
      rng_(spec.seed), branchEngine_(spec.seed ^ 0xb5297a4d)
{
    spec_.validate();
    buildProgram();

    // Prime the schedule and execution cursors.
    schedPos_ = 0;
    schedRemaining_ = spec_.schedule[0].insns;
    curPhaseIdx_ = spec_.schedule[0].phase;
    curBlock_ = phaseStates_[curPhaseIdx_]->hotBlocks[0];
    instPos_ = 0;
    curMem_ = phaseStates_[curPhaseIdx_]->mem.get();
}

WorkloadGenerator::~WorkloadGenerator() = default;

void
WorkloadGenerator::buildProgram()
{
    // Each cluster gets a disjoint 16 MiB code slice and a disjoint
    // 256 MiB data slice, so distinct phases never alias in caches,
    // BTBs or the region cache.
    constexpr Addr codeSlice = 16ull << 20;
    constexpr Addr codeBase = 0x00400000;

    phaseStates_.resize(spec_.phases.size());
    for (unsigned i = 0; i < spec_.phases.size(); ++i)
        buildCluster(i, codeBase + i * codeSlice);
}

void
WorkloadGenerator::buildCluster(unsigned phase_idx, Addr base)
{
    const PhaseSpec &ps = spec_.phases[phase_idx];
    auto state = std::make_unique<PhaseState>();

    // Data region: disjoint per phase.
    AddressStreamSpec mem_spec = ps.mem;
    mem_spec.base = 0x40000000ull + phase_idx * (256ull << 20);
    state->mem = std::make_unique<AddressStream>(mem_spec);
    state->coldEscape = Chance(ps.coldEscapeProb);

    const unsigned total_blocks = ps.hotBlocks + ps.coldBlocks;
    Addr next_head = base;
    std::vector<BlockId> ids;
    ids.reserve(total_blocks);

    // Pass 1: choose block lengths and execution weights. The
    // *dynamic* instruction mix is the weight-weighted average of the
    // per-block static mixes, so op placement must track the weighted
    // cumulative target — naive per-block dithering lets one hot
    // block's rounding error dominate the realized mix (e.g. a single
    // dithered SIMD op in the hottest block inflates a 0.4% SIMD
    // phase to 3%).
    std::vector<unsigned> lens(total_blocks);
    std::vector<double> bweights(total_blocks);
    for (unsigned b = 0; b < total_blocks; ++b) {
        double len_d = rng_.normal(ps.avgBlockLen, ps.avgBlockLen * 0.25);
        lens[b] = static_cast<unsigned>(std::max(4.0, len_d));
        bweights[b] = b < ps.hotBlocks
            ? std::pow(ps.hotWeightDecay, static_cast<double>(b))
            : ps.coldEscapeProb / std::max(1u, ps.coldBlocks);

    }

    // Pass 2: per-class weighted-quota placement. Rare classes
    // (fractional weighted targets) end up in light (cold) blocks,
    // where one op contributes little to the dynamic rate — which is
    // also how rare vector ops appear in real code (namd's sparse
    // uniform SIMD, Section V-E).
    struct ClassQuota
    {
        OpClass op;
        double frac;
        double placed = 0;  // weighted ops placed so far
    };
    std::array<ClassQuota, 4> quotas = {{
        {OpClass::SimdOp, ps.simdFrac},
        {OpClass::Branch, ps.branchFrac},
        {OpClass::FpAlu, ps.fpFrac},
        {OpClass::Load, ps.memFrac},  // split into loads/stores below
    }};

    std::vector<std::vector<OpClass>> bodies(total_blocks);
    double cum_weighted = 0;
    for (unsigned b = 0; b < total_blocks; ++b) {
        const unsigned len = lens[b];
        const double w = bweights[b];
        cum_weighted += w * len;

        std::vector<OpClass> &body = bodies[b];
        body.reserve(len);
        unsigned remaining = len;

        for (auto &q : quotas) {
            if (q.frac <= 0.0 || remaining == 0)
                continue;
            // Ops needed so the weighted realized rate tracks the
            // weighted cumulative target.
            double want = (q.frac * cum_weighted - q.placed) / w;
            auto n = static_cast<unsigned>(
                std::max(0.0, std::min<double>(remaining,
                                               std::floor(want + 0.5))));
            for (unsigned k = 0; k < n; ++k) {
                OpClass op = q.op;
                if (op == OpClass::Load && rng_.bernoulli(ps.storeFrac))
                    op = OpClass::Store;
                body.push_back(op);
            }
            q.placed += w * n;
            remaining -= n;
        }
        while (body.size() < len)
            body.push_back(OpClass::IntAlu);
        // Fisher-Yates shuffle for realistic interleaving.
        for (std::size_t k = body.size(); k > 1; --k)
            std::swap(body[k - 1], body[rng_.below(k)]);
    }

    for (unsigned b = 0; b < total_blocks; ++b) {
        const std::vector<OpClass> &body = bodies[b];

        // addBlock() rejects Branch in the body (the terminator is
        // implicit), so temporarily encode internal branches as IntAlu
        // and patch the built block afterwards.
        std::vector<OpClass> masked = body;
        for (auto &op : masked) {
            if (op == OpClass::Branch)
                op = OpClass::IntAlu;
        }

        BlockId id = program_->addBlock(next_head, masked);
        BasicBlock &bb = program_->block(id);
        for (std::size_t k = 0; k < body.size(); ++k) {
            if (body[k] == OpClass::Branch)
                bb.insts[k].op = OpClass::Branch;
        }
        ids.push_back(id);

        // Blocks are laid out back to back within the cluster with a
        // small gap, keeping heads unique and realistically spaced.
        next_head = bb.fallthroughAddr() + 4 * guestInsnBytes;
    }

    state->hotBlocks.assign(ids.begin(), ids.begin() + ps.hotBlocks);
    state->coldBlocks.assign(ids.begin() + ps.hotBlocks, ids.end());

    // Geometric weights over hot blocks -> CDF for sampling.
    double w = 1.0, sum = 0.0;
    std::vector<double> weights;
    for (unsigned i = 0; i < ps.hotBlocks; ++i) {
        weights.push_back(w);
        sum += w;
        w *= ps.hotWeightDecay;
    }
    double acc = 0.0;
    for (double wi : weights) {
        acc += wi / sum;
        state->hotCdf.push_back(acc);
    }
    state->hotCdf.back() = 1.0;

    // Static successor wiring: taken successor is the next hot block,
    // fall-through the one after. Cold blocks fall through back into
    // the hot set. (Actual sequencing is decided dynamically; these
    // give the BTB a dominant target to learn.)
    for (unsigned i = 0; i < ids.size(); ++i) {
        BlockId taken = state->hotBlocks[(i + 1) % ps.hotBlocks];
        BlockId fall = state->hotBlocks[0];
        program_->setSuccessors(ids[i], taken, fall);
    }

    // Assign conditional-branch outcome processes per the phase mix.
    // Branch executions are weighted by their block's hotness, so the
    // assignment uses a weighted largest-deficit quota: per-slot
    // sampling would let the dominant block's branches skew the
    // dynamic predictability mix far from the spec.
    {
        const double share[4] = {
            ps.fracBiased, ps.fracPattern, ps.fracCorrelated,
            1.0 - ps.fracBiased - ps.fracPattern - ps.fracCorrelated};
        double assigned[4] = {0, 0, 0, 0};
        double total_assigned = 0;

        for (std::size_t bi = 0; bi < ids.size(); ++bi) {
            const BasicBlock &bb = program_->block(ids[bi]);
            // Hot blocks carry their sampling weight; cold blocks a
            // nominal trickle matching the escape probability.
            double block_weight = bi < ps.hotBlocks
                ? std::pow(ps.hotWeightDecay, static_cast<double>(bi))
                : ps.coldEscapeProb / std::max(1u, ps.coldBlocks);

            for (std::size_t k = 0; k + 1 < bb.insts.size(); ++k) {
                const StaticInst &si = bb.insts[k];
                if (!si.isBranch())
                    continue;

                // Pick the kind with the largest weighted deficit.
                unsigned best = 0;
                double best_deficit = -1e300;
                for (unsigned kind = 0; kind < 4; ++kind) {
                    double current = total_assigned > 0
                        ? assigned[kind] / total_assigned : 0.0;
                    double deficit = share[kind] - current;
                    // Never assign a kind with zero share.
                    if (share[kind] <= 0.0)
                        continue;
                    if (deficit > best_deficit) {
                        best_deficit = deficit;
                        best = kind;
                    }
                }
                assigned[best] += block_weight;
                total_assigned += block_weight;

                BranchBehavior beh;
                switch (best) {
                  case 0:
                    beh.kind = BranchKind::Biased;
                    beh.biasTaken = rng_.bernoulli(0.5) ? 0.95 : 0.05;
                    break;
                  case 1:
                    beh.kind = BranchKind::Pattern;
                    beh.patternLen =
                        3 + static_cast<unsigned>(rng_.below(6));
                    beh.patternBits = static_cast<std::uint32_t>(
                        rng_.below(1u << beh.patternLen));
                    break;
                  case 2: {
                    beh.kind = BranchKind::GlobalCorrelated;
                    // Parity over 2-4 recent global outcomes within
                    // the last 8, learnable by gshare-style
                    // predictors.
                    beh.historyMask = 0;
                    unsigned taps =
                        2 + static_cast<unsigned>(rng_.below(3));
                    for (unsigned t = 0; t < taps; ++t)
                        beh.historyMask |= 1ull << rng_.below(8);
                    break;
                  }
                  default:
                    beh.kind = BranchKind::Random;
                    break;
                }
                state->behaviors[si.pc] = beh;
                state->runtime[si.pc] = BranchRuntime{};
            }
        }
    }

    phaseStates_[phase_idx] = std::move(state);
}

void
WorkloadGenerator::advanceSchedule()
{
    if (schedRemaining_ > 0)
        return;
    schedPos_ = (schedPos_ + 1) % spec_.schedule.size();
    schedRemaining_ = spec_.schedule[schedPos_].insns;
    unsigned new_phase = spec_.schedule[schedPos_].phase;
    if (new_phase != curPhaseIdx_) {
        curPhaseIdx_ = new_phase;
        // Enter the new phase at its hottest block. The current block
        // finishes mid-phase-change in real systems too; switching at
        // the block boundary keeps translations whole.
        curBlock_ = phaseStates_[curPhaseIdx_]->hotBlocks[0];
        instPos_ = 0;
        curMem_ = phaseStates_[curPhaseIdx_]->mem.get();
    }
}

BlockId
WorkloadGenerator::pickNextBlock()
{
    PhaseState &st = *phaseStates_[curPhaseIdx_];

    if (!st.coldBlocks.empty() && rng_.chance(st.coldEscape)) {
        return st.coldBlocks[rng_.below(st.coldBlocks.size())];
    }

    // First cdf entry >= u (what lower_bound returns). The hotness
    // weights decay geometrically, so a front-to-back scan usually
    // stops within the first few entries — faster than binary search
    // on these small, mass-concentrated tables.
    double u = rng_.uniform();
    const double *cdf = st.hotCdf.data();
    const std::size_t entries = st.hotCdf.size();
    std::size_t idx = 0;
    while (idx < entries && cdf[idx] < u)
        ++idx;
    if (idx >= st.hotBlocks.size())
        idx = st.hotBlocks.size() - 1;
    return st.hotBlocks[idx];
}

const DynInst &
WorkloadGenerator::next()
{
    PhaseState &st = *phaseStates_[curPhaseIdx_];
    const BasicBlock &bb = program_->block(curBlock_);
    const StaticInst &si = bb.insts[instPos_];

    out_.si = &si;
    out_.effAddr = 0;
    out_.taken = false;
    out_.target = 0;

    const bool is_terminator = (instPos_ + 1 == bb.insts.size());
    out_.isTerminator = is_terminator;

    if (si.isMemRef()) {
        out_.effAddr = st.mem->next(rng_);
    } else if (si.isBranch() && !is_terminator) {
        // Internal conditional branch: outcome from its process; no
        // effect on block sequencing (hammock). Target is a short
        // forward skip within the block.
        auto beh_it = st.behaviors.find(si.pc);
        if (beh_it == st.behaviors.end())
            panic("internal branch 0x%llx has no behavior",
                  static_cast<unsigned long long>(si.pc));
        bool taken = branchEngine_.nextOutcome(beh_it->second,
                                               st.runtime[si.pc]);
        out_.taken = taken;
        out_.target = si.pc + 2 * guestInsnBytes;
    } else if (is_terminator) {
        // Region-chaining jump: always taken, target sampled from the
        // cluster's hotness distribution.
        BlockId next_b = pickNextBlock();
        out_.taken = true;
        out_.target = program_->block(next_b).head;
        curBlock_ = next_b;
    }

    ++emitted_;
    --schedRemaining_;

    if (is_terminator) {
        instPos_ = 0;
    } else {
        ++instPos_;
    }

    // Phase changes take effect at the next block boundary so that a
    // translation's instruction run is never torn.
    if (schedRemaining_ == 0 && instPos_ == 0)
        advanceSchedule();
    if (schedRemaining_ == 0 && instPos_ != 0)
        schedRemaining_ = 1;  // stretch to the block boundary

    return out_;
}

void
WorkloadGenerator::prepareBatches()
{
    if (!decoded_.empty())
        return;
    decoded_.resize(program_->numBlocks());
    heads_.resize(program_->numBlocks());
    for (BlockId b = 0; b < program_->numBlocks(); ++b)
        heads_[b] = program_->block(b).head;

    std::vector<DecodedSlot> slots;
    for (unsigned pi = 0; pi < phaseStates_.size(); ++pi) {
        PhaseState &st = *phaseStates_[pi];
        std::vector<BlockId> ids = st.hotBlocks;
        ids.insert(ids.end(), st.coldBlocks.begin(),
                   st.coldBlocks.end());

        for (BlockId id : ids) {
            const BasicBlock &bb = program_->block(id);
            slots.clear();

            // Body slots (terminator excluded): collapse IntAlu/FpAlu
            // runs, resolve branch behavior/runtime pointers once.
            // unordered_map values have stable addresses, so the
            // pointers stay valid for the generator's lifetime.
            for (std::size_t k = 0; k + 1 < bb.insts.size(); ++k) {
                const StaticInst &si = bb.insts[k];
                DecodedSlot s;
                switch (si.op) {
                  case OpClass::IntAlu:
                  case OpClass::FpAlu:
                    if (!slots.empty() &&
                        slots.back().kind == SlotKind::AluRun) {
                        ++slots.back().count;
                        continue;
                    }
                    s.kind = SlotKind::AluRun;
                    break;
                  case OpClass::Load:
                    s.kind = SlotKind::Load;
                    break;
                  case OpClass::Store:
                    s.kind = SlotKind::Store;
                    break;
                  case OpClass::SimdOp:
                    s.kind = SlotKind::Simd;
                    break;
                  case OpClass::Branch: {
                    s.kind = SlotKind::Branch;
                    s.pc = si.pc;
                    auto beh_it = st.behaviors.find(si.pc);
                    if (beh_it == st.behaviors.end())
                        panic("internal branch 0x%llx has no behavior",
                              static_cast<unsigned long long>(si.pc));
                    s.behavior = &beh_it->second;
                    s.runtime = &st.runtime[si.pc];
                    break;
                  }
                }
                slots.push_back(s);
            }

            DecodedBlock &db = decoded_[id];
            db.slots = arena_.copyArray(slots.data(), slots.size());
            db.numSlots = static_cast<std::uint32_t>(slots.size());
            db.numInsns = static_cast<std::uint32_t>(bb.insts.size());
            db.termPc = bb.terminator().pc;
        }
    }
}

Addr
WorkloadGenerator::batchFinishBlock()
{
    // Executed since the block was entered, terminator included.
    const InsnCount executed = decoded_[curBlock_].numInsns - instPos_;

    // The terminator's next-block pick draws from rng_ after the
    // body's address draws and while the old phase is still current —
    // the same order next() produces.
    BlockId next_b = pickNextBlock();
    Addr target = heads_[next_b];
    curBlock_ = next_b;
    emitted_ += executed;
    instPos_ = 0;

    // Collapse the per-instruction schedule decrements: the stretch
    // rule in next() pins schedRemaining_ at 1 until the block
    // boundary, so a block-granular equivalent is: advance iff the
    // entry had <= `executed` instructions left.
    if (schedRemaining_ <= executed) {
        schedRemaining_ = 0;
        advanceSchedule();
    } else {
        schedRemaining_ -= executed;
    }
    return target;
}

void
WorkloadGenerator::batchConsumePartial(InsnCount insns)
{
    emitted_ += insns;
    instPos_ += insns;
    // Same stretch-rule collapse as batchFinishBlock(), mid-block: a
    // spent schedule entry waits at 1 for the block boundary.
    schedRemaining_ =
        schedRemaining_ <= insns ? 1 : schedRemaining_ - insns;
}

} // namespace powerchop
