/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * hot-path structures — HTB updates, PVT lookups, cache accesses,
 * branch predictors, the workload generator, and end-to-end simulated
 * MIPS. These guard against performance regressions in the simulator
 * itself.
 */

#include <benchmark/benchmark.h>

#include "powerchop/powerchop.hh"

using namespace powerchop;

namespace
{

void
BM_HtbRecord(benchmark::State &state)
{
    Htb htb;
    TranslationId id = 1;
    for (auto _ : state) {
        auto rep = htb.recordTranslation(id, 14);
        benchmark::DoNotOptimize(rep);
        id = id % 96 + 1;  // within HTB capacity
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HtbRecord);

void
BM_PvtLookup(benchmark::State &state)
{
    Pvt pvt;
    std::vector<PhaseSignature> sigs;
    for (TranslationId base = 1; base <= 16; ++base) {
        TranslationId ids[] = {base, base + 100, base + 200, base + 300};
        sigs.emplace_back(ids, 4);
        pvt.registerPolicy(sigs.back(), GatingPolicy::fullPower());
    }
    std::size_t i = 0;
    for (auto _ : state) {
        auto hit = pvt.lookup(sigs[i]);
        benchmark::DoNotOptimize(hit);
        i = (i + 1) % sigs.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PvtLookup);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheParams{1024 * 1024, 8, 64});
    Rng rng(1);
    for (auto _ : state) {
        auto res = cache.access(0x100000 + rng.below(16384) * 64,
                                false);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_TournamentPredict(benchmark::State &state)
{
    TournamentPredictor pred;
    Rng rng(2);
    Addr pc = 0x1000;
    for (auto _ : state) {
        bool p = pred.predictAndTrain(pc, rng.bernoulli(0.7));
        benchmark::DoNotOptimize(p);
        pc = 0x1000 + (pc + 4) % 256;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TournamentPredict);

void
BM_WorkloadGenerator(benchmark::State &state)
{
    WorkloadGenerator gen(findWorkload("gobmk"));
    for (auto _ : state) {
        const DynInst &di = gen.next();
        benchmark::DoNotOptimize(di.effAddr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGenerator);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    // Whole-simulator throughput in guest instructions per second.
    const auto mode = static_cast<SimMode>(state.range(0));
    for (auto _ : state) {
        SimOptions opts;
        opts.mode = mode;
        opts.maxInstructions = 200'000;
        SimResult r = simulate(serverConfig(), findWorkload("gobmk"),
                               opts);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(SimMode::FullPower))
    ->Arg(static_cast<int>(SimMode::PowerChop))
    ->Arg(static_cast<int>(SimMode::DrowsyMlc))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
