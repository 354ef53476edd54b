#include "core/drowsy_mlc.hh"

#include "common/logging.hh"

namespace powerchop
{

DrowsyMlc::DrowsyMlc(MemHierarchy &mem, const DrowsyParams &params)
    : mem_(mem), params_(params)
{
    if (params.intervalCycles <= 0)
        fatal("drowsy interval must be positive");
    if (params.drowsyLeakageFraction < 0 ||
        params.drowsyLeakageFraction > 1) {
        fatal("drowsy leakage fraction out of [0,1]");
    }
}

void
DrowsyMlc::accumulate(double now_cycles)
{
    double span = now_cycles - lastAccum_;
    if (span <= 0)
        return;
    const SetAssocCache &mlc = mem_.mlc();
    const double total =
        static_cast<double>(mlc.params().sizeBytes /
                            mlc.params().lineBytes);
    double awake = static_cast<double>(mlc.awakeLineCount());
    // Lines not awake (drowsy or invalid) sit at drowsy leakage; the
    // sweep granularity makes this a piecewise-constant integral.
    drowsyLineCycles_ += (total - awake) * span;
    totalLineCycles_ += total * span;
    lastAccum_ = now_cycles;
}

void
DrowsyMlc::tick(double now_cycles)
{
    while (now_cycles - lastSweep_ >= params_.intervalCycles) {
        double sweep_at = lastSweep_ + params_.intervalCycles;
        accumulate(sweep_at);
        mem_.drowseMlc();
        lastSweep_ = sweep_at;
        ++sweeps_;
    }
}

void
DrowsyMlc::finish(double now_cycles)
{
    accumulate(now_cycles);
}

double
DrowsyMlc::avgDrowsyFraction() const
{
    return totalLineCycles_ > 0 ? drowsyLineCycles_ / totalLineCycles_
                                : 0.0;
}

} // namespace powerchop
