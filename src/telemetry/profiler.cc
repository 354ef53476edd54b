#include "telemetry/profiler.hh"

#include <algorithm>

#include "common/env.hh"

namespace powerchop
{
namespace telemetry
{

namespace
{

/** Each Stage's name in reports and snapshots. */
constexpr const char *kStageNames[kStageCount] = {
    "decode", "retry", "simulate", "translate"};

} // namespace

void
StageProfiler::record(Stage stage, double seconds)
{
    if (!enabled())
        return;
    // Negative and NaN durations count as zero; the clamp keeps the
    // conversion inside uint64's range.
    const double ns = std::min(seconds * 1e9, 1.8e19);
    ns_[static_cast<unsigned>(stage)].sample(
        ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
}

std::vector<StageTime>
StageProfiler::snapshot() const
{
    std::vector<StageTime> out;
    for (unsigned i = 0; i < kStageCount; ++i) {
        const std::uint64_t count = ns_[i].samples();
        if (count == 0)
            continue;
        out.push_back({kStageNames[i],
                       static_cast<double>(ns_[i].sum()) / 1e9, count});
    }
    return out;
}

void
StageProfiler::reset()
{
    for (stats::Log2Histogram &h : ns_)
        h.reset();
}

bool
StageProfiler::enabledByEnv()
{
    return envUint64("POWERCHOP_PROFILE", 0, 1).value_or(0) != 0;
}

StageProfiler &
StageProfiler::global()
{
    static StageProfiler instance(enabledByEnv());
    return instance;
}

} // namespace telemetry
} // namespace powerchop
