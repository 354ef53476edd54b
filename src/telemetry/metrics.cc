#include "telemetry/metrics.hh"

#include <cstdio>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/gating_controller.hh"
#include "core/htb.hh"
#include "core/perf_monitor.hh"
#include "power/core_power_model.hh"
#include "telemetry/trace.hh"

namespace powerchop
{
namespace telemetry
{

void
MetricsRegistry::addProbe(const std::string &name, Probe fn)
{
    panicIf(!rows_.empty(),
            "MetricsRegistry: cannot add a probe after the first "
            "snapshot froze the schema");
    panicIf(!fn, "MetricsRegistry: probe callback must be callable");
    for (const auto &c : columns_) {
        if (c == name)
            panic("MetricsRegistry: duplicate column '%s'",
                  name.c_str());
    }
    columns_.push_back(name);
    probes_.push_back(std::move(fn));
}

void
MetricsRegistry::snapshot(std::uint64_t window, InsnCount instructions,
                          Cycles cycles)
{
    panicIf(probes_.empty() && columns_.empty(),
            "MetricsRegistry: snapshot with no registered probes");
    panicIf(probes_.size() != columns_.size(),
            "MetricsRegistry: snapshot after detachProbes()");
    Row row;
    row.window = window;
    row.instructions = instructions;
    row.cycles = cycles;
    row.values.reserve(probes_.size());
    for (const auto &p : probes_)
        row.values.push_back(p());
    rows_.push_back(std::move(row));
}

void
MetricsRegistry::detachProbes()
{
    probes_.clear();
}

double
MetricsRegistry::value(std::size_t row, std::size_t col) const
{
    if (row >= rows_.size() || col >= rows_[row].values.size())
        panic("MetricsRegistry: cell (%zu, %zu) out of range", row,
              col);
    return rows_[row].values[col];
}

std::size_t
MetricsRegistry::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i] == name)
            return i;
    }
    panic("MetricsRegistry: no column named '%s'", name.c_str());
}

std::string
MetricsRegistry::toCsv() const
{
    std::string out = "window,instructions,cycles";
    for (const auto &c : columns_)
        out += "," + c;
    out += "\n";
    for (const auto &row : rows_) {
        out += csprintf("%llu,%llu,%.10g",
                        static_cast<unsigned long long>(row.window),
                        static_cast<unsigned long long>(
                            row.instructions),
                        row.cycles);
        for (double v : row.values)
            out += csprintf(",%.10g", v);
        out += "\n";
    }
    return out;
}

std::string
MetricsRegistry::toJsonl() const
{
    std::string out;
    for (const auto &row : rows_) {
        out += csprintf("{\"window\":%llu,\"instructions\":%llu,"
                        "\"cycles\":%.10g",
                        static_cast<unsigned long long>(row.window),
                        static_cast<unsigned long long>(
                            row.instructions),
                        row.cycles);
        for (std::size_t i = 0; i < row.values.size(); ++i) {
            out += csprintf(",\"%s\":%.10g",
                            json::escape(columns_[i]).c_str(),
                            row.values[i]);
        }
        out += "}\n";
    }
    return out;
}

namespace
{

bool
writeFile(const std::string &path, const std::string &content,
          const char *what)
{
    // Crash-safe: readers see the old file or the new one, never a
    // torn mix. atomicWriteFileOk warns (naming the path) on error.
    (void)what;
    return atomicWriteFileOk(path, content);
}

} // namespace

bool
MetricsRegistry::writeCsv(const std::string &path) const
{
    return writeFile(path, toCsv(), "metrics CSV");
}

bool
MetricsRegistry::writeJsonl(const std::string &path) const
{
    return writeFile(path, toJsonl(), "metrics JSONL");
}

WindowMetricsCollector::WindowMetricsCollector(
    MetricsRegistry &registry, const CorePowerModel *power,
    double frequencyHz, unsigned mlcAssoc)
    : registry_(registry), power_(power), frequencyHz_(frequencyHz),
      mlcAssoc_(mlcAssoc)
{
    panicIf(frequencyHz_ <= 0,
            "WindowMetricsCollector: frequencyHz must be positive");
    panicIf(mlcAssoc_ == 0,
            "WindowMetricsCollector: mlcAssoc must be non-zero");

    registry_.addProbe("window_instructions",
                       [this] { return cur_.windowInsns; });
    registry_.addProbe("window_cycles",
                       [this] { return cur_.windowCycles; });
    registry_.addProbe("window_ipc", [this] { return cur_.ipc; });
    registry_.addProbe("crit_vpu", [this] { return cur_.critVpu; });
    registry_.addProbe("crit_bpu", [this] { return cur_.critBpu; });
    registry_.addProbe("crit_mlc", [this] { return cur_.critMlc; });
    registry_.addProbe("mispred_large",
                       [this] { return cur_.mispredLarge; });
    registry_.addProbe("mispred_small",
                       [this] { return cur_.mispredSmall; });
    registry_.addProbe("l2_hits_per_kinsn",
                       [this] { return cur_.l2HitsPerKilo; });
    registry_.addProbe("vpu_on", [this] { return cur_.vpuOn; });
    registry_.addProbe("bpu_on", [this] { return cur_.bpuOn; });
    registry_.addProbe("mlc_active_frac",
                       [this] { return cur_.mlcActiveFrac; });
    registry_.addProbe("stall_cycles",
                       [this] { return cur_.stallCycles; });
    registry_.addProbe("vpu_gated_frac",
                       [this] { return cur_.vpuGatedFrac; });
    registry_.addProbe("bpu_gated_frac",
                       [this] { return cur_.bpuGatedFrac; });
    if (power_) {
        registry_.addProbe("vpu_leakage_j",
                           [this] { return cur_.vpuLeakageJ; });
        registry_.addProbe("bpu_leakage_j",
                           [this] { return cur_.bpuLeakageJ; });
        registry_.addProbe("mlc_leakage_j",
                           [this] { return cur_.mlcLeakageJ; });
    }
}

void
WindowMetricsCollector::onWindow(const WindowReport &rep,
                                 const WindowProfile &profile,
                                 Cycles now,
                                 const GatingController &controller)
{
    if (now < 0)
        now = lastEdge_; // unknown edge time: zero-length window

    const double wc = now - lastEdge_;
    const double wi = static_cast<double>(rep.instructions);

    cur_.windowInsns = wi;
    cur_.windowCycles = wc;
    cur_.ipc = wc > 0 ? wi / wc : 0.0;

    cur_.critVpu = profile.vpuCriticality();
    cur_.critBpu = profile.mispredSmall - profile.mispredLarge;
    cur_.critMlc = profile.mlcCriticality();
    cur_.mispredLarge = profile.mispredLarge;
    cur_.mispredSmall = profile.mispredSmall;
    cur_.l2HitsPerKilo = profile.totalInsns
        ? 1000.0 * profile.l2Hits / profile.totalInsns
        : 0.0;

    const GatingPolicy &pol = controller.current();
    cur_.vpuOn = pol.vpuOn ? 1.0 : 0.0;
    cur_.bpuOn = pol.bpuOn ? 1.0 : 0.0;
    cur_.mlcActiveFrac =
        static_cast<double>(mlcActiveWays(pol.mlc, mlcAssoc_)) /
        mlcAssoc_;

    const GatingStats &gs = controller.stats();
    cur_.stallCycles = gs.stallCycles - prevStall_;
    const double vpu_gated = gs.vpuGatedCycles - prevVpuGated_;
    const double bpu_gated = gs.bpuGatedCycles - prevBpuGated_;
    cur_.vpuGatedFrac = wc > 0 ? vpu_gated / wc : 0.0;
    cur_.bpuGatedFrac = wc > 0 ? bpu_gated / wc : 0.0;

    if (power_) {
        const double inv_hz = 1.0 / frequencyHz_;
        cur_.vpuLeakageJ = power_->leakageEnergy(
            Unit::Vpu, (wc - vpu_gated) * inv_hz,
            vpu_gated * inv_hz);
        cur_.bpuLeakageJ = power_->leakageEnergy(
            Unit::Bpu, (wc - bpu_gated) * inv_hz,
            bpu_gated * inv_hz);

        auto frac = [this](MlcPolicy p) {
            return static_cast<double>(mlcActiveWays(p, mlcAssoc_)) /
                   mlcAssoc_;
        };
        cur_.mlcLeakageJ = power_->mlcLeakageEnergy(
            (gs.mlcFullCycles - prevMlcFull_) * inv_hz,
            (gs.mlcHalfCycles - prevMlcHalf_) * inv_hz,
            (gs.mlcQuarterCycles - prevMlcQuarter_) * inv_hz,
            (gs.mlcOneWayCycles - prevMlcOne_) * inv_hz,
            frac(MlcPolicy::OneWay), frac(MlcPolicy::HalfWays),
            frac(MlcPolicy::QuarterWays));
    }

    prevStall_ = gs.stallCycles;
    prevVpuGated_ = gs.vpuGatedCycles;
    prevBpuGated_ = gs.bpuGatedCycles;
    prevMlcFull_ = gs.mlcFullCycles;
    prevMlcHalf_ = gs.mlcHalfCycles;
    prevMlcQuarter_ = gs.mlcQuarterCycles;
    prevMlcOne_ = gs.mlcOneWayCycles;

    cumInsns_ += rep.instructions;
    lastEdge_ = now;
    ++windowIndex_;
    registry_.snapshot(windowIndex_, cumInsns_, now);
}

} // namespace telemetry
} // namespace powerchop
