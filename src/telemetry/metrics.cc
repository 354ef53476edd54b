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
MetricsRegistry::setColumns(std::vector<std::string> names)
{
    panicIf(!rows_.empty(),
            "MetricsRegistry: cannot rename columns after the first "
            "row froze the schema");
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (names[i] == names[j])
                panic("MetricsRegistry: duplicate column '%s'",
                      names[i].c_str());
        }
    }
    columns_ = std::move(names);
}

void
MetricsRegistry::addRow(std::uint64_t window, InsnCount instructions,
                        Cycles cycles, std::vector<double> values)
{
    if (columns_.empty() || values.size() != columns_.size())
        panic("MetricsRegistry: row of %zu values for %zu columns",
              values.size(), columns_.size());
    rows_.push_back({window, instructions, cycles, std::move(values)});
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

    std::vector<std::string> columns = {
        "window_instructions", "window_cycles", "window_ipc",
        "crit_vpu", "crit_bpu", "crit_mlc", "mispred_large",
        "mispred_small", "l2_hits_per_kinsn", "vpu_on", "bpu_on",
        "mlc_active_frac", "stall_cycles", "vpu_gated_frac",
        "bpu_gated_frac"};
    if (power_) {
        columns.insert(columns.end(),
                       {"vpu_leakage_j", "bpu_leakage_j",
                        "mlc_leakage_j"});
    }
    registry_.setColumns(std::move(columns));
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
    const GatingPolicy &pol = controller.current();
    const GatingStats &gs = controller.stats();
    const double vpu_gated = gs.vpuGatedCycles - prevVpuGated_;
    const double bpu_gated = gs.bpuGatedCycles - prevBpuGated_;

    // One value per column, in setColumns() order.
    std::vector<double> row = {
        wi,
        wc,
        wc > 0 ? wi / wc : 0.0,
        profile.vpuCriticality(),
        profile.mispredSmall - profile.mispredLarge,
        profile.mlcCriticality(),
        profile.mispredLarge,
        profile.mispredSmall,
        profile.totalInsns
            ? 1000.0 * profile.l2Hits / profile.totalInsns
            : 0.0,
        pol.vpuOn ? 1.0 : 0.0,
        pol.bpuOn ? 1.0 : 0.0,
        static_cast<double>(mlcActiveWays(pol.mlc, mlcAssoc_)) /
            mlcAssoc_,
        gs.stallCycles - prevStall_,
        wc > 0 ? vpu_gated / wc : 0.0,
        wc > 0 ? bpu_gated / wc : 0.0,
    };

    if (power_) {
        const double inv_hz = 1.0 / frequencyHz_;
        row.push_back(power_->leakageEnergy(
            Unit::Vpu, (wc - vpu_gated) * inv_hz,
            vpu_gated * inv_hz));
        row.push_back(power_->leakageEnergy(
            Unit::Bpu, (wc - bpu_gated) * inv_hz,
            bpu_gated * inv_hz));

        auto frac = [this](MlcPolicy p) {
            return static_cast<double>(mlcActiveWays(p, mlcAssoc_)) /
                   mlcAssoc_;
        };
        row.push_back(power_->mlcLeakageEnergy(
            (gs.mlcFullCycles - prevMlcFull_) * inv_hz,
            (gs.mlcHalfCycles - prevMlcHalf_) * inv_hz,
            (gs.mlcQuarterCycles - prevMlcQuarter_) * inv_hz,
            (gs.mlcOneWayCycles - prevMlcOne_) * inv_hz,
            frac(MlcPolicy::OneWay), frac(MlcPolicy::HalfWays),
            frac(MlcPolicy::QuarterWays)));
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
    registry_.addRow(windowIndex_, cumInsns_, now, std::move(row));
}

} // namespace telemetry
} // namespace powerchop
