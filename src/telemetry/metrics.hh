/**
 * @file
 * Metrics registry: per-window time series for one simulation run.
 *
 * The owner names the columns once; at every execution-window edge
 * it appends one row of values, stamped with the window index,
 * cumulative instruction count and cycle time. Rows serialize to CSV
 * (one header + one line per window) or JSONL (one object per
 * window).
 *
 * Like the trace recorder, a registry is a per-run, single-threaded
 * object: parallel batches give each job its own registry and merge
 * or write them in submission order, so outputs are byte-identical
 * on any worker count.
 *
 * WindowMetricsCollector is the standard wiring for PowerChop runs:
 * attached by simulate() when SimOptions::metrics is set, it derives
 * the canonical per-window series (IPC, mispredict rates, L2 hits,
 * criticality scores, gate residency, per-unit leakage energy) from
 * each window report and appends them as a row.
 */

#ifndef POWERCHOP_TELEMETRY_METRICS_HH
#define POWERCHOP_TELEMETRY_METRICS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace powerchop
{

class CorePowerModel;
class GatingController;
struct GatingStats;
struct WindowReport;
struct WindowProfile;

namespace telemetry
{

/**
 * Named per-window time series.
 */
class MetricsRegistry
{
  public:
    /** One window's row. */
    struct Row
    {
        std::uint64_t window = 0;
        InsnCount instructions = 0; ///< Cumulative at the edge.
        Cycles cycles = 0;          ///< Cumulative at the edge.
        std::vector<double> values; ///< One per column.
    };

    /**
     * Name the columns (CSV header / JSONL keys). The schema freezes
     * at the first row; renaming after that, or naming a column
     * twice, is a panic.
     */
    void setColumns(std::vector<std::string> names);

    /** Append one row; @p values holds one value per column. */
    void addRow(std::uint64_t window, InsnCount instructions,
                Cycles cycles, std::vector<double> values);

    const std::vector<std::string> &columnNames() const
    {
        return columns_;
    }
    const std::vector<Row> &rows() const { return rows_; }

    /** Value of one cell (row-major). */
    double value(std::size_t row, std::size_t col) const;

    /** Column index by name; panics when absent. */
    std::size_t columnIndex(const std::string &name) const;

    /** CSV document: "window,instructions,cycles,<columns...>". */
    std::string toCsv() const;

    /** JSONL document: one JSON object per row. */
    std::string toJsonl() const;

    /** Write toCsv()/toJsonl() to a file; false + warning on I/O
     *  failure. @{ */
    bool writeCsv(const std::string &path) const;
    bool writeJsonl(const std::string &path) const;
    /** @} */

  private:
    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/**
 * Standard per-window metrics wiring for a PowerChop-mode run.
 *
 * Owned by simulate(); receives every window edge from the PowerChop
 * unit with the window report, the window's performance profile and
 * the gating controller, computes the canonical series and appends
 * them to the registry as one row. The power model pointer is
 * optional; without it the per-unit leakage-energy columns are
 * omitted.
 */
class WindowMetricsCollector
{
  public:
    /**
     * @param registry    Sink; must outlive the collector.
     * @param power       Power model for the leakage columns (may be
     *                    null).
     * @param frequencyHz Core frequency (cycles -> seconds).
     * @param mlcAssoc    MLC associativity (way-fraction arithmetic).
     */
    WindowMetricsCollector(MetricsRegistry &registry,
                           const CorePowerModel *power,
                           double frequencyHz, unsigned mlcAssoc);

    /** Observe one window edge. */
    void onWindow(const WindowReport &rep, const WindowProfile &profile,
                  Cycles now, const GatingController &controller);

    std::uint64_t windowsObserved() const { return windowIndex_; }

  private:
    MetricsRegistry &registry_;
    const CorePowerModel *power_;
    double frequencyHz_;
    unsigned mlcAssoc_;

    std::uint64_t windowIndex_ = 0;
    InsnCount cumInsns_ = 0;
    Cycles lastEdge_ = 0;

    // Previous-edge gating stats, for per-window deltas. Kept as
    // plain numbers to avoid a GatingStats include dependency here.
    double prevStall_ = 0;
    double prevVpuGated_ = 0;
    double prevBpuGated_ = 0;
    double prevMlcFull_ = 0;
    double prevMlcHalf_ = 0;
    double prevMlcQuarter_ = 0;
    double prevMlcOne_ = 0;
};

} // namespace telemetry
} // namespace powerchop

#endif // POWERCHOP_TELEMETRY_METRICS_HH
