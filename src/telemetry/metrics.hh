/**
 * @file
 * Metrics registry: per-window time series for one simulation run.
 *
 * Columns are named probes (callbacks returning the current value of
 * some counter or derived metric). At every execution-window edge the
 * owner calls snapshot(), which evaluates all probes into one row
 * stamped with the window index, cumulative instruction count and
 * cycle time. Rows serialize to CSV (one header + one line per
 * window) or JSONL (one object per window).
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
 * each window report and snapshots the registry.
 */

#ifndef POWERCHOP_TELEMETRY_METRICS_HH
#define POWERCHOP_TELEMETRY_METRICS_HH

#include <functional>
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
    using Probe = std::function<double()>;

    /** One snapshot row. */
    struct Row
    {
        std::uint64_t window = 0;
        InsnCount instructions = 0; ///< Cumulative at the edge.
        Cycles cycles = 0;          ///< Cumulative at the edge.
        std::vector<double> values; ///< One per column.
    };

    /**
     * Register one probe column. The schema freezes at the first
     * snapshot(); registering after that is a panic.
     *
     * @param name Column name (CSV header / JSONL key).
     * @param fn   Evaluated at every snapshot.
     */
    void addProbe(const std::string &name, Probe fn);

    /** Evaluate all probes into one row. */
    void snapshot(std::uint64_t window, InsnCount instructions,
                  Cycles cycles);

    /**
     * Drop the probe callbacks, keeping columns and rows. Called when
     * the probed objects are about to die (end of simulate()) so the
     * registry can safely outlive the run it measured.
     */
    void detachProbes();

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
    std::vector<Probe> probes_;
    std::vector<Row> rows_;
};

/**
 * Standard per-window metrics wiring for a PowerChop-mode run.
 *
 * Owned by simulate(); receives every window edge from the PowerChop
 * unit with the window report, the window's performance profile and
 * the gating controller, computes the canonical series and snapshots
 * the registry. The power model pointer is optional; without it the
 * per-unit leakage-energy columns are omitted.
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
    /** The last window's derived values, read by the probes. */
    struct Current
    {
        double windowInsns = 0;
        double windowCycles = 0;
        double ipc = 0;
        double critVpu = 0;
        double critBpu = 0;
        double critMlc = 0;
        double mispredLarge = 0;
        double mispredSmall = 0;
        double l2HitsPerKilo = 0;
        double vpuOn = 1;
        double bpuOn = 1;
        double mlcActiveFrac = 1;
        double stallCycles = 0;
        double vpuGatedFrac = 0;
        double bpuGatedFrac = 0;
        double vpuLeakageJ = 0;
        double bpuLeakageJ = 0;
        double mlcLeakageJ = 0;
    };

    MetricsRegistry &registry_;
    const CorePowerModel *power_;
    double frequencyHz_;
    unsigned mlcAssoc_;

    Current cur_;
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
