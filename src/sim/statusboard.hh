/**
 * @file
 * The campaign statusboard: live, crash-safe status snapshots.
 *
 * A long `--shards N` campaign used to be a black box between launch
 * and report.json. The statusboard opens it up without any control
 * channel: every campaign process (the in-process campaign, each
 * shard worker, the supervisor) periodically publishes a small JSON
 * snapshot of its progress into `<dir>/status/` via atomicWriteFile,
 * and any number of readers — `powerchop status`, a Prometheus
 * textfile scraper, a test — parse the files at their own pace. The
 * rename-based write means a reader racing a writer always sees a
 * complete document, so polling needs no locking protocol.
 *
 * Publishing is bounded-cadence (default one write per 250ms per
 * publisher, forced snapshots excepted) so even a campaign finishing
 * thousands of jobs per second costs a handful of small writes per
 * second. Snapshots carry monotonic-clock uptimes, never wall-clock
 * deadlines; *staleness* is judged by the reader from the file's
 * mtime, which the atomic rename refreshes on every publish.
 *
 * The statusboard is a write-only side channel: nothing in it feeds
 * back into simulation or reports, so campaigns with it disabled
 * (POWERCHOP_NO_STATUS=1) produce byte-identical report.json output.
 */

#ifndef POWERCHOP_SIM_STATUSBOARD_HH
#define POWERCHOP_SIM_STATUSBOARD_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "telemetry/profiler.hh"

namespace powerchop
{

/** Schema tag every snapshot carries (readers check the prefix). */
extern const char *const kStatusSchema;

/** Per-shard health line inside a supervisor snapshot. */
struct ShardStatus
{
    unsigned shard = 0;
    std::size_t total = 0;     ///< Keys the shard owns.
    std::size_t done = 0;      ///< Keys with terminal records.
    unsigned restarts = 0;
    bool active = false;       ///< A worker process is running.
    double heartbeatAgeSeconds = -1; ///< Since last output; -1 n/a.
    bool failed = false;       ///< Restart budget exhausted.
};

/**
 * The serve table: every powerchopd metric, declared once.
 *
 * STATS, the "server" snapshot's serve block (toJson and fromJson),
 * `status --prom` (as powerchop_serve_<key>), the status table and
 * the daemon's exit summary all loop over kServeMetrics, so a wire
 * key is spelled only there. ServeMetric names the rows, in STATS
 * order; its enumerators convert to the row index.
 */
struct ServeMetric
{
    enum Row : unsigned
    {
        Requests, Gets, Sims, Errors, SimulatedJobs,
        Hits, Misses, HitRate, Insertions, Evictions, Entries, Bytes,
        WarmStarted, Qps,
        ShedConnections, ShedRequests, DeadlineCancels, IdleReaped,
        ReadTimeouts, AcceptRetries, DroppedInFlight,
        Compactions, JournalRecords, JournalDeadRecords,
        RequestLatencyMs,
        Count
    };
};

/** How a row is stored and rendered. */
enum class ServeMetricKind
{
    Counter,   ///< Cumulative uint64, a JSON integer.
    Gauge,     ///< Derived double (six decimals in JSON).
    Histogram, ///< Nanosecond Log2Histogram, rendered as ms Quantiles.
};

/** One row of the serve table. */
struct ServeMetricDef
{
    const char *key;  ///< Wire key (JSON); --prom adds the prefix.
    const char *help; ///< --prom HELP text.
    ServeMetricKind kind;
};

/** The rows, indexed by ServeMetric. */
extern const std::array<ServeMetricDef, ServeMetric::Count> kServeMetrics;

/**
 * Plain values of every serve table row: what SimServer::run()
 * returns, what STATS renders and a "server" snapshot carries.
 * Counter rows are cumulative since daemon start.
 */
struct ServeStats
{
    /** Row values by kind, indexed by ServeMetric; a row's slots in
     *  the other kinds' arrays stay zero. Histograms are in ms. @{ */
    std::array<std::uint64_t, ServeMetric::Count> counters{};
    std::array<double, ServeMetric::Count> gauges{};
    std::array<stats::Quantiles, ServeMetric::Count> histograms{};
    /** @} */

    /** Daemon uptime when sampled; STATS renders it as
     *  uptime_seconds. Not a row: snapshots carry their own. */
    double uptimeSeconds = 0;

    /** True when any request has been counted (gates the JSON block
     *  so non-server snapshots stay byte-identical). */
    bool present() const { return counters[ServeMetric::Requests] > 0; }

    /** Every row as "key":value, comma-separated, without braces;
     *  a histogram row with no samples is left out. */
    std::string toJson() const;

    /** One line: "N req (H hit / M miss)", then every other row as
     *  value and key in words ("0 dropped in flight"). */
    std::string summary() const;
};

/** One process's published status. */
struct StatusSnapshot
{
    /** Who is publishing: "campaign" (in-process), "supervisor",
     *  "shard-worker", or "server" (powerchopd). */
    std::string role;

    /** Display name ("campaign", "shard-0000", ...). */
    std::string label;

    int pid = 0;

    /** Publisher-assigned: monotone per publisher. @{ */
    std::uint64_t updateSeq = 0;
    double uptimeSeconds = 0;
    /** @} */

    /** Job progress. done = ok + failed (terminal either way);
     *  retried counts extra attempts granted so far. @{ */
    std::size_t jobsTotal = 0;
    std::size_t jobsDone = 0;
    std::size_t jobsOk = 0;
    std::size_t jobsFailed = 0;
    std::size_t jobsRetried = 0;
    /** @} */

    /** Content keys currently executing (bounded by worker count). */
    std::vector<std::uint64_t> inFlight;

    /** Realized throughput since this process started. */
    double mips = 0;

    /** Worker restarts performed (supervisor) or restarts of this
     *  worker so far as told by the supervisor (0 for others). */
    std::size_t restarts = 0;

    /** Naive completion estimate: remaining * (elapsed / done).
     *  The −1 sentinel means unknown (nothing finished yet, realized
     *  MIPS still 0). StatusPublisher::publish clamps any negative or
     *  non-finite estimate to −1 before the snapshot is written, so
     *  every renderer sees the same sentinel and shows `?`. */
    double etaSeconds = -1;

    bool finished = false;

    /** Latency quantiles in milliseconds; rendered when samples > 0.
     *  @{ */
    stats::Quantiles jobLatencyMs;
    stats::Quantiles fsyncLatencyMs;
    stats::Quantiles restartBackoffMs;
    /** @} */

    /** Stage-profiler table, included when the profiler is armed
     *  (POWERCHOP_PROFILE / --profile). */
    std::vector<telemetry::StageTime> stages;

    /** Per-shard health (supervisor snapshots only). */
    std::vector<ShardStatus> shards;

    /** The serve table (powerchopd snapshots only; emitted in the
     *  JSON only when serve.present()). */
    ServeStats serve;

    /** Render as a single-line JSON object. */
    std::string toJson() const;

    /**
     * Parse a snapshot back from its JSON text (any field may be
     * missing; missing fields keep their defaults).
     * @return false when the text is not a snapshot (bad JSON or
     *         wrong schema tag).
     */
    static bool fromJson(const std::string &text, StatusSnapshot &out);
};

/**
 * Cadence-bounded atomic snapshot writer.
 *
 * publish() stamps the snapshot (updateSeq, uptime) and writes it
 * via atomicWriteFileOk — best-effort by design: a full disk must
 * never take down the campaign it is observing. Writes within
 * minInterval of the previous one are skipped unless forced, so call
 * sites can publish from per-job callbacks without thinking about
 * rate. Thread-safe.
 */
class StatusPublisher
{
  public:
    explicit StatusPublisher(std::string path,
                             double minIntervalSeconds = 0.25);

    /**
     * Publish a snapshot (cadence-gated).
     *
     * @param snap  The snapshot; role/label/progress are the
     *              caller's, updateSeq/uptime/pid are stamped here.
     * @param force Bypass the cadence gate (terminal states, crash
     *              events — anything a reader must not miss).
     * @return true when a write was attempted.
     */
    bool publish(StatusSnapshot snap, bool force = false);

    const std::string &path() const { return path_; }

    /** Writes attempted (after cadence gating). */
    std::uint64_t published() const;

  private:
    std::string path_;
    double minInterval_;
    mutable std::mutex mutex_;
    double startedAt_;
    double lastPublish_;
    std::uint64_t seq_ = 0;
};

/** One parsed file of a campaign's status directory. */
struct StatusEntry
{
    std::string file;        ///< File name within status/.
    std::string rawJson;     ///< Verbatim single-line document.
    double ageSeconds = -1;  ///< Now - mtime (display only); -1 n/a.
    bool parsed = false;
    StatusSnapshot snap;     ///< Valid when parsed.
};

/**
 * Read every `*.json` under `<campaignDir>/status/`, sorted with the
 * aggregate (campaign.json) first then by name. Unparseable files
 * are kept with parsed = false so the renderer can surface them.
 * An absent status directory yields an empty vector.
 */
std::vector<StatusEntry> readStatusDir(const std::string &campaignDir);

/** Human table for the terminal (one line per entry + header). */
std::string renderStatusTable(const std::vector<StatusEntry> &entries);

/** Machine output for `powerchop status --json`: a single JSON
 *  document embedding each entry's raw snapshot verbatim. */
std::string renderStatusJson(const std::string &campaignDir,
                             const std::vector<StatusEntry> &entries);

/** Prometheus text exposition (textfile-collector compatible). */
std::string
renderStatusPrometheus(const std::vector<StatusEntry> &entries);

/** The conventional status path helpers. @{ */
std::string statusDirPath(const std::string &campaignDir);
std::string campaignStatusPath(const std::string &campaignDir);
/** @} */

} // namespace powerchop

#endif // POWERCHOP_SIM_STATUSBOARD_HH
