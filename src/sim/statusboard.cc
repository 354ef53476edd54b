#include "sim/statusboard.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{

const char *const kStatusSchema = "powerchop-status-v1";

using enum ServeMetricKind;

const std::array<ServeMetricDef, ServeMetric::Count> kServeMetrics = {{
    {"requests", "Requests handled by powerchopd", Counter},
    {"gets", "GET requests handled", Counter},
    {"sims", "SIM requests handled", Counter},
    {"errors", "Requests answered ERR", Counter},
    {"simulated_jobs", "Jobs simulated fresh", Counter},
    {"hits", "Result-cache key hits", Counter},
    {"misses", "Result-cache key misses (simulated fresh)", Counter},
    {"hit_rate", "Result-cache hits / (hits + misses)", Gauge},
    {"insertions", "Result-cache insertions", Counter},
    {"evictions", "LRU entries evicted for space", Counter},
    {"entries", "Cache keys resident", Counter},
    {"bytes", "Cache payload bytes resident", Counter},
    {"warm_started", "Cache entries replayed from the journal at start",
     Counter},
    {"qps", "Requests per second since daemon start", Gauge},
    {"shed_connections", "Connections shed BUSY at the accept gate",
     Counter},
    {"shed_requests", "SIM requests shed BUSY at admission", Counter},
    {"deadline_cancels", "Requests cancelled by the wall deadline",
     Counter},
    {"idle_reaped", "Idle connections closed by the idle timeout",
     Counter},
    {"read_timeouts", "Requests stalled mid-frame past the read timeout",
     Counter},
    {"accept_retries", "accept() failures retried", Counter},
    {"dropped_in_flight", "Requests force-closed at the drain deadline",
     Counter},
    {"compactions", "Cache journal compactions", Counter},
    {"journal_records", "Cache journal records on disk", Counter},
    {"journal_dead_records", "Cache journal records evicted or duplicate",
     Counter},
    {"request_latency_ms", "Request wall latency quantiles (ms)",
     Histogram},
}};

namespace
{

/** Doubles in snapshots: fixed six decimals, locale-independent. */
std::string
fmtDouble(double v)
{
    return csprintf("%.6f", v);
}

/**
 * Clamp an ETA estimate to the −1 "unknown" sentinel.
 *
 * Early in a run (first cadence interval, a just-restarted worker)
 * realized MIPS is still 0 and remaining/rate arithmetic can yield
 * negative, Inf, or NaN estimates. fmtDouble would serialize those
 * as "inf"/"nan" — not valid JSON — so the whole snapshot would turn
 * unparseable. Every publisher and parser funnels ETAs through here
 * so all three renderers (table, --json, --prom) agree on one
 * sentinel and show `?` uniformly.
 */
double
sanitizeEta(double eta)
{
    return std::isfinite(eta) && eta >= 0.0 ? eta : -1.0;
}

/** Wall-clock now with sub-second precision (file-age display only;
 *  deadlines elsewhere stay on the monotonic clock). */
double
wallNow()
{
    struct timespec ts;
    if (clock_gettime(CLOCK_REALTIME, &ts) != 0)
        return static_cast<double>(std::time(nullptr));
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Render one Quantiles block (,"key":{...}) or "" when empty. */
std::string
quantilesJson(const char *key, const stats::Quantiles &q)
{
    if (q.samples == 0)
        return std::string();
    return csprintf(",\"%s\":%s", key, q.toJson().c_str());
}

void
parseQuantiles(const json::Value &obj, const char *key,
               stats::Quantiles &out)
{
    const json::Value *v = obj.find(key);
    if (!v || !v->isObject())
        return;
    out.samples = v->getUint64("samples");
    out.p50 = v->getDouble("p50");
    out.p90 = v->getDouble("p90");
    out.p99 = v->getDouble("p99");
}

/** Whole-file read; false on any error (reader is best-effort). */
bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace

std::string
ServeStats::toJson() const
{
    std::string s;
    for (unsigned i = 0; i < ServeMetric::Count; ++i) {
        const ServeMetricDef &row = kServeMetrics[i];
        if (row.kind == Histogram && histograms[i].samples == 0)
            continue;
        const std::string value = row.kind == Counter
            ? std::to_string(counters[i])
            : row.kind == Gauge ? fmtDouble(gauges[i])
                                : histograms[i].toJson();
        s += csprintf("%s\"%s\":%s", s.empty() ? "" : ",", row.key,
                      value.c_str());
    }
    return s;
}

std::string
ServeStats::summary() const
{
    std::string s = csprintf(
        "%llu req (%llu hit / %llu miss)",
        static_cast<unsigned long long>(counters[ServeMetric::Requests]),
        static_cast<unsigned long long>(counters[ServeMetric::Hits]),
        static_cast<unsigned long long>(counters[ServeMetric::Misses]));
    for (unsigned i = 0; i < ServeMetric::Count; ++i) {
        if (i == ServeMetric::Requests || i == ServeMetric::Hits ||
            i == ServeMetric::Misses)
            continue; // in the headline
        const ServeMetricDef &row = kServeMetrics[i];
        std::string words = row.key;
        std::replace(words.begin(), words.end(), '_', ' ');
        if (row.kind == Histogram) {
            // An em dash, not the zeros of an empty histogram.
            s += ", " + words + " " +
                 (histograms[i].samples ? histograms[i].toString() : "—");
        } else {
            s += ", " +
                 (row.kind == Counter ? std::to_string(counters[i])
                                      : csprintf("%.3f", gauges[i])) +
                 " " + words;
        }
    }
    return s;
}

std::string
StatusSnapshot::toJson() const
{
    std::string s = csprintf(
        "{\"schema\":\"%s\",\"role\":\"%s\",\"label\":\"%s\","
        "\"pid\":%d,\"update_seq\":%llu,\"uptime_seconds\":%s",
        kStatusSchema, json::escape(role).c_str(),
        json::escape(label).c_str(), pid,
        static_cast<unsigned long long>(updateSeq),
        fmtDouble(uptimeSeconds).c_str());
    s += csprintf(
        ",\"jobs_total\":%zu,\"jobs_done\":%zu,\"jobs_ok\":%zu,"
        "\"jobs_failed\":%zu,\"jobs_retried\":%zu",
        jobsTotal, jobsDone, jobsOk, jobsFailed, jobsRetried);

    s += ",\"in_flight\":[";
    for (std::size_t i = 0; i < inFlight.size(); ++i) {
        s += csprintf("%s\"%016llx\"", i ? "," : "",
                      static_cast<unsigned long long>(inFlight[i]));
    }
    s += "]";

    s += csprintf(",\"mips\":%s,\"restarts\":%zu,"
                  "\"eta_seconds\":%s,\"finished\":%s",
                  fmtDouble(mips).c_str(), restarts,
                  fmtDouble(sanitizeEta(etaSeconds)).c_str(),
                  finished ? "true" : "false");

    s += quantilesJson("job_latency_ms", jobLatencyMs);
    s += quantilesJson("fsync_latency_ms", fsyncLatencyMs);
    s += quantilesJson("restart_backoff_ms", restartBackoffMs);

    if (!stages.empty()) {
        s += ",\"stages\":[";
        for (std::size_t i = 0; i < stages.size(); ++i) {
            s += csprintf(
                "%s{\"name\":\"%s\",\"seconds\":%s,\"count\":%llu}",
                i ? "," : "", json::escape(stages[i].name).c_str(),
                fmtDouble(stages[i].seconds).c_str(),
                static_cast<unsigned long long>(stages[i].count));
        }
        s += "]";
    }

    if (!shards.empty()) {
        s += ",\"shards\":[";
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ShardStatus &sh = shards[i];
            s += csprintf(
                "%s{\"shard\":%u,\"total\":%zu,\"done\":%zu,"
                "\"restarts\":%u,\"active\":%s,"
                "\"heartbeat_age_seconds\":%s,\"failed\":%s}",
                i ? "," : "", sh.shard, sh.total, sh.done,
                sh.restarts, sh.active ? "true" : "false",
                fmtDouble(sh.heartbeatAgeSeconds).c_str(),
                sh.failed ? "true" : "false");
        }
        s += "]";
    }

    if (serve.present())
        s += ",\"serve\":{" + serve.toJson() + "}";

    s += "}";
    return s;
}

bool
StatusSnapshot::fromJson(const std::string &text, StatusSnapshot &out)
{
    json::Value doc;
    if (!json::parse(text, doc) || !doc.isObject())
        return false;
    // Accept any v1-lineage schema ("powerchop-status-v1", future
    // "-v1.1"): the reader tolerates unknown fields anyway.
    if (doc.getString("schema").rfind("powerchop-status", 0) != 0)
        return false;

    out = StatusSnapshot();
    out.role = doc.getString("role");
    out.label = doc.getString("label");
    // Only a pid an int can hold; anything else (negative, huge,
    // NaN) reads as unknown rather than as an overflowed cast.
    const double pid = doc.getDouble("pid");
    out.pid = pid >= 0 && pid <= INT_MAX ? static_cast<int>(pid) : 0;
    out.updateSeq = doc.getUint64("update_seq");
    out.uptimeSeconds = doc.getDouble("uptime_seconds");
    out.jobsTotal = doc.getUint64("jobs_total");
    out.jobsDone = doc.getUint64("jobs_done");
    out.jobsOk = doc.getUint64("jobs_ok");
    out.jobsFailed = doc.getUint64("jobs_failed");
    out.jobsRetried = doc.getUint64("jobs_retried");
    out.mips = doc.getDouble("mips");
    out.restarts = doc.getUint64("restarts");
    // Normalize on the way in too: a snapshot written by an older
    // publisher (or edited by hand) may carry an arbitrary negative
    // value; readers must not distinguish "-3" from "unknown".
    out.etaSeconds = sanitizeEta(doc.getDouble("eta_seconds", -1));
    out.finished = doc.getBool("finished");

    if (const json::Value *arr = doc.find("in_flight");
        arr && arr->isArray()) {
        for (const json::Value &v : arr->elements()) {
            if (v.isString()) {
                out.inFlight.push_back(std::strtoull(
                    v.asString().c_str(), nullptr, 16));
            }
        }
    }

    parseQuantiles(doc, "job_latency_ms", out.jobLatencyMs);
    parseQuantiles(doc, "fsync_latency_ms", out.fsyncLatencyMs);
    parseQuantiles(doc, "restart_backoff_ms", out.restartBackoffMs);

    if (const json::Value *arr = doc.find("stages");
        arr && arr->isArray()) {
        for (const json::Value &v : arr->elements()) {
            if (!v.isObject())
                continue;
            telemetry::StageTime st;
            st.name = v.getString("name");
            st.seconds = v.getDouble("seconds");
            st.count = v.getUint64("count");
            out.stages.push_back(std::move(st));
        }
    }

    if (const json::Value *arr = doc.find("shards");
        arr && arr->isArray()) {
        for (const json::Value &v : arr->elements()) {
            if (!v.isObject())
                continue;
            ShardStatus sh;
            sh.shard = static_cast<unsigned>(v.getUint64("shard"));
            sh.total = v.getUint64("total");
            sh.done = v.getUint64("done");
            sh.restarts =
                static_cast<unsigned>(v.getUint64("restarts"));
            sh.active = v.getBool("active");
            sh.heartbeatAgeSeconds =
                v.getDouble("heartbeat_age_seconds", -1);
            sh.failed = v.getBool("failed");
            out.shards.push_back(sh);
        }
    }

    if (const json::Value *sv = doc.find("serve");
        sv && sv->isObject()) {
        for (unsigned i = 0; i < ServeMetric::Count; ++i) {
            const ServeMetricDef &row = kServeMetrics[i];
            if (row.kind == Counter)
                out.serve.counters[i] = sv->getUint64(row.key);
            else if (row.kind == Gauge)
                out.serve.gauges[i] = sv->getDouble(row.key);
            else
                parseQuantiles(*sv, row.key, out.serve.histograms[i]);
        }
    }
    return true;
}

StatusPublisher::StatusPublisher(std::string path,
                                 double minIntervalSeconds)
    : path_(std::move(path)), minInterval_(minIntervalSeconds),
      startedAt_(monotonicSeconds()),
      // Far enough in the virtual past that the first publish always
      // passes the cadence gate.
      lastPublish_(monotonicSeconds() - 2 * minIntervalSeconds - 1)
{
}

bool
StatusPublisher::publish(StatusSnapshot snap, bool force)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const double now = monotonicSeconds();
        if (!force && now - lastPublish_ < minInterval_)
            return false;
        lastPublish_ = now;
        snap.updateSeq = ++seq_;
        snap.uptimeSeconds = now - startedAt_;
    }
    if (snap.pid == 0)
        snap.pid = static_cast<int>(::getpid());
    // The publisher is the single choke point every snapshot passes
    // through: clamp unstable early-run ETA estimates here so no
    // renderer ever sees a negative/Inf/NaN value.
    snap.etaSeconds = sanitizeEta(snap.etaSeconds);
    atomicWriteFileOk(path_, snap.toJson() + "\n");
    return true;
}

std::uint64_t
StatusPublisher::published() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::string
statusDirPath(const std::string &campaignDir)
{
    return campaignDir + "/status";
}

std::string
campaignStatusPath(const std::string &campaignDir)
{
    return statusDirPath(campaignDir) + "/campaign.json";
}

std::vector<StatusEntry>
readStatusDir(const std::string &campaignDir)
{
    std::vector<StatusEntry> entries;
    const std::string dir = statusDirPath(campaignDir);
    DIR *d = opendir(dir.c_str());
    if (!d)
        return entries;

    const double now = wallNow();
    while (const struct dirent *ent = readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() < 6 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        const std::string path = dir + "/" + name;

        StatusEntry entry;
        entry.file = name;
        if (!readWholeFile(path, entry.rawJson))
            continue;
        // Trim the trailing newline so --json can embed the document
        // inline without breaking its own line structure.
        while (!entry.rawJson.empty() &&
               (entry.rawJson.back() == '\n' ||
                entry.rawJson.back() == '\r'))
            entry.rawJson.pop_back();

        struct stat st;
        if (stat(path.c_str(), &st) == 0) {
            const double mtime =
                static_cast<double>(st.st_mtim.tv_sec) +
                static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
            entry.ageSeconds = std::max(0.0, now - mtime);
        }
        entry.parsed =
            StatusSnapshot::fromJson(entry.rawJson, entry.snap);
        entries.push_back(std::move(entry));
    }
    closedir(d);

    // Aggregate first, then shard workers in name order, so the table
    // reads top-down from whole-campaign to detail.
    std::sort(entries.begin(), entries.end(),
              [](const StatusEntry &a, const StatusEntry &b) {
                  const bool aTop = a.file == "campaign.json";
                  const bool bTop = b.file == "campaign.json";
                  if (aTop != bTop)
                      return aTop;
                  return a.file < b.file;
              });
    return entries;
}

std::string
renderStatusTable(const std::vector<StatusEntry> &entries)
{
    std::string out = csprintf(
        "%-14s %-12s %6s %11s %5s %6s %4s %8s %4s %7s %s\n", "ENTRY",
        "ROLE", "AGE", "DONE/TOTAL", "FAIL", "RETRY", "FLY", "MIPS",
        "RST", "ETA", "STATE");
    for (const StatusEntry &e : entries) {
        std::string name = e.file;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            name.resize(name.size() - 5);
        if (!e.parsed) {
            out += csprintf("%-14s %-12s %6s %s\n", name.c_str(),
                            "?", "-", "<unparseable>");
            continue;
        }
        const StatusSnapshot &s = e.snap;
        const std::string age =
            e.ageSeconds < 0 ? "-" : csprintf("%.1fs", e.ageSeconds);
        const std::string eta =
            s.finished ? "-"
            : s.etaSeconds < 0
                ? "?"
                : csprintf("%.1fs", s.etaSeconds);
        out += csprintf(
            "%-14s %-12s %6s %5zu/%-5zu %5zu %6zu %4zu %8.2f "
            "%4zu %7s %s\n",
            name.c_str(), s.role.c_str(), age.c_str(), s.jobsDone,
            s.jobsTotal, s.jobsFailed, s.jobsRetried,
            s.inFlight.size(), s.mips, s.restarts, eta.c_str(),
            s.finished ? "finished" : "running");
        if (s.jobLatencyMs.samples > 0) {
            out += csprintf(
                "%-14s   job latency ms %s (%llu samples)\n", "",
                s.jobLatencyMs.toString().c_str(),
                static_cast<unsigned long long>(
                    s.jobLatencyMs.samples));
        }
        if (s.serve.present()) {
            out += csprintf("%-14s   serve: %s\n", "",
                            s.serve.summary().c_str());
        }
        for (const ShardStatus &sh : s.shards) {
            out += csprintf(
                "%-14s   shard %04u %zu/%zu done, %u restart(s), "
                "%s%s\n",
                "", sh.shard, sh.done, sh.total, sh.restarts,
                sh.failed ? "FAILED"
                          : (sh.active ? "active" : "idle"),
                sh.active && sh.heartbeatAgeSeconds >= 0
                    ? csprintf(", hb %.1fs ago",
                               sh.heartbeatAgeSeconds)
                          .c_str()
                    : "");
        }
    }
    if (entries.empty())
        out += "(no status files; campaign not started or "
               "observability disabled)\n";
    return out;
}

std::string
renderStatusJson(const std::string &campaignDir,
                 const std::vector<StatusEntry> &entries)
{
    std::string out = csprintf(
        "{\"schema\":\"%s\",\"dir\":\"%s\",\"entries\":[", kStatusSchema,
        json::escape(campaignDir).c_str());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const StatusEntry &e = entries[i];
        out += csprintf("%s\n  {\"file\":\"%s\",\"age_seconds\":%s,"
                        "\"parsed\":%s,\"status\":",
                        i ? "," : "", json::escape(e.file).c_str(),
                        fmtDouble(e.ageSeconds).c_str(),
                        e.parsed ? "true" : "false");
        // The snapshot document is embedded verbatim: what the
        // publisher wrote is what the consumer sees.
        out += e.parsed ? e.rawJson : std::string("null");
        out += "}";
    }
    out += entries.empty() ? "]}\n" : "\n]}\n";
    return out;
}

namespace
{

/** Prometheus text-format writer emitting HELP/TYPE once per metric. */
class PromWriter
{
  public:
    void
    gauge(const std::string &metric, const char *help,
          const std::string &labels, double value)
    {
        if (std::find(declared_.begin(), declared_.end(), metric) ==
            declared_.end()) {
            declared_.push_back(metric);
            out_ += csprintf("# HELP %s %s\n# TYPE %s gauge\n",
                             metric.c_str(), help, metric.c_str());
        }
        out_ += csprintf("%s{%s} %s\n", metric.c_str(),
                         labels.c_str(), fmtDouble(value).c_str());
    }

    const std::string &text() const { return out_; }

  private:
    std::string out_;
    std::vector<std::string> declared_;
};

void
promQuantiles(PromWriter &w, const std::string &metric,
              const char *help, const std::string &labels,
              const stats::Quantiles &q)
{
    if (q.samples == 0)
        return;
    w.gauge(metric, help, labels + ",quantile=\"0.5\"", q.p50);
    w.gauge(metric, help, labels + ",quantile=\"0.9\"", q.p90);
    w.gauge(metric, help, labels + ",quantile=\"0.99\"", q.p99);
    w.gauge(metric + "_samples", "Samples behind the quantiles",
            labels, static_cast<double>(q.samples));
}

} // namespace

std::string
renderStatusPrometheus(const std::vector<StatusEntry> &entries)
{
    PromWriter w;
    for (const StatusEntry &e : entries) {
        if (!e.parsed)
            continue;
        const StatusSnapshot &s = e.snap;
        std::string name = e.file;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            name.resize(name.size() - 5);
        const std::string labels = csprintf(
            "entry=\"%s\",role=\"%s\"", json::escape(name).c_str(),
            json::escape(s.role).c_str());

        w.gauge("powerchop_status_age_seconds",
                "Seconds since the snapshot file was written", labels,
                e.ageSeconds);
        w.gauge("powerchop_jobs_total", "Jobs owned by this process",
                labels, static_cast<double>(s.jobsTotal));
        w.gauge("powerchop_jobs_done", "Jobs in a terminal state",
                labels, static_cast<double>(s.jobsDone));
        w.gauge("powerchop_jobs_failed", "Jobs that failed terminally",
                labels, static_cast<double>(s.jobsFailed));
        w.gauge("powerchop_jobs_retried", "Extra attempts granted",
                labels, static_cast<double>(s.jobsRetried));
        w.gauge("powerchop_jobs_in_flight", "Jobs executing now",
                labels, static_cast<double>(s.inFlight.size()));
        w.gauge("powerchop_mips",
                "Realized simulated MIPS since process start", labels,
                s.mips);
        w.gauge("powerchop_restarts", "Worker restarts performed",
                labels, static_cast<double>(s.restarts));
        w.gauge("powerchop_finished",
                "1 when the campaign/worker has finished", labels,
                s.finished ? 1 : 0);
        w.gauge("powerchop_eta_seconds",
                "Estimated seconds to completion (-1 = unknown)",
                labels, s.etaSeconds);
        if (s.serve.present()) {
            for (unsigned i = 0; i < ServeMetric::Count; ++i) {
                const ServeMetricDef &row = kServeMetrics[i];
                const std::string metric =
                    std::string("powerchop_serve_") + row.key;
                if (row.kind == Histogram) {
                    promQuantiles(w, metric, row.help, labels,
                                  s.serve.histograms[i]);
                } else {
                    w.gauge(metric, row.help, labels,
                            row.kind == Gauge
                                ? s.serve.gauges[i]
                                : static_cast<double>(
                                      s.serve.counters[i]));
                }
            }
        }
        promQuantiles(w, "powerchop_job_latency_ms",
                      "Per-job wall latency quantiles (ms)", labels,
                      s.jobLatencyMs);
        promQuantiles(w, "powerchop_fsync_latency_ms",
                      "Journal append fsync latency quantiles (ms)",
                      labels, s.fsyncLatencyMs);
        promQuantiles(w, "powerchop_restart_backoff_ms",
                      "Worker restart backoff quantiles (ms)", labels,
                      s.restartBackoffMs);
    }
    return w.text();
}

} // namespace powerchop
