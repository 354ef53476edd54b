/**
 * @file
 * pcbench plumbing shared by every workload: exact-percentile sample
 * sets, the result record and its JSON rendering, in-memory span
 * tracing with Chrome-trace output, the host fingerprint stamped into
 * every result, seeded random sub-streams and CPU pinning.
 *
 * Everything here lives in the benchmark; the layers under test are
 * only ever called through their public headers.
 */

#ifndef PCBENCH_BENCH_SUPPORT_HH
#define PCBENCH_BENCH_SUPPORT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include "powerchop/powerchop.hh"

#ifndef PCBENCH_BUILD_TYPE
#define PCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PCBENCH_GIT_SHA
#define PCBENCH_GIT_SHA "unknown"
#endif

namespace pcbench
{

using namespace powerchop;

/** Full-precision number rendering: results carry every digit. */
inline std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    return csprintf("%.17g", v);
}

/** A set of stored samples; percentiles are computed exactly from
 *  them (linear interpolation between closest ranks), never from
 *  histogram buckets. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }

    void
    append(const Samples &other)
    {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
    }

    /** @param p quantile in [0, 1]; 0 with no samples. */
    double
    quantile(double p) const
    {
        if (values_.empty())
            return 0;
        std::vector<double> s = values_;
        std::sort(s.begin(), s.end());
        const double pos = p * static_cast<double>(s.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, s.size() - 1);
        return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
    }

    double median() const { return quantile(0.5); }

  private:
    std::vector<double> values_;
};

/** One reported number. `samples` is the count a percentile or median
 *  was computed from (0 for derived values). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
};

/** One correctness check, run outside the timed phase. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Everything one workload run produced. */
struct RunResult
{
    std::string workload;
    bool traced = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Check> checks;

    void
    metric(const std::string &name, double value, const std::string &unit,
           std::size_t samples = 0)
    {
        metrics.push_back({name, value, unit, samples});
    }

    void
    check(const std::string &name, bool ok, const std::string &detail = "")
    {
        checks.push_back({name, ok, detail});
    }

    bool
    correct() const
    {
        if (failed != 0 || attempted == 0)
            return false;
        for (const Check &c : checks) {
            if (!c.ok)
                return false;
        }
        return true;
    }

    /** The run as a JSON object (metrics keep their sample counts). */
    std::string
    toJson() const
    {
        std::string s = csprintf(
            "{\"workload\":\"%s\",\"traced\":%s,\"correct\":%s,"
            "\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
            workload.c_str(), traced ? "true" : "false",
            correct() ? "true" : "false",
            static_cast<unsigned long long>(attempted),
            static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const Metric &m = metrics[i];
            s += csprintf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\","
                          "\"samples\":%zu}",
                          i ? "," : "", m.name.c_str(),
                          num(m.value).c_str(), m.unit.c_str(),
                          m.samples);
        }
        s += "},\"checks\":[";
        for (std::size_t i = 0; i < checks.size(); ++i) {
            s += csprintf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                          i ? "," : "", checks[i].name.c_str(),
                          checks[i].ok ? "true" : "false",
                          json::escape(checks[i].detail).c_str());
        }
        return s + "]}";
    }
};

// --- host fingerprint -------------------------------------------------------

/** Name of the filesystem holding `path` (statfs magic numbers). */
inline std::string
filesystemType(const std::string &path)
{
    struct statfs st;
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53:
        return "ext4";
      case 0x01021994:
        return "tmpfs";
      case 0x58465342:
        return "xfs";
      case 0x9123683E:
        return "btrfs";
      case 0x794C7630:
        return "overlayfs";
      case 0x6969:
        return "nfs";
      default:
        return csprintf("0x%lx", static_cast<unsigned long>(st.f_type));
    }
}

/** The host a result was measured on: two results compare only when
 *  every field but git_sha matches. */
struct HostFingerprint
{
    unsigned nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string buildType;
    std::string gitSha;
    std::string journalFs;

    std::string
    toJson() const
    {
        return csprintf(
            "{\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\","
            "\"build_type\":\"%s\",\"git_sha\":\"%s\","
            "\"journal_fs\":\"%s\"}",
            nproc, json::escape(cpu).c_str(),
            json::escape(compiler).c_str(),
            json::escape(buildType).c_str(),
            json::escape(gitSha).c_str(),
            json::escape(journalFs).c_str());
    }
};

/**
 * Fingerprint this host. nproc and the CPU model come from the
 * running system; compiler, build type and git sha are fixed when the
 * benchmark is built; the filesystem is the one `journalDir` (where
 * campaign journals and daemon caches are written) lives on.
 */
inline HostFingerprint
hostFingerprint(const std::string &journalDir)
{
    HostFingerprint fp;
    fp.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                fp.cpu = line.substr(line.find_first_not_of(' ',
                                                            colon + 1));
            break;
        }
    }
    if (fp.cpu.empty())
        fp.cpu = "unknown";
    fp.compiler = __VERSION__;
    fp.buildType = PCBENCH_BUILD_TYPE;
    fp.gitSha = PCBENCH_GIT_SHA;
    fp.journalFs = filesystemType(journalDir);
    return fp;
}

/** CPUs [first, first + count) as an affinity mask. */
inline cpu_set_t
cpuRange(unsigned first, unsigned count)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned c = first; c < first + count; ++c)
        CPU_SET(c, &set);
    return set;
}

/** Pins the calling thread to a CPU set while it lives, then restores
 *  the thread's mask. Threads and processes started meanwhile inherit
 *  the pinned mask. */
class ScopedPin
{
  public:
    explicit ScopedPin(const cpu_set_t &cpus)
    {
        ::sched_getaffinity(0, sizeof(saved_), &saved_);
        ::sched_setaffinity(0, sizeof(cpus), &cpus);
    }
    ~ScopedPin() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }

    ScopedPin(const ScopedPin &) = delete;
    ScopedPin &operator=(const ScopedPin &) = delete;

  private:
    cpu_set_t saved_;
};

/**
 * Keep `threads` CPUs busy for `seconds`. A virtual machine's CPUs
 * leave their idle states slowly: on the 4-vCPU machine pcbench was
 * written on, a four-thread warm-up pass that followed a few idle
 * seconds ran 4-5x slower than the same pass after this spin, and
 * stayed slow for longer than the pass lasted.
 */
inline void
spinCpus(unsigned threads, double seconds)
{
    const std::int64_t end =
        monotonicNanos() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> spinners;
    for (unsigned t = 0; t < threads; ++t) {
        spinners.emplace_back([end] {
            while (monotonicNanos() < end) {
            }
        });
    }
    for (std::thread &t : spinners)
        t.join();
}

// --- CPU time ---------------------------------------------------------------
//
// pcbench is written for a shared virtual machine, where much of the
// run-to-run spread of wall time is steal: time the hypervisor runs
// other guests on a CPU this guest wanted. On the 4-vCPU machine it was
// written on, a fixed 80 ms integer loop took 81-126 ms of wall time
// and 80-89 ms of thread CPU time; the difference tracked the CPU's
// steal counter in /proc/stat. CPU clocks leave steal out, so work
// that only computes is timed by them.

/** CPU time of the calling thread, ns. */
inline std::int64_t
threadCpuNanos()
{
    timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** CPU seconds (user + system) this process and its reaped children
 *  have used. */
inline double
ownCpuSeconds()
{
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    struct rusage self = {}, kids = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
           seconds(kids.ru_utime) + seconds(kids.ru_stime);
}

/** CPU seconds (user + system) process `pid` has used so far, at
 *  clock-tick resolution; 0 when unreadable. */
inline double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0;
    unsigned long long utime = 0, stime = 0;
    if (std::sscanf(stat.c_str() + paren + 1,
                    " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) != 2)
        return 0;
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** Peak resident set (VmHWM) of a process in MiB; 0 when unreadable. */
inline double
peakRssMb(const std::string &pid = "self")
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

// --- seeded inputs ----------------------------------------------------------

/** An independent random stream per purpose, all driven by --seed:
 *  the same seed always yields the same inputs. */
inline Rng
seededRng(std::uint64_t seed, const std::string &purpose)
{
    return Rng(fnv1a64(purpose) ^ (seed * 0x9e3779b97f4a7c15ull));
}

/** In-place seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** `k` distinct indices of [0, n), seeded. */
inline std::vector<std::size_t>
sampleIndices(std::size_t n, std::size_t k, Rng &rng)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    shuffle(idx, rng);
    idx.resize(std::min(k, n));
    return idx;
}

/** Seeded draws without replacement, reshuffled once exhausted: each
 *  item comes up once per pass, so even a short run covers the set
 *  evenly. */
template <typename T>
class Deck
{
  public:
    explicit Deck(std::vector<T> items) : items_(std::move(items)) {}

    T
    draw(Rng &rng)
    {
        if (left_.empty()) {
            left_ = items_;
            shuffle(left_, rng);
        }
        T v = std::move(left_.back());
        left_.pop_back();
        return v;
    }

  private:
    std::vector<T> items_;
    std::vector<T> left_;
};

/** Zipf(1) rank draws: P(rank r) proportional to 1/(r+1). */
class ZipfSampler
{
  public:
    explicit ZipfSampler(std::size_t n) : cumulative_(n)
    {
        double total = 0;
        for (std::size_t r = 0; r < n; ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            cumulative_[r] = total;
        }
    }

    std::size_t
    draw(Rng &rng) const
    {
        const double u = rng.uniform() * cumulative_.back();
        const auto it =
            std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
        return std::min<std::size_t>(it - cumulative_.begin(),
                                     cumulative_.size() - 1);
    }

  private:
    std::vector<double> cumulative_;
};

// --- tracing ----------------------------------------------------------------

/**
 * In-memory spans (name, start, end, parent, job or request id),
 * written as Chrome trace JSON when the run ends. Disabled tracers
 * record nothing and cost one branch per span. Thread-safe: serve
 * connection threads record concurrently.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint64_t id = 0;
        unsigned tid = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 16);
    }

    bool enabled() const { return enabled_; }

    /** Open a span; @return its handle (-1 when disabled). */
    int
    begin(const char *name, int parent = -1, std::uint64_t id = 0)
    {
        if (!enabled_)
            return -1;
        return add(name, monotonicNanos(), 0, parent, id);
    }

    void
    end(int handle)
    {
        if (handle < 0)
            return;
        const std::int64_t now = monotonicNanos();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[handle].endNs = now;
    }

    /** Record an already-finished span. */
    int
    add(const char *name, std::int64_t startNs, std::int64_t endNs,
        int parent = -1, std::uint64_t id = 0, unsigned tid = 0)
    {
        if (!enabled_)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, startNs, endNs, parent, id, tid});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Self time per span name: each span's duration minus the part
     *  of it its direct children cover (children running in parallel
     *  count once), summed by name. */
    std::map<std::string, std::int64_t>
    selfTimesNs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
            children(spans_.size());
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                children[s.parent].emplace_back(s.startNs, s.endNs);
        }
        std::map<std::string, std::int64_t> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto &c = children[i];
            std::sort(c.begin(), c.end());
            std::int64_t covered = 0, reach = spans_[i].startNs;
            for (const auto &[start, end] : c) {
                const std::int64_t from = std::max(start, reach);
                const std::int64_t to = std::min(end, spans_[i].endNs);
                if (to > from)
                    covered += to - from;
                reach = std::max(reach, to);
            }
            out[spans_[i].name] +=
                spans_[i].endNs - spans_[i].startNs - covered;
        }
        return out;
    }

    /** Write every span as Chrome trace-event JSON (complete events,
     *  microsecond timestamps). @return false on I/O failure. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
        std::string out = "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += csprintf(
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                "\"parent\":%d,\"id\":\"%016llx\"}}",
                i ? ",\n" : "", s.name, s.tid,
                static_cast<double>(s.startNs - t0) / 1e3,
                static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                s.parent, static_cast<unsigned long long>(s.id));
        }
        out += "\n]}\n";
        return atomicWriteFileOk(path, out);
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, int parent = -1,
               std::uint64_t id = 0)
        : tracer_(tracer), handle_(tracer.begin(name, parent, id))
    {
    }
    ~ScopedSpan() { tracer_.end(handle_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int handle() const { return handle_; }

  private:
    Tracer &tracer_;
    int handle_;
};

/** Seconds elapsed since `startNs` (monotonic). */
inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(monotonicNanos() - startNs) * 1e-9;
}

} // namespace pcbench

#endif // PCBENCH_BENCH_SUPPORT_HH
