/**
 * @file
 * powerchopd load generation for pcbench's serve workloads: the daemon
 * under test (the real `powerchop serve` binary, spawned, filled,
 * drained and warm-restarted like an operator would), a closed-loop
 * GET load generator and an open-loop one that follows a precomputed
 * arrival schedule.
 *
 * Request sets are built before the clock starts and warm-up requests
 * are kept apart from timed ones, so generator cost and cold-start
 * effects stay out of the samples. Latencies are stored per request;
 * hits and misses are never mixed into one distribution.
 */

#ifndef PCBENCH_SERVE_LOAD_HH
#define PCBENCH_SERVE_LOAD_HH

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "bench_support.hh"

namespace pcbench
{

inline const std::vector<std::string> kMachines = {"server", "mobile"};

/** One servable job: the single-job SIM spec and its content key. */
struct ServeKey
{
    std::string app;
    std::string machine;
    SimMode mode = SimMode::FullPower;
    InsnCount insns = 0;

    /** The SimJob the spec expands to inside the daemon (built like
     *  the daemon's matrix expansion, so the content keys agree). */
    SimJob
    job() const
    {
        SimJob j;
        j.workload = findWorkload(app);
        j.machine = machine == "server" ? serverConfig() : mobileConfig();
        j.opts.mode = mode;
        j.opts.maxInstructions = insns;
        return j;
    }

    std::uint64_t key() const { return campaignJobKey(job()); }

    std::string
    spec() const
    {
        return formatSimSpec({app}, {machine}, {simModeName(mode)}, insns,
                             0);
    }
};

/** A SIM matrix request and the keys it fills, in daemon order. */
struct Matrix
{
    std::string spec;
    std::vector<ServeKey> keys;
};

/** apps x both machines x modes at one instruction budget. */
inline Matrix
makeMatrix(const std::vector<std::string> &apps,
           const std::vector<SimMode> &modes, InsnCount insns)
{
    Matrix m;
    std::vector<std::string> modeNames;
    for (SimMode mode : modes)
        modeNames.push_back(simModeName(mode));
    m.spec = formatSimSpec(apps, kMachines, modeNames, insns, 0);
    for (const std::string &a : apps) {
        for (const std::string &mach : kMachines) {
            for (SimMode mode : modes)
                m.keys.push_back({a, mach, mode, insns});
        }
    }
    return m;
}

inline std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

/** One `powerchop serve` process. The destructor SIGKILLs a daemon
 *  that was never drained, so an exception never leaks one. */
class Daemon
{
  public:
    struct Options
    {
        std::string bin;    ///< The powerchop CLI.
        std::string dir;    ///< Serve directory (cache journal).
        std::string socket; ///< Socket path, relative to the cwd.
        unsigned jobs = 1;  ///< POWERCHOP_JOBS of the daemon.
        std::vector<std::string> args; ///< Extra serve flags.
        std::optional<cpu_set_t> pin;  ///< CPUs the daemon runs on.
    };

    explicit Daemon(Options opts) : opts_(std::move(opts)) {}

    /** Spawn and wait for the first STATS reply.
     *  @return seconds from spawn to that reply. */
    double
    start(double timeoutSeconds = 30)
    {
        SpawnOptions so;
        so.argv = {opts_.bin, "serve", opts_.dir, "--socket",
                   opts_.socket};
        so.argv.insert(so.argv.end(), opts_.args.begin(),
                       opts_.args.end());
        so.extraEnv = {csprintf("POWERCHOP_JOBS=%u", opts_.jobs)};
        so.pipeStdin = false;
        so.pipeStdout = true;
        const std::int64_t t0 = monotonicNanos();
        {
            // The child inherits the spawning thread's mask.
            std::optional<ScopedPin> pin;
            if (opts_.pin)
                pin.emplace(*opts_.pin);
            proc_.spawn(so);
        }
        const MonotonicDeadline deadline(timeoutSeconds);
        while (!deadline.expired()) {
            out_ += proc_.readAvailable();
            if (!proc_.poll().running()) {
                throw std::runtime_error(csprintf(
                    "powerchop serve %s died during start-up (%s)",
                    opts_.dir.c_str(),
                    proc_.poll().describe().c_str()));
            }
            ServeClient client;
            if (client.connectUnix(opts_.socket) &&
                client.stats().status == ResponseStatus::Ok) {
                return secondsSince(t0);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        throw std::runtime_error("powerchop serve " + opts_.dir +
                                 " not ready in time");
    }

    /** One STATS round trip on a fresh connection. */
    json::Value
    stats() const
    {
        ServeClient client;
        std::string err;
        if (!client.connectUnix(opts_.socket, &err))
            throw std::runtime_error("STATS connect: " + err);
        const ServeReply reply = client.stats();
        json::Value doc;
        if (reply.status != ResponseStatus::Ok ||
            !json::parse(reply.payload, doc)) {
            throw std::runtime_error("STATS: bad reply");
        }
        return doc;
    }

    double peakRss() const { return peakRssMb(std::to_string(proc_.pid())); }

    /** CPU seconds the daemon has used so far. */
    double cpuSeconds() const { return processCpuSeconds(proc_.pid()); }

    /** SIGTERM, then wait for the drain. @return the exit code, or
     *  -1 when it died by signal or outlived the timeout. */
    int
    drain(double timeoutSeconds = 30)
    {
        proc_.sendSignal(SIGTERM);
        const ExitStatus st = proc_.wait(timeoutSeconds, &out_);
        if (st.running()) {
            proc_.killHard();
            return -1;
        }
        return st.kind == ExitStatus::Kind::Exited ? st.exitCode : -1;
    }

    const std::string &socket() const { return opts_.socket; }

  private:
    Options opts_;
    Subprocess proc_;
    std::string out_;
};

/**
 * A daemon brought up the way an operator restarts one: spawn, fill
 * with SIM matrices, SIGTERM drain (exit 3 expected), then a warm
 * restart from the journal. The restarted daemon is the one under
 * test; every drained daemon's exit code is kept for the checks.
 */
class WarmDaemon
{
  public:
    /** Drain the previous daemon (if any) and bring up a new one.
     *  @return CPU seconds of the bring-up: this process's, the drained
     *  daemon's and the restarted daemon's so far (the previous
     *  daemon's drain excluded). */
    double
    bringUp(Daemon::Options opts, const std::vector<Matrix> &fills)
    {
        drain();
        std::optional<cpu_set_t> pin = opts.pin;
        opts.pin.reset(); // The fill uses every CPU.
        const double cpu0 = ownCpuSeconds();
        {
            Daemon first(opts);
            first.start();
            ServeClient client;
            std::string err;
            if (!client.connectUnix(opts.socket, &err))
                throw std::runtime_error("fill connect: " + err);
            for (const Matrix &m : fills) {
                const ServeReply reply = client.sim(m.spec);
                if (reply.status != ResponseStatus::Ok)
                    throw std::runtime_error(
                        std::string("fill SIM answered ") +
                        responseStatusName(reply.status));
            }
            client.close();
            drainCodes_.push_back(first.drain());
        }
        opts.pin = pin;
        daemon_ = std::make_unique<Daemon>(opts);
        restartReady_ = daemon_->start();
        const double cpu =
            ownCpuSeconds() - cpu0 + daemon_->cpuSeconds();
        if (daemon_->stats().getUint64("warm_started") == 0 &&
            !fills.empty())
            warmStartFailure_ = "restarted daemon warm-started nothing";
        return cpu;
    }

    Daemon &daemon() { return *daemon_; }
    const std::string &socket() const { return daemon_->socket(); }

    /** Spawn to first STATS reply of the restarted daemon, seconds. */
    double restartReadySeconds() const { return restartReady_; }

    /** Drain the daemon under test, if one is up. */
    void
    drain()
    {
        if (daemon_) {
            drainCodes_.push_back(daemon_->drain());
            daemon_.reset();
        }
    }

    /** Drain, then record whether every daemon drained with exit 3
     *  and the restarts replayed their journals. */
    void
    finish(RunResult &r)
    {
        drain();
        std::string codes;
        bool ok = true;
        for (int c : drainCodes_) {
            codes += csprintf("%s%d", codes.empty() ? "" : ",", c);
            ok = ok && c == campaignInterruptedExitStatus;
        }
        r.check("daemons-drain-exit-3", ok, "exit codes " + codes);
        r.check("warm-restart", warmStartFailure_.empty(),
                warmStartFailure_);
    }

  private:
    std::unique_ptr<Daemon> daemon_;
    std::vector<int> drainCodes_;
    double restartReady_ = 0;
    std::string warmStartFailure_;
};

/** What a closed-loop GET phase measured, over the windows kept. */
struct ClosedLoopStats
{
    Samples latencyUs;  ///< Round trip of each GET hit.
    double rate = 0;    ///< GET hits per second.
    std::size_t windowsKept = 0;
    /** Timed GETs in every window, and warm-up GETs that failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Closed loop: `conns` connections, each on its own thread, send one
 * GET, wait for its response and send the next, each walking the
 * precomputed key list from its own offset. GETs sent during
 * `warmupSeconds` are not recorded. Every GET must HIT; anything else
 * counts as failed.
 *
 * The timed phase is cut into 100 ms windows by send time. Rate and
 * latency come from the half of the windows that completed the most
 * GETs (earlier ones first on ties): each round trip is two cross-CPU
 * wake-ups, and a window in which the host held a CPU back or other
 * tenants crowded the memory system completes fewer GETs and says
 * more about the host than about the daemon.
 */
inline ClosedLoopStats
runClosedLoopGets(const std::string &socket,
                  const std::vector<std::uint64_t> &keys, unsigned conns,
                  double warmupSeconds, double seconds, Tracer &tracer,
                  int parentSpan, unsigned spanEvery)
{
    constexpr std::int64_t kWindowNs = 100'000'000;
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * 1e9) / kWindowNs);
    // Per connection: per window, each timed GET hit's round trip.
    std::vector<std::vector<Samples>> latUs(
        conns, std::vector<Samples>(windows));
    std::vector<std::uint64_t> attempted(conns, 0), failed(conns, 0);
    std::atomic<unsigned> ready{0};
    std::atomic<std::int64_t> startNs{0};
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < conns; ++c) {
        pool.emplace_back([&, c] {
            ServeClient client;
            const bool ok = client.connectUnix(socket);
            ready.fetch_add(1);
            while (startNs.load() == 0)
                std::this_thread::yield();
            if (!ok) {
                attempted[c] = failed[c] = 1;
                return;
            }
            const std::int64_t measureNs =
                startNs.load() +
                static_cast<std::int64_t>(warmupSeconds * 1e9);
            const std::int64_t endNs =
                measureNs + static_cast<std::int64_t>(windows) * kWindowNs;
            for (std::size_t next = c * keys.size() / conns;; ++next) {
                const std::uint64_t key = keys[next % keys.size()];
                const std::int64_t t0 = monotonicNanos();
                if (t0 >= endNs)
                    break;
                const ServeReply reply = client.get(key);
                const std::int64_t t1 = monotonicNanos();
                const bool timed = t0 >= measureNs;
                const bool hit = !reply.ioFailed &&
                                 reply.status == ResponseStatus::Hit;
                if (timed || !hit)
                    ++attempted[c];
                if (!hit) {
                    ++failed[c];
                    if (reply.ioFailed)
                        break;
                    continue;
                }
                if (!timed)
                    continue;
                latUs[c][static_cast<std::size_t>((t0 - measureNs) /
                                                  kWindowNs)]
                    .add(static_cast<double>(t1 - t0) * 1e-3);
                if (tracer.enabled() && attempted[c] % spanEvery == 0)
                    tracer.add("serve.get", t0, t1, parentSpan, key, c + 1);
            }
        });
    }
    while (ready.load() < conns)
        std::this_thread::yield();
    startNs.store(monotonicNanos());
    for (std::thread &t : pool)
        t.join();

    ClosedLoopStats st;
    std::vector<std::size_t> done(windows, 0);
    std::vector<std::size_t> order(windows);
    for (std::size_t w = 0; w < windows; ++w) {
        order[w] = w;
        for (unsigned c = 0; c < conns; ++c)
            done[w] += latUs[c][w].size();
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return done[a] > done[b];
                     });
    st.windowsKept = std::max<std::size_t>(1, windows / 2);
    for (std::size_t i = 0; i < st.windowsKept; ++i) {
        for (unsigned c = 0; c < conns; ++c)
            st.latencyUs.append(latUs[c][order[i]]);
    }
    st.rate = static_cast<double>(st.latencyUs.size()) /
              (static_cast<double>(st.windowsKept * kWindowNs) * 1e-9);
    for (unsigned c = 0; c < conns; ++c) {
        st.attempted += attempted[c];
        st.failed += failed[c];
    }
    return st;
}

/** One request of an open-loop schedule. */
struct PlannedRequest
{
    double dueSeconds = 0; ///< Send time, from the schedule start.
    bool miss = false;     ///< SIM of a never-seen key, else a GET.
    std::uint64_t key = 0; ///< GET key (hits).
    std::string spec;      ///< SIM spec (misses).
    bool keepPayload = false; ///< Keep the reply for output checks.
};

/** What an open-loop phase measured. */
struct OpenLoopStats
{
    Samples hitUs;  ///< Latency from due time, GET hits.
    Samples missUs; ///< Latency from due time, SIM misses.
    Samples lateUs; ///< How late the generator sent each request.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstError;
    /** (plan index, payload) of the requests marked keepPayload. */
    std::vector<std::pair<std::size_t, std::string>> payloads;
};

/**
 * Open loop: the schedule is sent regardless of replies. Request i
 * goes out on connection i mod `conns` at its due time; its latency
 * is measured from that due time, so a stall charges every request
 * it delays. `pin`, when set, holds the connection threads' CPUs.
 */
inline OpenLoopStats
runOpenLoop(const std::string &socket, const std::optional<cpu_set_t> &pin,
            const std::vector<PlannedRequest> &plan, unsigned conns,
            Tracer &tracer, int parentSpan)
{
    std::vector<OpenLoopStats> per(conns);
    std::atomic<unsigned> ready{0};
    std::atomic<std::int64_t> startNs{0};
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < conns; ++c) {
        pool.emplace_back([&, c] {
            // Wake at the due time, not up to the default 50 us later.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
            std::optional<ScopedPin> pinned;
            if (pin)
                pinned.emplace(*pin);
            OpenLoopStats &st = per[c];
            ServeClient client;
            std::string err;
            const bool ok = client.connectUnix(socket, &err);
            ready.fetch_add(1);
            while (startNs.load() == 0)
                std::this_thread::yield();
            const std::int64_t t0 = startNs.load();
            for (std::size_t i = c; i < plan.size(); i += conns) {
                const PlannedRequest &rq = plan[i];
                const std::int64_t dueNs =
                    t0 + static_cast<std::int64_t>(rq.dueSeconds * 1e9);
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(dueNs)));
                const std::int64_t sent = monotonicNanos();
                ServeReply reply;
                if (!ok) {
                    reply.ioFailed = true;
                    reply.error = err;
                } else {
                    reply = rq.miss ? client.sim(rq.spec)
                                    : client.get(rq.key);
                }
                const std::int64_t done = monotonicNanos();
                const bool good =
                    !reply.ioFailed &&
                    reply.status == (rq.miss ? ResponseStatus::Ok
                                             : ResponseStatus::Hit);
                if (rq.keepPayload)
                    st.payloads.emplace_back(i, reply.payload);
                ++st.attempted;
                if (!good) {
                    ++st.failed;
                    if (st.firstError.empty()) {
                        st.firstError = reply.ioFailed
                            ? reply.error
                            : std::string(responseStatusName(
                                  reply.status)) +
                                  " " + reply.payload.substr(0, 200);
                    }
                    continue;
                }
                const double latUs =
                    static_cast<double>(done - dueNs) * 1e-3;
                (rq.miss ? st.missUs : st.hitUs).add(latUs);
                st.lateUs.add(static_cast<double>(sent - dueNs) * 1e-3);
                tracer.add(rq.miss ? "serve.sim_miss" : "serve.get_hit",
                           sent, done, parentSpan, i, c + 1);
            }
        });
    }
    while (ready.load() < conns)
        std::this_thread::yield();
    // A short lead so every connection thread is parked on its first
    // due time before the schedule starts.
    startNs.store(monotonicNanos() + 20'000'000);
    for (std::thread &t : pool)
        t.join();

    OpenLoopStats total;
    for (OpenLoopStats &st : per) {
        total.hitUs.append(st.hitUs);
        total.missUs.append(st.missUs);
        total.lateUs.append(st.lateUs);
        total.attempted += st.attempted;
        total.failed += st.failed;
        if (total.firstError.empty())
            total.firstError = st.firstError;
        for (auto &p : st.payloads)
            total.payloads.push_back(std::move(p));
    }
    return total;
}

/**
 * Arrival times of a Poisson process at `rate` over [0, seconds),
 * conditioned on exactly rate * seconds arrivals (sorted uniform
 * draws), so the offered load is identical on every seed.
 */
inline std::vector<double>
poissonSchedule(double rate, double seconds, Rng &rng)
{
    const std::size_t n =
        static_cast<std::size_t>(std::llround(rate * seconds));
    std::vector<double> t(n);
    for (double &x : t)
        x = rng.uniform() * seconds;
    std::sort(t.begin(), t.end());
    return t;
}

} // namespace pcbench

#endif // PCBENCH_SERVE_LOAD_HH
