/**
 * @file
 * pcbench: one benchmark for the PowerChop reproduction — simulator
 * speed, campaign throughput and powerchopd hit/miss latency — with a
 * per-layer ledger.
 *
 *   pcbench --workload NAME|all --seed N [--seconds S] [--trace 0|1]
 *           [--smoke] [--out FILE] [--trace-out FILE]
 *
 * Five workloads (README.md says why each exists):
 *   sim-powerchop   29 apps, PowerChop mode, one runner thread
 *   sim-baselines   29 apps x full-power/timeout-vpu/drowsy-mlc
 *   campaign-sweep  runCampaign on nproc threads, Fig. 16 sweep
 *   serve-hot       closed-loop GET hits against powerchopd
 *   serve-mixed     open-loop Poisson mix of hits and fresh SIMs
 *
 * An untraced run prints the end-to-end metrics; --trace 1 runs the
 * measured phase untraced and then traced, measures every layer on
 * the workload's own jobs, and prints the per-layer metrics instead.
 * Every run checks its outputs outside the timed phase. The last
 * stdout line is one JSON object: correct, attempted, failed and
 * metrics. The exit status is 0 only when the run is correct.
 *
 * --seed drives every generated input: workload seeds, job orders,
 * sweep points, key orders, Zipf draws and arrival schedules.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>

#include "bench_support.hh"
#include "ledger.hh"
#include "serve_load.hh"

#ifndef PCBENCH_POWERCHOP_BIN
#define PCBENCH_POWERCHOP_BIN "powerchop"
#endif

namespace pcbench
{
namespace
{

const std::vector<std::string> kWorkloads = {
    "sim-powerchop", "sim-baselines", "campaign-sweep", "serve-hot",
    "serve-mixed"};

struct MetricName
{
    const char *name;
    const char *unit;
};

/** What every untraced run reports (BENCHMARK.json end_to_end). */
const MetricName kEndToEnd[] = {
    {"throughput", "1/s"},     {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** What every traced run reports (BENCHMARK.json per_layer). A metric
 *  of a layer its workload does not run reads 0 (README.md lists
 *  which). */
const MetricName kLayerMetrics[] = {
    {"sim.ns_per_insn", "ns/insn"},
    {"workload.ns_per_insn", "ns/insn"},
    {"workload.build_ms", "ms"},
    {"bt.ns_per_insn", "ns/insn"},
    {"bt.build_ms", "ms"},
    {"bt.enter_region_ns", "ns"},
    {"bt.heads_per_kinsn", "1/kinsn"},
    {"uarch.ns_per_insn", "ns/insn"},
    {"uarch.mem_access_ns", "ns"},
    {"uarch.mem_per_kinsn", "1/kinsn"},
    {"uarch.l1_hit_rate", "ratio"},
    {"uarch.mlc_hit_rate", "ratio"},
    {"uarch.bpu_predict_ns", "ns"},
    {"uarch.branches_per_kinsn", "1/kinsn"},
    {"uarch.vpu_op_ns", "ns"},
    {"uarch.simd_per_kinsn", "1/kinsn"},
    {"core.ns_per_insn", "ns/insn"},
    {"core.head_ns", "ns"},
    {"core.pvt_hit_rate", "ratio"},
    {"power.ns_per_insn", "ns/insn"},
    {"power.energy_us_per_job", "us"},
    {"sim.residual_ns_per_insn", "ns/insn"},
    {"campaign.sim_only_jobs_per_s", "1/s"},
    {"campaign.overhead_frac", "ratio"},
    {"journal.append_us_p50", "us"},
    {"journal.append_us_p99", "us"},
    {"campaign.report_ms", "ms"},
    {"sim_runner.busy_frac", "ratio"},
    {"serve.restart_ready_s", "s"},
    {"serve.cache_get_ns", "ns"},
    {"serve.miss_idle_ms", "ms"},
    {"serve.miss_sim_ms", "ms"},
    {"serve.miss_overhead_ms", "ms"},
    {"serve.miss_queue_ms", "ms"},
    {"serve.hit_rate", "ratio"},
    {"serve.evictions", "count"},
    {"serve.compactions", "count"},
    {"serve.shed_frac", "ratio"},
    {"serve.hit_p50_us", "us"},
    {"serve.hit_p90_us", "us"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    bool smoke = false;
    std::string out;
    std::string traceOut;
};

/** Run sizes: the benchmark proper, or tiny ones for --smoke. */
struct Sizes
{
    double seconds = 10;
    double warmupSeconds = 1;
    double spinSeconds = 0.5;
    /** Set-up runs at least setupReps times and until setupSeconds of
     *  wall time have passed, so that a short set-up (campaign-sweep's
     *  takes ~0.05 CPU seconds) is repeated often enough for its
     *  median to settle. */
    unsigned setupReps = 5;
    double setupSeconds = 1;
    /** Per sim job. sim-powerchop runs 29 apps x 4 seeded instances,
     *  sim-baselines 29 apps x 3 modes x 2 instances: more than 100
     *  jobs, so the p90 over jobs has ten samples beyond it. Short
     *  jobs make short rounds, and a job's fastest round is taken: on
     *  a host whose memory system other tenants contend for, a fixed
     *  memory-bound loop's CPU time ranged over 3x within seconds,
     *  with its undisturbed speed showing only for moments. */
    InsnCount simInsns = 100'000;
    InsnCount warmupInsns = 100'000;
    InsnCount referenceInsns = 200'000;
    InsnCount campaignInsns = 300'000;
    /** Sizes the campaign so it runs about `seconds` on a 4-core
     *  host; the job list depends only on --seconds and --seed. */
    double campaignJobsPerSecond = 300;
    InsnCount serveFillInsns = 150'000;
    /** serve-mixed misses. An idle 200K-insn miss took 13.4 ms at the
     *  daemon, 4.5 ms of it simulate(), whose speed swings with how
     *  hard other tenants load the memory system. At 50K insns the
     *  daemon's own miss path is most of the cost; over ten seeds the
     *  spread of the miss p50 fell from 0.11 to 0.07 and that of
     *  requests per daemon CPU-second from 0.16 to 0.08. Misses count
     *  up from here and fills sit far above, so no miss is ever a
     *  cached key. */
    InsnCount serveMissInsns = 50'000;
    std::size_t ledgerApps = 29;
    unsigned hotCombos = 4;       ///< serve-hot: 290 keys each.
    std::size_t mixedHotApps = 8; ///< serve-mixed: x2 machines x4 modes.
    /** serve-mixed requests/s: 20 misses/s keep the daemon's single
     *  simulation slot about a quarter busy. At 60 req/s queueing
     *  behind that slot spread the miss p90 three times wider run to
     *  run. */
    double mixedRate = 40;
    std::string mixedCacheMb = "0.25";
    std::string mixedCompactMin = "128";
    std::string mixedCompactRatio = "0.25";
    std::size_t idleMisses = 20;
    std::size_t journalAppends = 1000;
    std::size_t cacheGets = 200'000;

    static Sizes
    make(const Options &o)
    {
        Sizes s;
        s.seconds = o.seconds;
        if (!o.smoke)
            return s;
        s.seconds = 0.4;
        s.warmupSeconds = 0.05;
        s.spinSeconds = 0.01;
        s.setupReps = 1;
        s.setupSeconds = 0;
        s.simInsns = 10'000;
        s.warmupInsns = 5'000;
        s.referenceInsns = 20'000;
        s.campaignInsns = 20'000;
        s.serveFillInsns = 5'000;
        s.serveMissInsns = 20'000;
        s.ledgerApps = 3;
        s.hotCombos = 1;
        s.mixedHotApps = 2;
        s.mixedRate = 60;
        s.mixedCacheMb = "0.1";
        s.mixedCompactMin = "32";
        s.mixedCompactRatio = "0.05";
        s.idleMisses = 3;
        s.journalAppends = 50;
        s.cacheGets = 10'000;
        return s;
    }
};

/** Shared state of one pcbench invocation. */
struct Context
{
    Options opt;
    Sizes sz;
    std::string workDir; ///< Relative, so socket paths stay short.
    std::string powerchop = PCBENCH_POWERCHOP_BIN;
    unsigned nproc = 1;
};

/** What one timed phase produced. */
struct Phase
{
    double throughput = 0; ///< The workload's work per second.
    std::size_t throughputSamples = 0;
    /** Latency of the workload's unit of work, and the number of
     *  latency samples behind them. */
    double p50Us = 0;
    double p90Us = 0;
    std::size_t latencySamples = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Exact percentiles of one pooled sample set. */
    void
    setLatency(const Samples &us)
    {
        p50Us = us.median();
        p90Us = us.quantile(0.9);
        latencySamples = us.size();
    }
};

MachineConfig
machineFor(const WorkloadSpec &w)
{
    return w.suite == Suite::MobileBench ? mobileConfig()
                                         : serverConfig();
}

/** The 29 apps with --seed-derived workload seeds, in a seeded
 *  order. */
std::vector<WorkloadSpec>
seededApps(std::uint64_t seed, const std::string &purpose)
{
    std::vector<WorkloadSpec> apps = allWorkloads();
    Rng rng = seededRng(seed, purpose + "/specs");
    for (WorkloadSpec &w : apps)
        w.seed = rng.next();
    Rng order = seededRng(seed, purpose + "/order");
    shuffle(apps, order);
    return apps;
}

SimJob
makeJob(const WorkloadSpec &w, SimMode mode, InsnCount insns)
{
    SimJob job;
    job.machine = machineFor(w);
    job.workload = w;
    job.opts.mode = mode;
    job.opts.maxInstructions = insns;
    return job;
}

std::vector<SimJob>
sampleJobs(const std::vector<SimJob> &jobs, std::size_t k, Rng rng)
{
    std::vector<SimJob> out;
    for (std::size_t i : sampleIndices(jobs.size(), k, rng))
        out.push_back(jobs[i]);
    return out;
}

/** One seeded job per app (at most `apps` of them), so the ledger's
 *  sample keeps the workload's mix of modes, machines and budgets. */
std::vector<SimJob>
onePerApp(const std::vector<SimJob> &jobs, std::size_t apps, Rng rng)
{
    std::map<std::string, std::vector<std::size_t>> byApp;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        byApp[jobs[i].workload.name].push_back(i);
    std::vector<SimJob> out;
    for (const auto &[app, idx] : byApp)
        out.push_back(jobs[idx[rng.below(idx.size())]]);
    shuffle(out, rng);
    out.resize(std::min(apps, out.size()));
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** simulate() of `job` checked by the invariant auditor. */
bool
auditedSimulate(const SimJob &job, SimResult &res, std::string &why)
{
    res = simulate(job.machine, job.workload, job.opts);
    const verify::AuditReport a =
        verify::InvariantAuditor().audit(res, job.machine);
    if (!a.ok())
        why = job.workload.name + ": " + a.toString();
    return a.ok();
}

/** A job set as a campaign result: keys, all ok, payloads. */
CampaignResult
asCampaignResult(const std::vector<std::uint64_t> &keys,
                 const std::vector<std::string> &payloads)
{
    CampaignResult cr;
    cr.keys = keys;
    cr.outcomes.resize(keys.size());
    cr.payloads = payloads;
    return cr;
}

/**
 * serve.miss_*: `ctx.sz.idleMisses` never-seen single-job SIMs over
 * the apps x machines x `modes` mix, one at a time on an otherwise
 * idle daemon, against in-process simulate() of the same jobs.
 * @return the idle miss median, ms.
 */
double
idleMisses(RunResult &r, const Context &ctx, const std::string &socket,
           const std::vector<SimMode> &modes, const std::string &purpose,
           Tracer &tracer, int parent)
{
    Rng rng = seededRng(ctx.opt.seed, purpose + "/idle");
    Deck<std::string> apps(appNames());
    Deck<std::string> machines(kMachines);
    Deck<SimMode> modeDeck(modes);
    std::vector<ServeKey> keys;
    for (std::size_t i = 0; i < ctx.sz.idleMisses; ++i) {
        // Budgets just below the miss budget: serve-mixed's misses
        // only ever count up from it, so no daemon has seen these.
        keys.push_back({apps.draw(rng), machines.draw(rng),
                        modeDeck.draw(rng), ctx.sz.serveMissInsns - 1 - i});
    }
    Samples idleMs, simMs;
    std::string failure;
    ServeClient client;
    if (!client.connectUnix(socket, &failure))
        failure = "idle SIM connect: " + failure;
    TranslationMetadataCache meta;
    for (const ServeKey &k : keys) {
        const std::int64_t t0 = monotonicNanos();
        const ServeReply reply = client.sim(k.spec());
        const std::int64_t t1 = monotonicNanos();
        tracer.add("serve.idle_miss", t0, t1, parent, k.key());
        if (reply.status != ResponseStatus::Ok && failure.empty())
            failure = std::string("idle SIM answered ") +
                      responseStatusName(reply.status);
        idleMs.add(static_cast<double>(t1 - t0) * 1e-6);

        SimJob job = k.job();
        job.opts.translationCache = &meta;
        simulate(job.machine, job.workload, job.opts); // warm
        const std::int64_t s0 = monotonicNanos();
        simulate(job.machine, job.workload, job.opts);
        const std::int64_t s1 = monotonicNanos();
        tracer.add("serve.miss_sim", s0, s1, parent, k.key());
        simMs.add(static_cast<double>(s1 - s0) * 1e-6);
    }
    r.check("idle-misses-ok", failure.empty(), failure);
    r.metric("serve.miss_idle_ms", idleMs.median(), "ms", idleMs.size());
    r.metric("serve.miss_sim_ms", simMs.median(), "ms", simMs.size());
    r.metric("serve.miss_overhead_ms", idleMs.median() - simMs.median(),
             "ms", idleMs.size());
    return idleMs.median();
}

/**
 * One workload. drive() sets it up several times (reporting the
 * median), runs its timed phase, then (traced runs) measures every
 * layer on the workload's own jobs and results, and checks outputs.
 */
class Workload
{
  public:
    Workload(const Context &ctx, std::string name)
        : ctx_(ctx), name_(std::move(name))
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** One set-up afresh; the last one is what measure() uses.
     *  @return CPU seconds of set-up: this process's and those of the
     *  processes it started (tear-down of an earlier repetition
     *  excluded). */
    virtual double setup(unsigned rep) = 0;

    /** The timed phase; spans go under `parent` when tracing. */
    virtual Phase measure(Tracer &tracer, int parent) = 0;

    /** The workload's jobs; the ledger replays one per app. */
    virtual std::vector<SimJob> jobs() const = 0;

    /** The workload's results as keys and payloads, for the journal,
     *  report and cache probes. */
    virtual CampaignResult results() = 0;

    /** The key sequence the in-process cache probe reads. */
    virtual std::vector<std::uint64_t>
    cacheAccesses(const CampaignResult &set)
    {
        return set.keys;
    }

    /** Layer metrics only this workload's phase yields. */
    virtual void layers(RunResult &, const Phase &, Tracer &, int) {}

    /** serve.restart_ready_s and serve.miss_*: only the serve
     *  workloads run a daemon; elsewhere they read 0. */
    virtual void serveLayer(RunResult &, Tracer &, int) {}

    virtual void checks(RunResult &r) = 0;

    /** Peak resident set of the process doing the work, MiB. */
    virtual double peakRss() { return peakRssMb(); }

    /** Stop what set-up started; failures become checks. */
    virtual void finish(RunResult &) {}

  protected:
    const Context &ctx_;
    std::string name_;
};

// --- sim-powerchop / sim-baselines -------------------------------------------

/**
 * The simulator alone: rounds over the job list (every app, several
 * seeded instances of each) on a one-thread runner whose translation-
 * metadata cache set-up has filled. Every round runs every job once,
 * each round on the next CPU in turn. simulate() only computes, so a
 * job's time is the runner thread's CPU time, which leaves out steal,
 * in its fastest round. That leaves out the stretches in which another
 * tenant shares a CPU's physical core or crowds the memory system:
 * on the 4-vCPU host such a stretch slowed a memory-bound loop by up
 * to 2x on one CPU for seconds while another CPU ran it undisturbed.
 * Throughput is a round's guest instructions over the sum of those
 * times; latency is their p50 and p90 over the jobs.
 */
class SimWorkload : public Workload
{
  public:
    SimWorkload(const Context &ctx, bool powerchop)
        : Workload(ctx, powerchop ? "sim-powerchop" : "sim-baselines")
    {
        if (powerchop)
            modes_ = {SimMode::PowerChop};
        else
            modes_ = {SimMode::FullPower, SimMode::TimeoutVpu,
                      SimMode::DrowsyMlc};
        instances_ = powerchop ? 4 : 2;
    }

    double
    setup(unsigned rep) override
    {
        const double cpu0 = ownCpuSeconds();
        // The runner's thread inherits this pin: each repetition's
        // warm-up pass runs on another CPU.
        const ScopedPin pin(cpuRange(rep % ctx_.nproc, 1));
        jobs_.clear();
        keys_.clear();
        for (unsigned i = 0; i < instances_; ++i) {
            for (const WorkloadSpec &w : seededApps(
                     ctx_.opt.seed, csprintf("%s/%u", name_.c_str(), i))) {
                for (SimMode mode : modes_) {
                    jobs_.push_back(makeJob(w, mode, ctx_.sz.simInsns));
                    keys_.push_back(campaignJobKey(jobs_.back()));
                }
            }
        }
        runner_ = std::make_unique<SimJobRunner>(1);
        std::vector<SimJob> warm = jobs_;
        for (SimJob &j : warm)
            j.opts.maxInstructions = ctx_.sz.warmupInsns;
        runner_->run(warm);
        return ownCpuSeconds() - cpu0;
    }

    Phase
    measure(Tracer &tracer, int parent) override
    {
        Phase p;
        std::vector<SimResult> results(jobs_.size());
        std::vector<double> jobUs(jobs_.size());
        std::vector<double> bestUs(jobs_.size(),
                                   std::numeric_limits<double>::infinity());
        std::vector<std::string> errors(jobs_.size());
        InsnCount roundInsns = 0;
        for (const SimJob &j : jobs_)
            roundInsns += j.opts.maxInstructions;
        const double busy0 = runner_->report().busySeconds;
        double wallTotal = 0;
        unsigned rounds = 0;

        const std::int64_t start = monotonicNanos();
        for (; rounds == 0 || secondsSince(start) < ctx_.sz.seconds;
             ++rounds) {
            const int rs = tracer.begin("sim.round", parent, rounds);
            const cpu_set_t cpu = cpuRange(rounds % ctx_.nproc, 1);
            const std::int64_t t0 = monotonicNanos();
            runner_->runTasks(jobs_.size(), [&](std::size_t i) {
                ::sched_setaffinity(0, sizeof(cpu), &cpu);
                SimOptions o = jobs_[i].opts;
                o.translationCache = &runner_->translationCache();
                const std::int64_t a = monotonicNanos();
                const std::int64_t cpuA = threadCpuNanos();
                try {
                    results[i] = simulate(jobs_[i].machine,
                                          jobs_[i].workload, o);
                    errors[i].clear();
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
                jobUs[i] = static_cast<double>(threadCpuNanos() - cpuA) *
                           1e-3;
                tracer.add("sim.job", a, monotonicNanos(), rs, keys_[i], 1);
            });
            const double wall = secondsSince(t0);
            tracer.end(rs);

            // Outside the timed round: audit every result and hold
            // every round to the previous one's bytes.
            wallTotal += wall;
            std::vector<std::string> payloads;
            for (std::size_t i = 0; i < jobs_.size(); ++i) {
                bestUs[i] = std::min(bestUs[i], jobUs[i]);
                ++p.attempted;
                std::string why = errors[i];
                if (why.empty()) {
                    const verify::AuditReport a =
                        verify::InvariantAuditor().audit(
                            results[i], jobs_[i].machine);
                    if (!a.ok())
                        why = "audit: " + a.toString();
                }
                payloads.push_back(results[i].toJson());
                if (why.empty() && !lastRound_.payloads.empty() &&
                    payloads.back() != lastRound_.payloads[i])
                    why = "result differs from the previous round";
                if (!why.empty()) {
                    ++p.failed;
                    if (failure_.empty())
                        failure_ = jobs_[i].workload.name + ": " + why;
                }
            }
            lastRound_ = asCampaignResult(keys_, payloads);
        }
        if (busyFrac_ == 0) {
            busyFrac_ = (runner_->report().busySeconds - busy0) /
                        (wallTotal * runner_->threads());
        }
        Samples best;
        double bestTotalUs = 0;
        for (const double us : bestUs) {
            best.add(us);
            bestTotalUs += us;
        }
        p.throughput = static_cast<double>(roundInsns) / bestTotalUs * 1e6;
        p.throughputSamples = rounds;
        p.setLatency(best);
        return p;
    }

    std::vector<SimJob> jobs() const override { return jobs_; }
    CampaignResult results() override { return lastRound_; }

    void
    layers(RunResult &r, const Phase &, Tracer &, int) override
    {
        r.metric("sim_runner.busy_frac", busyFrac_, "ratio");
    }

    void
    checks(RunResult &r) override
    {
        r.check("results-audited-and-deterministic", failure_.empty(),
                failure_);
        // Three seeded jobs, shortened, against the reference loop at
        // tolerance 0.
        std::string why;
        for (SimJob job : sampleJobs(jobs_, 3,
                                     seededRng(ctx_.opt.seed,
                                               name_ + "/reference"))) {
            job.opts.maxInstructions = ctx_.sz.referenceInsns;
            const SimResult fast =
                simulate(job.machine, job.workload, job.opts);
            const SimResult ref = verify::referenceSimulate(
                job.machine, job.workload, job.opts);
            const auto mism = verify::compareResults(fast, ref, 0.0);
            if (!mism.empty() && why.empty()) {
                why = csprintf("%s %s: %zu fields differ from "
                               "referenceSimulate()",
                               job.workload.name.c_str(),
                               simModeName(job.opts.mode), mism.size());
            }
        }
        r.check("reference-match", why.empty(), why);
    }

  private:
    std::vector<SimMode> modes_;
    unsigned instances_ = 1;
    std::vector<SimJob> jobs_;
    std::vector<std::uint64_t> keys_;
    std::unique_ptr<SimJobRunner> runner_;
    CampaignResult lastRound_;
    double busyFrac_ = 0;
    std::string failure_;
};

// --- campaign-sweep -----------------------------------------------------------

/**
 * Pin the runner's threads for campaign `c`: thread i to CPU
 * (c + i * stride) mod nproc, the stride cycling through 1 .. nproc-1
 * every nproc campaigns, so that successive campaigns run on every
 * pair of CPUs. Each thread takes exactly one task, since every task
 * waits for all of them to arrive.
 */
void
pinRunner(SimJobRunner &runner, unsigned c, unsigned nproc)
{
    const unsigned n = runner.threads();
    const unsigned stride = 1 + (c / nproc) % std::max(1u, nproc - 1);
    std::atomic<unsigned> arrived{0};
    runner.runTasks(n, [&](std::size_t i) {
        const cpu_set_t cpu = cpuRange(
            (c + static_cast<unsigned>(i) * stride) % nproc, 1);
        ::sched_setaffinity(0, sizeof(cpu), &cpu);
        arrived.fetch_add(1);
        while (arrived.load() < n)
            std::this_thread::yield();
    });
}

/**
 * Job start and finish times recorded by the flight recorder since the
 * poller was created, read while a campaign runs: the recorder's ring
 * keeps only the last 1024 events, so it is polled well before it
 * wraps.
 */
class FlightPoller
{
  public:
    FlightPoller()
        : since_(monotonicSeconds()), thread_([this] { poll(); })
    {
    }
    ~FlightPoller() { stop(); }
    FlightPoller(const FlightPoller &) = delete;
    FlightPoller &operator=(const FlightPoller &) = delete;

    /** Stop polling and take a last snapshot. */
    void
    stop()
    {
        if (thread_.joinable()) {
            stop_.store(true);
            thread_.join();
            collect();
        }
    }

    std::unordered_map<std::uint64_t, double> started;
    std::unordered_map<std::uint64_t, double> finished;

  private:
    void
    poll()
    {
        while (!stop_.load()) {
            collect();
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }

    void
    collect()
    {
        for (const FlightEvent &e : FlightRecorder::global().snapshot()) {
            if (e.monoSeconds < since_)
                continue;
            if (e.type == FlightEventType::JobStart)
                started[e.key] = e.monoSeconds;
            else if (e.type == FlightEventType::JobFinish)
                finished[e.key] = e.monoSeconds;
        }
    }

    const double since_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * The campaign layer: runCampaign() over the paper's Fig. 16 timeout
 * sweep on an nproc/2-thread runner, each campaign in a fresh directory
 * on the work disk, configured like `powerchop campaign` (statusboard
 * and flight recorder on). The matrix is 29 apps x timeout-vpu at
 * seeded log-uniform timeout periods, plus full-power and powerchop
 * anchors, short jobs, every job audited. The phase runs it as
 * kCampaigns back-to-back campaigns, each holding part of every
 * kCampaigns-th job so every one covers every app, each with the
 * runner's threads pinned to the next CPUs in turn. Both metrics are
 * wall times, because waiting (dispatch, fsync, the slowest thread) is
 * what this workload is about. Throughput is jobs/s over a whole
 * campaign, report written, taken per campaign; the upper quartile is
 * reported, as other tenants slowed some CPU pairs for seconds at a
 * time. Latency is one job's start to journaled, over every job of
 * the phase.
 */
class CampaignWorkload : public Workload
{
  public:
    /** Campaigns per phase: many short ones, so that the upper
     *  quartile is one the host left undisturbed. Each still holds
     *  140-200 jobs, every app among them. */
    static constexpr unsigned kCampaigns = 15;

    explicit CampaignWorkload(const Context &ctx)
        : Workload(ctx, "campaign-sweep")
    {
    }

    double
    setup(unsigned) override
    {
        const double cpu0 = ownCpuSeconds();
        const std::vector<WorkloadSpec> apps =
            seededApps(ctx_.opt.seed, name_);
        const long periods = std::max(
            1L, std::lround(ctx_.sz.seconds *
                            ctx_.sz.campaignJobsPerSecond /
                            static_cast<double>(apps.size())) -
                    2);
        // The sweep points: log-uniform in [100, 100K] cycles, the
        // paper's Section V-E range.
        Rng rng = seededRng(ctx_.opt.seed, name_ + "/periods");
        std::vector<double> period(static_cast<std::size_t>(periods));
        for (double &p : period)
            p = 100.0 * std::pow(1000.0, rng.uniform());
        jobs_.clear();
        std::vector<SimJob> warm;
        for (const WorkloadSpec &w : apps) {
            for (double p : period) {
                jobs_.push_back(
                    makeJob(w, SimMode::TimeoutVpu, ctx_.sz.campaignInsns));
                jobs_.back().opts.timeoutCycles = p;
            }
            for (SimMode mode : {SimMode::FullPower, SimMode::PowerChop})
                jobs_.push_back(makeJob(w, mode, ctx_.sz.campaignInsns));
            warm.push_back(
                makeJob(w, SimMode::FullPower, ctx_.sz.warmupInsns));
        }
        for (SimJob &j : jobs_)
            j.opts.audit = true;
        // nproc/2 threads leave CPUs for the statusboard, the flight
        // poller and fsync. Over 8 interleaved seeds on the 4-vCPU
        // host, IQR/median of throughput and job p50 was 0.13 and
        // 0.27 on 4 threads, 0.09 and 0.08 on 2.
        runner_ = std::make_unique<SimJobRunner>(
            std::max(1u, ctx_.nproc / 2));
        runner_->run(warm);
        makeCampaignDirs(ctx_.workDir + "/campaign");
        return ownCpuSeconds() - cpu0;
    }

    Phase
    measure(Tracer &tracer, int parent) override
    {
        Phase p;
        Samples rates, jobUs;
        const double busy0 = runner_->report().busySeconds;
        double wallTotal = 0;
        // A campaign ends when its heartbeat thread wakes from a
        // 100 ms sleep. With equal campaigns all of a run's campaigns
        // met that wait at one phase, and runs came out 320 or 384
        // jobs/s. Seeded sizes of 70-100% of each share spread the
        // phase over the campaigns.
        Rng sizes = seededRng(ctx_.opt.seed, name_ + "/sizes");
        for (unsigned c = 0; c < kCampaigns; ++c) {
            lastJobs_.clear();
            for (std::size_t i = c; i < jobs_.size(); i += kCampaigns)
                lastJobs_.push_back(jobs_[i]);
            lastJobs_.resize(static_cast<std::size_t>(std::ceil(
                static_cast<double>(lastJobs_.size()) *
                (0.7 + 0.3 * sizes.uniform()))));
            const std::string dir =
                csprintf("%s/campaign/run-%u-%u", ctx_.workDir.c_str(),
                         phases_, c);
            FlightRecorder::global().enable(dir + "/flight.jsonl");
            CampaignOptions co;
            co.interruptFlag = &noInterrupt_;
            co.publishStatus = true;

            // Each campaign on the next CPUs in turn, as SimWorkload
            // does with its rounds.
            pinRunner(*runner_, c, ctx_.nproc);
            FlightPoller events;
            const std::int64_t t0 = monotonicNanos();
            CampaignResult cr = runCampaign(*runner_, lastJobs_, dir, co);
            const std::int64_t t1 = monotonicNanos();
            events.stop();
            FlightRecorder::global().disable();
            const double wall = static_cast<double>(t1 - t0) * 1e-9;
            wallTotal += wall;

            // Outside the timed campaign: per-job latency, report
            // bytes, tallies.
            Samples latencyUs;
            const int cs = tracer.add("campaign.run", t0, t1, parent, c);
            std::size_t timed = 0;
            for (const std::uint64_t key : cr.keys) {
                const auto s = events.started.find(key);
                const auto f = events.finished.find(key);
                if (s == events.started.end() ||
                    f == events.finished.end())
                    continue;
                ++timed;
                latencyUs.add((f->second - s->second) * 1e6);
                tracer.add("campaign.job",
                           static_cast<std::int64_t>(s->second * 1e9),
                           static_cast<std::int64_t>(f->second * 1e9), cs,
                           key);
            }
            if (timed != lastJobs_.size() && eventsLost_.empty()) {
                eventsLost_ = csprintf(
                    "%zu of %zu jobs have no start and finish event",
                    lastJobs_.size() - timed, lastJobs_.size());
            }
            p.attempted += lastJobs_.size();
            for (const JobOutcome &o : cr.outcomes) {
                if (o.status != JobStatus::Ok) {
                    ++p.failed;
                    if (failure_.empty())
                        failure_ = o.error;
                }
            }
            if (readFile(dir + "/report.json") != cr.reportJson())
                reportMismatch_ = dir;
            std::filesystem::remove_all(dir);
            rates.add(static_cast<double>(lastJobs_.size()) / wall);
            jobUs.append(latencyUs);
            last_ = std::move(cr);
        }
        p.throughput = rates.quantile(0.75);
        p.throughputSamples = rates.size();
        p.setLatency(jobUs);
        if (phases_++ == 0) {
            busyFrac_ = (runner_->report().busySeconds - busy0) /
                        (wallTotal * runner_->threads());
        }
        return p;
    }

    std::vector<SimJob> jobs() const override { return jobs_; }

    /** The last campaign's results. */
    CampaignResult results() override { return last_; }

    void
    layers(RunResult &r, const Phase &untraced, Tracer &tracer,
           int parent) override
    {
        // The same jobs straight through the runner: no journal, no
        // report, no statusboard.
        double simOnly = 0;
        {
            ScopedSpan s(tracer, "campaign.sim_only", parent);
            const std::int64_t t0 = monotonicNanos();
            runner_->runTasks(jobs_.size(), [&](std::size_t i) {
                SimOptions o = jobs_[i].opts;
                o.translationCache = &runner_->translationCache();
                simulate(jobs_[i].machine, jobs_[i].workload, o);
            });
            simOnly = static_cast<double>(jobs_.size()) / secondsSince(t0);
        }
        r.metric("campaign.sim_only_jobs_per_s", simOnly, "1/s",
                 jobs_.size());
        r.metric("campaign.overhead_frac",
                 1.0 - untraced.throughput / simOnly, "ratio");
        r.metric("sim_runner.busy_frac", busyFrac_, "ratio");
    }

    void
    checks(RunResult &r) override
    {
        r.check("jobs-ok", failure_.empty(), failure_);
        r.check("report-json-matches", reportMismatch_.empty(),
                reportMismatch_);
        r.check("flight-events-cover-every-job", eventsLost_.empty(),
                eventsLost_);
        std::string why;
        Rng rng = seededRng(ctx_.opt.seed, name_ + "/payloads");
        for (std::size_t i : sampleIndices(lastJobs_.size(), 3, rng)) {
            SimResult res;
            if (!auditedSimulate(lastJobs_[i], res, why))
                break;
            if (res.toJson() != last_.payloads[i]) {
                why = lastJobs_[i].workload.name +
                      ": report.json payload differs from simulate()";
                break;
            }
        }
        r.check("payloads-match-simulate", why.empty(), why);
    }

  private:
    std::vector<SimJob> jobs_;
    std::unique_ptr<SimJobRunner> runner_;
    std::atomic<bool> noInterrupt_{false};
    std::vector<SimJob> lastJobs_; ///< The last campaign's jobs.
    CampaignResult last_;          ///< ...and its result.
    unsigned phases_ = 0;
    double busyFrac_ = 0;
    std::string failure_;
    std::string reportMismatch_;
    std::string eventsLost_;
};

// --- serve-hot / serve-mixed --------------------------------------------------

const std::vector<SimMode> kServeModes = {
    SimMode::FullPower, SimMode::PowerChop, SimMode::MinPower,
    SimMode::TimeoutVpu, SimMode::DrowsyMlc};

/** Counter movement between two STATS replies. */
struct StatsDelta
{
    double hits = 0, misses = 0, evictions = 0, compactions = 0;
    double shed = 0, requests = 0;

    StatsDelta() = default;
    StatsDelta(const json::Value &a, const json::Value &b)
    {
        const auto d = [&](const char *k) {
            return static_cast<double>(b.getUint64(k)) -
                   static_cast<double>(a.getUint64(k));
        };
        hits = d("hits");
        misses = d("misses");
        evictions = d("evictions");
        compactions = d("compactions");
        shed = d("shed_requests") + d("shed_connections");
        requests = d("requests");
    }
};

/**
 * What both serve workloads share: the daemon under test, set up by
 * WarmDaemon (spawn, fill, drain, warm restart), its serve-layer
 * probes and the drain at the end.
 */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(const Context &ctx, std::string name,
                  unsigned runnerThreads, std::vector<std::string> args)
        : Workload(ctx, std::move(name)), runnerThreads_(runnerThreads),
          args_(std::move(args))
    {
    }

    double
    setup(unsigned rep) override
    {
        const std::string dir =
            csprintf("%s/%s-%u", ctx_.workDir.c_str(), name_.c_str(), rep);
        return wd_.bringUp({ctx_.powerchop, dir, dir + "/s",
                            runnerThreads_, args_, daemonCpus_},
                           fills_);
    }

    double peakRss() override { return wd_.daemon().peakRss(); }

    void
    serveLayer(RunResult &r, Tracer &tracer, int parent) override
    {
        r.metric("serve.restart_ready_s", wd_.restartReadySeconds(), "s");
        idleMiss_ = idleMisses(r, ctx_, wd_.socket(), kServeModes, name_,
                               tracer, parent);
    }

    void finish(RunResult &r) override { wd_.finish(r); }

  protected:
    /** GET one key on a fresh connection; "" unless it HITs. */
    std::string
    getPayload(std::uint64_t key)
    {
        ServeClient client;
        if (!client.connectUnix(wd_.socket()))
            return "";
        const ServeReply reply = client.get(key);
        return reply.status == ResponseStatus::Hit ? reply.payload : "";
    }

    /** The served payloads of `keys` as a job set. */
    CampaignResult
    served(const std::vector<ServeKey> &keys)
    {
        std::vector<std::uint64_t> ks;
        std::vector<std::string> payloads;
        for (const ServeKey &k : keys) {
            ks.push_back(k.key());
            payloads.push_back(getPayload(ks.back()));
        }
        return asCampaignResult(ks, payloads);
    }

    /** Three seeded served payloads against in-process simulate(). */
    void
    checkServedPayloads(RunResult &r, const std::vector<ServeKey> &keys)
    {
        std::string why;
        Rng rng = seededRng(ctx_.opt.seed, name_ + "/payloads");
        for (std::size_t i : sampleIndices(keys.size(), 3, rng)) {
            SimResult res;
            if (!auditedSimulate(keys[i].job(), res, why))
                break;
            if (getPayload(keys[i].key()) != res.toJson()) {
                why = keys[i].app + ": served payload differs from "
                                    "simulate()";
                break;
            }
        }
        r.check("served-payloads-match-simulate", why.empty(), why);
    }

    /** The STATS-delta metrics of the first (untraced) phase. */
    void
    statsMetrics(RunResult &r) const
    {
        const StatsDelta &d = delta_;
        r.metric("serve.hit_rate",
                 d.hits + d.misses > 0 ? d.hits / (d.hits + d.misses) : 0,
                 "ratio");
        r.metric("serve.evictions", d.evictions, "count");
        r.metric("serve.compactions", d.compactions, "count");
        r.metric("serve.shed_frac",
                 d.requests > 0 ? d.shed / d.requests : 0, "ratio");
    }

    unsigned runnerThreads_;
    std::vector<std::string> args_;
    std::optional<cpu_set_t> daemonCpus_;
    std::vector<Matrix> fills_;
    WarmDaemon wd_;
    StatsDelta delta_;
    double idleMiss_ = 0;
    unsigned phases_ = 0;
};

/**
 * The hit path only: nproc/2 closed-loop connections, each a
 * ServeClient sending one GET at a time as `powerchop client` does,
 * for keys from a Zipf(1) mix over the ~1000 keys set-up filled and
 * the warm-restarted daemon replayed from its journal. Throughput is
 * GET hits/s and latency one GET's round trip, both over the half of
 * the 100 ms windows that completed the most GETs (runClosedLoopGets).
 */
class ServeHotWorkload : public ServeWorkload
{
  public:
    explicit ServeHotWorkload(const Context &ctx)
        : ServeWorkload(ctx, "serve-hot", ctx.nproc, {})
    {
        // hotCombos x 290 keys: every app x machine x mode at a few
        // seeded instruction budgets.
        Rng rng = seededRng(ctx.opt.seed, "serve-hot/budgets");
        for (std::size_t off : sampleIndices(1000, ctx.sz.hotCombos, rng)) {
            fills_.push_back(makeMatrix(appNames(), kServeModes,
                                        ctx.sz.serveFillInsns + 1 + off));
            keys_.insert(keys_.end(), fills_.back().keys.begin(),
                         fills_.back().keys.end());
        }
        std::vector<std::uint64_t> byRank;
        for (const ServeKey &k : keys_)
            byRank.push_back(k.key());
        shuffle(byRank, rng);
        const ZipfSampler zipf(byRank.size());
        Rng draws = seededRng(ctx.opt.seed, "serve-hot/zipf");
        accesses_.resize(1 << 16);
        for (std::uint64_t &k : accesses_)
            k = byRank[zipf.draw(draws)];
    }

    Phase
    measure(Tracer &tracer, int parent) override
    {
        const json::Value before = wd_.daemon().stats();
        const ClosedLoopStats s = runClosedLoopGets(
            wd_.socket(), accesses_, std::max(1u, ctx_.nproc / 2),
            ctx_.sz.warmupSeconds, ctx_.sz.seconds, tracer, parent, 64);
        if (phases_++ == 0)
            delta_ = StatsDelta(before, wd_.daemon().stats());
        Phase p;
        p.throughput = s.rate;
        p.throughputSamples = s.windowsKept;
        p.setLatency(s.latencyUs);
        p.attempted = s.attempted;
        p.failed = s.failed;
        return p;
    }

    std::vector<SimJob>
    jobs() const override
    {
        std::vector<SimJob> out;
        for (const ServeKey &k : keys_)
            out.push_back(k.job());
        return out;
    }

    CampaignResult results() override { return served(keys_); }

    std::vector<std::uint64_t>
    cacheAccesses(const CampaignResult &) override
    {
        return accesses_;
    }

    void
    layers(RunResult &r, const Phase &, Tracer &, int) override
    {
        statsMetrics(r);
    }

    void
    checks(RunResult &r) override
    {
        std::size_t missing = 0;
        for (const ServeKey &k : keys_)
            missing += getPayload(k.key()).empty();
        r.check("every-filled-key-hits", missing == 0,
                csprintf("%zu of %zu keys missing", missing,
                         keys_.size()));
        checkServedPayloads(r, keys_);
    }

  private:
    std::vector<ServeKey> keys_;
    std::vector<std::uint64_t> accesses_; ///< Zipf(1) draws over keys_.
};

/** Connections of the open loop: with requests assigned round-robin,
 *  enough that a connection is free again long before its next due
 *  time even behind a queue of slow misses. */
constexpr unsigned kOpenLoopConnections = 64;

/**
 * The miss path under load: an open loop at a fixed Poisson rate, half
 * GETs of a 64-key hot set and half single-job SIMs of never-seen
 * keys, against a daemon with two runner threads whose cache and
 * compaction floor are small enough that evictions and journal
 * compactions happen while hits arrive. The daemon runs on the upper
 * half of the CPUs and the load generator on the lower half. The
 * offered rate is fixed, so requests completed per second would only
 * echo it: throughput is requests served per CPU-second of the
 * daemon, which falls as the miss path gets costlier. Latency is one
 * miss, from its due time.
 */
class ServeMixedWorkload : public ServeWorkload
{
  public:
    explicit ServeMixedWorkload(const Context &ctx)
        : ServeWorkload(ctx, "serve-mixed", 2,
                        {"--cache-mb", ctx.sz.mixedCacheMb,
                         "--compact-ratio", ctx.sz.mixedCompactRatio,
                         "--compact-min-records",
                         ctx.sz.mixedCompactMin})
    {
        const unsigned low = std::max(1u, ctx.nproc / 2);
        clientCpus_ = cpuRange(0, low);
        daemonCpus_ = ctx.nproc > low ? cpuRange(low, ctx.nproc - low)
                                      : cpuRange(0, 1);
        // Fillers first, hot set last: the hot keys are the most
        // recent entries when the measured phase starts.
        std::vector<std::string> apps = appNames();
        fills_.push_back(
            makeMatrix(apps, kServeModes, ctx.sz.serveFillInsns));
        Rng rng = seededRng(ctx.opt.seed, "serve-mixed/hot");
        shuffle(apps, rng);
        apps.resize(ctx.sz.mixedHotApps);
        std::vector<SimMode> modes = kServeModes;
        shuffle(modes, rng);
        modes.resize(4);
        fills_.push_back(
            makeMatrix(apps, modes, ctx.sz.serveFillInsns + 1));
        for (const ServeKey &k : fills_.back().keys)
            hotKeys_.push_back(k.key());
    }

    Phase
    measure(Tracer &tracer, int parent) override
    {
        Rng rng = seededRng(ctx_.opt.seed,
                            csprintf("serve-mixed/schedule/%u", phases_));
        std::vector<ServeKey> warmKeys, missKeys;
        const std::vector<PlannedRequest> warm =
            plan(ctx_.sz.warmupSeconds, false, rng, warmKeys);
        const std::vector<PlannedRequest> timed =
            plan(ctx_.sz.seconds, true, rng, missKeys);
        const OpenLoopStats w =
            runOpenLoop(wd_.socket(), clientCpus_, warm,
                        kOpenLoopConnections, tracer, parent);
        const json::Value before = wd_.daemon().stats();
        const double cpu0 = wd_.daemon().cpuSeconds();
        const OpenLoopStats s =
            runOpenLoop(wd_.socket(), clientCpus_, timed,
                        kOpenLoopConnections, tracer, parent);
        const double daemonCpu = wd_.daemon().cpuSeconds() - cpu0;
        lateP99Ms_ = std::max(lateP99Ms_, s.lateUs.quantile(0.99) * 1e-3);
        if (failure_.empty())
            failure_ = w.firstError.empty() ? s.firstError : w.firstError;
        if (phases_++ == 0) {
            delta_ = StatsDelta(before, wd_.daemon().stats());
            hitUs_ = s.hitUs;
            lateUs_ = s.lateUs;
            for (const auto &[i, payload] : s.payloads)
                kept_.emplace_back(missKeys[i], payload);
            for (const ServeKey &k : missKeys) {
                if (k.insns != 0)
                    misses_.push_back(k.job());
            }
        }
        Phase p;
        p.throughput = daemonCpu > 0
                           ? static_cast<double>(s.attempted - s.failed) /
                                 daemonCpu
                           : 0;
        p.throughputSamples = s.attempted - s.failed;
        p.setLatency(s.missUs);
        p.attempted = w.attempted + s.attempted;
        p.failed = w.failed + s.failed;
        return p;
    }

    std::vector<SimJob> jobs() const override { return misses_; }

    CampaignResult results() override { return served(fills_.back().keys); }

    void
    layers(RunResult &r, const Phase &untraced, Tracer &, int) override
    {
        statsMetrics(r);
        // Hits under load and generator health.
        r.metric("serve.hit_p50_us", hitUs_.median(), "us", hitUs_.size());
        r.metric("serve.hit_p90_us", hitUs_.quantile(0.9), "us",
                 hitUs_.size());
        r.metric("loadgen.late_p99_ms", lateP99Ms_, "ms", lateUs_.size());
        queueSampleCount_ = untraced.latencySamples;
        queueLoadedMs_ = untraced.p50Us * 1e-3;
    }

    void
    serveLayer(RunResult &r, Tracer &tracer, int parent) override
    {
        ServeWorkload::serveLayer(r, tracer, parent);
        r.metric("serve.miss_queue_ms", queueLoadedMs_ - idleMiss_, "ms",
                 queueSampleCount_);
    }

    void
    checks(RunResult &r) override
    {
        r.check("requests-ok", failure_.empty(), failure_);
        r.check("loadgen-keeps-schedule",
                lateUs_.quantile(0.9) <= 1000.0,
                csprintf("late p50 %.3f p90 %.3f p99 %.3f max %.3f ms",
                         lateUs_.median() * 1e-3,
                         lateUs_.quantile(0.9) * 1e-3, lateP99Ms_,
                         lateUs_.quantile(1.0) * 1e-3));
        r.check("evictions-and-compactions",
                delta_.evictions >= 1 && delta_.compactions >= 1,
                csprintf("%.0f evictions, %.0f compactions",
                         delta_.evictions, delta_.compactions));
        std::string why;
        for (const auto &[k, payload] : kept_) {
            SimResult res;
            if (!auditedSimulate(k.job(), res, why))
                break;
            if (payload !=
                asCampaignResult({k.key()}, {res.toJson()}).reportJson()) {
                why = k.app + ": served SIM report differs from "
                              "simulate()";
                break;
            }
        }
        r.check("served-reports-match-simulate",
                why.empty() && !kept_.empty(),
                kept_.empty() ? "no payload kept" : why);
        checkServedPayloads(r, fills_.back().keys);
    }

  private:
    /**
     * `seconds` of an open-loop schedule, exactly half misses. Hot
     * GETs walk seeded permutations of the hot set, so every hot key
     * is read about once per pass and stays resident. Misses walk
     * permutations of the apps, the machines and the modes, so every
     * seed offers the same mix of simulation costs, and get budgets no
     * earlier request used. With `keep`, up to three misses keep their
     * replies for the output checks. `keys` receives each request's
     * ServeKey (insns 0 for GETs).
     */
    std::vector<PlannedRequest>
    plan(double seconds, bool keep, Rng &rng, std::vector<ServeKey> &keys)
    {
        Deck<std::string> apps(appNames());
        Deck<std::string> machines(kMachines);
        Deck<SimMode> modes(kServeModes);
        Deck<std::uint64_t> hot(hotKeys_);
        const std::vector<double> due =
            poissonSchedule(ctx_.sz.mixedRate, seconds, rng);
        std::vector<char> miss(due.size(), 0);
        for (std::size_t i = 0; i < due.size() / 2; ++i)
            miss[i] = 1;
        shuffle(miss, rng);
        std::vector<PlannedRequest> out;
        std::size_t keepLeft = keep ? 3 : 0;
        for (std::size_t i = 0; i < due.size(); ++i) {
            PlannedRequest rq;
            rq.dueSeconds = due[i];
            rq.miss = miss[i];
            ServeKey k;
            if (rq.miss) {
                k = {apps.draw(rng), machines.draw(rng), modes.draw(rng),
                     ctx_.sz.serveMissInsns + nextMiss_++};
                rq.spec = k.spec();
                rq.keepPayload = keepLeft > 0 && rng.below(4) == 0;
                keepLeft -= rq.keepPayload;
            } else {
                rq.key = hot.draw(rng);
            }
            out.push_back(std::move(rq));
            keys.push_back(k);
        }
        return out;
    }

    std::optional<cpu_set_t> clientCpus_;
    std::vector<std::uint64_t> hotKeys_;
    InsnCount nextMiss_ = 0;
    Samples hitUs_;
    Samples lateUs_;
    double lateP99Ms_ = 0;
    double queueLoadedMs_ = 0;
    std::size_t queueSampleCount_ = 0;
    std::string failure_;
    std::vector<std::pair<ServeKey, std::string>> kept_;
    std::vector<SimJob> misses_;
};

// --- layer probes shared by every workload ------------------------------------

/**
 * The journal, report and cache layers on the workload's own results:
 * JournalWriter::append (write + fsync) of its payloads on the work
 * directory's filesystem, CampaignResult::reportJson() plus
 * atomicWriteFile of its report, and ResultCache::get in-process over
 * its access sequence.
 */
void
resultLayers(RunResult &r, const Context &ctx, const CampaignResult &set,
             const std::vector<std::uint64_t> &accesses, Tracer &tracer,
             int parent)
{
    Samples appendUs;
    {
        ScopedSpan s(tracer, "journal.append", parent);
        const std::string path = ctx.workDir + "/journal-probe.jsonl";
        {
            JournalWriter writer(path);
            for (std::size_t i = 0; i < ctx.sz.journalAppends; ++i) {
                JournalRecord rec;
                rec.key = set.keys[i % set.keys.size()];
                rec.status = "ok";
                rec.payload = set.payloads[i % set.payloads.size()];
                const std::int64_t t0 = monotonicNanos();
                writer.append(rec);
                appendUs.add(static_cast<double>(monotonicNanos() - t0) *
                             1e-3);
            }
        }
        std::filesystem::remove(path);
    }
    r.metric("journal.append_us_p50", appendUs.median(), "us",
             appendUs.size());
    r.metric("journal.append_us_p99", appendUs.quantile(0.99), "us",
             appendUs.size());

    Samples reportMs;
    for (int rep = 0; rep < 5; ++rep) {
        ScopedSpan s(tracer, "campaign.report", parent);
        const std::int64_t t0 = monotonicNanos();
        atomicWriteFile(ctx.workDir + "/report-probe.json",
                        set.reportJson());
        reportMs.add(secondsSince(t0) * 1e3);
    }
    r.metric("campaign.report_ms", reportMs.median(), "ms",
             reportMs.size());

    ResultCache cache;
    for (std::size_t i = 0; i < set.keys.size(); ++i)
        cache.put(set.keys[i], set.payloads[i]);
    std::string out;
    std::uint64_t bytes = 0;
    ScopedSpan s(tracer, "serve.cache_get", parent);
    const std::int64_t t0 = monotonicNanos();
    for (std::size_t i = 0; i < ctx.sz.cacheGets; ++i) {
        cache.get(accesses[i % accesses.size()], &out);
        bytes += out.size();
    }
    const double ns = static_cast<double>(monotonicNanos() - t0);
    ledger_detail::sink = bytes;
    r.metric("serve.cache_get_ns",
             ns / static_cast<double>(ctx.sz.cacheGets), "ns",
             ctx.sz.cacheGets);
}

// --- main ---------------------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "sim-powerchop")
        return std::make_unique<SimWorkload>(ctx, true);
    if (name == "sim-baselines")
        return std::make_unique<SimWorkload>(ctx, false);
    if (name == "campaign-sweep")
        return std::make_unique<CampaignWorkload>(ctx);
    if (name == "serve-hot")
        return std::make_unique<ServeHotWorkload>(ctx);
    return std::make_unique<ServeMixedWorkload>(ctx);
}

RunResult
drive(const std::string &name, const Context &ctx, Tracer &tracer)
{
    std::unique_ptr<Workload> w = makeWorkload(name, ctx);
    RunResult r;
    r.workload = name;
    r.traced = ctx.opt.traced;
    const int root = tracer.begin(
        "workload", -1,
        std::find(kWorkloads.begin(), kWorkloads.end(), name) -
            kWorkloads.begin());

    // Untimed: whatever ran (or did not) before this workload leaves
    // the CPUs in another state; wake them all first.
    spinCpus(ctx.nproc, ctx.sz.spinSeconds);
    Samples setupS;
    {
        ScopedSpan s(tracer, "setup", root);
        const std::int64_t t0 = monotonicNanos();
        for (unsigned rep = 0; rep < ctx.sz.setupReps ||
                               secondsSince(t0) < ctx.sz.setupSeconds;
             ++rep)
            setupS.add(w->setup(rep));
    }

    // End-to-end numbers always come from an untraced phase.
    Tracer off(false);
    const Phase p = w->measure(off, -1);
    r.attempted += p.attempted;
    r.failed += p.failed;
    if (!ctx.opt.traced) {
        r.metric("throughput", p.throughput, "1/s", p.throughputSamples);
        r.metric("latency_p50_us", p.p50Us, "us", p.latencySamples);
        r.metric("latency_p90_us", p.p90Us, "us", p.latencySamples);
        r.metric("setup_s", setupS.median(), "s", setupS.size());
        r.metric("peak_rss_mb", w->peakRss(), "MB");
    } else {
        Phase pt;
        {
            ScopedSpan s(tracer, "measure", root);
            pt = w->measure(tracer, s.handle());
        }
        r.attempted += pt.attempted;
        r.failed += pt.failed;
        ScopedSpan s(tracer, "layers", root);
        w->layers(r, p, tracer, s.handle());
        const CampaignResult set = w->results();
        resultLayers(r, ctx, set, w->cacheAccesses(set), tracer,
                     s.handle());
        w->serveLayer(r, tracer, s.handle());
        const LedgerTotals lt = runLedger(
            onePerApp(w->jobs(), ctx.sz.ledgerApps,
                      seededRng(ctx.opt.seed, name + "/ledger")),
            tracer, s.handle());
        lt.report(r);
        r.check("ledger-streams-match-simulate", lt.consistent, lt.detail);
        r.metric("trace.overhead_frac",
                 p.throughput > 0
                     ? (p.throughput - pt.throughput) / p.throughput
                     : 0,
                 "ratio");
    }
    {
        ScopedSpan s(tracer, "checks", root);
        w->checks(r);
    }
    w->finish(r);
    tracer.end(root);
    return r;
}

void
printHuman(const RunResult &r)
{
    for (const Metric &m : r.metrics) {
        std::printf("%-15s %-30s %18.6f %-8s", r.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
        if (m.samples)
            std::printf(" n=%zu", m.samples);
        std::printf("\n");
    }
    for (const Check &c : r.checks) {
        std::printf("%-15s check %-30s %s%s%s\n", r.workload.c_str(),
                    c.name.c_str(), c.ok ? "ok" : "FAILED",
                    c.detail.empty() ? "" : "  ", c.detail.c_str());
    }
    std::printf("%-15s attempted=%llu failed=%llu correct=%s\n",
                r.workload.c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct() ? "true" : "false");
}

/** The one-line result: exactly correct, attempted, failed and
 *  metrics ({value, unit} each): the end-to-end list untraced, the
 *  per-layer list traced, with a metric the run did not produce as 0.
 *  With several workloads the metric names are prefixed
 *  "<workload>.". */
std::string
resultLine(const std::vector<RunResult> &runs, bool traced)
{
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::string metrics;
    for (const RunResult &r : runs) {
        correct = correct && r.correct();
        attempted += r.attempted;
        failed += r.failed;
        const auto emit = [&](const MetricName &mn) {
            double value = 0;
            for (const Metric &m : r.metrics) {
                if (m.name == mn.name)
                    value = m.value;
            }
            const std::string name =
                runs.size() > 1 ? r.workload + "." + mn.name : mn.name;
            metrics += csprintf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                                metrics.empty() ? "" : ",", name.c_str(),
                                num(value).c_str(), mn.unit);
        };
        if (traced) {
            for (const MetricName &mn : kLayerMetrics)
                emit(mn);
        } else {
            for (const MetricName &mn : kEndToEnd)
                emit(mn);
        }
    }
    return csprintf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                    "\"metrics\":{%s}}",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed),
                    metrics.c_str());
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: pcbench --workload NAME|all --seed N [--seconds S]\n"
        "               [--trace 0|1] [--smoke] [--out FILE]\n"
        "               [--trace-out FILE]\n"
        "workloads: sim-powerchop sim-baselines campaign-sweep "
        "serve-hot serve-mixed\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage();
            o.traced = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--trace-out") {
            o.traceOut = value();
        } else {
            usage();
        }
    }
    if (!(o.seconds > 0) ||
        (o.workload != "all" &&
         std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
             kWorkloads.end())) {
        usage();
    }
    return o;
}

} // namespace
} // namespace pcbench

int
main(int argc, char **argv)
{
    using namespace pcbench;
    Context ctx;
    ctx.opt = parseArgs(argc, argv);
    ctx.sz = Sizes::make(ctx.opt);
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    // Relative to the working directory: campaign journals and daemon
    // caches land on its filesystem, and socket paths stay far below
    // the 108-byte sun_path limit wherever the checkout lives.
    ctx.workDir = csprintf(".bench_build/pcbench-work/%ld",
                           static_cast<long>(::getpid()));
    std::filesystem::create_directories(ctx.workDir);

    const HostFingerprint fp = hostFingerprint(ctx.workDir);
    std::printf("pcbench host %s\n", fp.toJson().c_str());
    std::fflush(stdout);

    const std::vector<std::string> names =
        ctx.opt.workload == "all" ? kWorkloads
                                  : std::vector<std::string>{
                                        ctx.opt.workload};
    Tracer tracer(ctx.opt.traced);
    std::vector<RunResult> runs;
    int status = 0;
    try {
        for (const std::string &name : names) {
            runs.push_back(drive(name, ctx, tracer));
            printHuman(runs.back());
            std::fflush(stdout);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pcbench: %s\n", e.what());
        status = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(ctx.workDir, ec);
    if (status != 0)
        return status;

    if (!ctx.opt.out.empty()) {
        std::string doc = csprintf(
            "{\"fingerprint\":%s,\"seed\":%llu,\"seconds\":%s,"
            "\"smoke\":%s,\"runs\":[",
            fp.toJson().c_str(),
            static_cast<unsigned long long>(ctx.opt.seed),
            num(ctx.sz.seconds).c_str(), ctx.opt.smoke ? "true" : "false");
        for (std::size_t i = 0; i < runs.size(); ++i)
            doc += (i ? ",\n" : "\n") + runs[i].toJson();
        atomicWriteFile(ctx.opt.out, doc + "\n]}\n");
    }
    if (ctx.opt.traced) {
        const std::string path =
            !ctx.opt.traceOut.empty()
                ? ctx.opt.traceOut
                : csprintf(".bench_build/pcbench-trace-%s-%llu.json",
                           ctx.opt.workload.c_str(),
                           static_cast<unsigned long long>(ctx.opt.seed));
        tracer.writeChromeTrace(path);
        for (const auto &[span, ns] : tracer.selfTimesNs())
            std::fprintf(stderr, "pcbench self time %-24s %12.3f ms\n",
                         span.c_str(), static_cast<double>(ns) * 1e-6);
        std::fprintf(stderr, "pcbench wrote %zu spans to %s\n",
                     tracer.size(), path.c_str());
    }
    std::printf("%s\n", resultLine(runs, ctx.opt.traced).c_str());
    bool correct = true;
    for (const RunResult &r : runs)
        correct = correct && r.correct();
    return correct ? 0 : 1;
}
