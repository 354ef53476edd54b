/**
 * @file
 * powerchop — the command-line driver.
 *
 * Subcommands (kCommands; `powerchop` alone prints them with every
 * flag):
 *   list, show <workload>        The 29 built-in workload models.
 *   run <workload>               Simulate one workload. `trace` is run
 *                                with --trace defaulting to --out,
 *                                else <workload>.trace.json: a Chrome
 *                                trace-event timeline for Perfetto /
 *                                chrome://tracing.
 *   compare <workload>           Full-power vs PowerChop vs min-power.
 *   verify                       Differential oracle and goldens.
 *   campaign <dir>               Run a durable sweep into <dir>:
 *                                every finished job is journaled
 *                                (write-ahead, fsync'd) before it
 *                                counts, SIGINT/SIGTERM drain
 *                                gracefully, and --resume skips all
 *                                journaled work. Exit 0 = complete,
 *                                3 = interrupted (resumable),
 *                                1 = permanent failures.
 *                                --shards N forks N campaign-worker
 *                                processes supervised for crash
 *                                containment (restart with backoff);
 *                                the merged report.json and the exit
 *                                status match a single-process run.
 *   campaign-worker <dir>        Internal: one shard of a sharded
 *                                campaign, --shard I@B of --shards
 *                                N. Works out its jobs from the
 *                                matrix flags and the shard journals
 *                                and reports only through its
 *                                journal, <dir>/shard-NNNN.jsonl.
 *   status <dir>                 Read a campaign's live statusboard
 *                                (the snapshots in <dir>/status).
 *                                Exits 2 when <dir> holds none
 *                                (nothing running there).
 *   serve <dir>                  powerchopd: a long-lived daemon
 *                                serving simulation results over a
 *                                Unix/TCP socket from a content-
 *                                keyed LRU cache (misses simulate
 *                                through the campaign machinery;
 *                                the cache journal in <dir> makes
 *                                restarts warm).
 *   client                       One framed request against a
 *                                running powerchopd: --get KEY,
 *                                --stats, or matrix flags for a
 *                                SIM whose report is byte-identical
 *                                to a direct campaign's.
 *
 * Campaigns publish the statusboard and a crash flight recorder
 * (<dir>/flight.jsonl) by default; POWERCHOP_NO_STATUS=1 and
 * POWERCHOP_NO_FLIGHT=1 disable them. Both are write-only side
 * channels: report.json and the journals are byte-identical either
 * way.
 *
 * `<workload>` is either a built-in model name or a path to a spec
 * file (containing '/' or ending in .wl).
 *
 * Every flag is declared once, in cliFlags(), and every subcommand
 * but list, show and version accepts all of them. Unknown subcommands
 * and options, a flag without its value, and numeric values that do
 * not parse whole or fall outside the flag's range print usage and
 * exit 2. --version prints the release and exits 0.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <unistd.h>

#include "powerchop/powerchop.hh"
#include "workload/spec_io.hh"

#ifndef POWERCHOP_VERSION
#define POWERCHOP_VERSION "unknown"
#endif

using namespace powerchop;

namespace
{

WorkloadSpec
resolveWorkload(const std::string &arg)
{
    if (arg.find('/') != std::string::npos ||
        (arg.size() > 3 && arg.substr(arg.size() - 3) == ".wl")) {
        return loadWorkloadSpec(arg);
    }
    return findWorkload(arg);
}

SimMode
parseMode(const std::string &m)
{
    SimMode mode;
    if (!parseSimMode(m, mode))
        fatal("unknown mode '%s'", m.c_str());
    return mode;
}

struct Args
{
    std::string machine;
    SimMode mode = SimMode::PowerChop;
    bool modeSet = false;
    InsnCount insns = 10'000'000;
    bool insnsSet = false;
    double timeout = 0;
    std::string save;
    bool json = false;
    std::string tracePath;
    std::string metricsOut;
    std::string out;
    bool audit = false;

    /** verify-only options. @{ */
    std::string workloads;
    std::vector<std::uint64_t> seeds;
    std::string goldens;
    bool updateGoldens = false;
    double tol = 1e-6;
    /** @} */

    /** campaign-only options. @{ */
    std::string modes;
    bool resume = false;
    bool inspect = false;
    double timeoutSeconds = 0;
    double drainSeconds =
        envDouble("POWERCHOP_DRAIN_SECONDS", 0, 3600).value_or(5.0);
    unsigned retries = 0;
    /** @} */

    /** sharded-campaign / campaign-worker options. @{ */
    unsigned shards = 0; ///< 0 = in-process (unsharded) campaign.
    /** Restarts, heartbeat timeout, and the forwarded flags' tokens
     *  as workerArgs. */
    ShardSupervisorOptions supervisor;
    /** campaign-worker: its shard and where that shard's journal
     *  ended when the supervisor started (--shard I@B). */
    std::optional<std::pair<unsigned, std::uint64_t>> shard;
    /** @} */

    /** status-only options. @{ */
    bool follow = false;
    bool prom = false;
    double intervalSeconds = 2.0;
    /** @} */

    /** serve / client options. @{ */
    std::string socket;       ///< Unix-domain socket path.
    unsigned port = 0;        ///< TCP port on 127.0.0.1; 0 = Unix.
    double cacheMb = 256;     ///< Result-cache budget (MiB).
    std::optional<std::uint64_t> getKey; ///< client: GET this key.
    bool statsRequest = false; ///< client: STATS instead of SIM.
    ServeOptions serve; ///< serve: the knobs one flag each sets.
    /** @} */
};

/** Every flag of powerchop, each bound to the Args field it sets.
 *  The forwarded ones are the matrix flags, from which a campaign-
 *  worker rebuilds exactly the supervisor's job list, and the per-job
 *  knobs. */
std::vector<Flag>
cliFlags(Args &a)
{
    return {
        {"--machine", "M", "server | mobile (default: by suite; matrix both)",
         setText(a.machine), true},
        {"--mode", "MODE", "one of the modes below (default powerchop)",
         [&a](const char *, const std::string &v) {
             a.mode = parseMode(v);
             a.modeSet = true;
         },
         true},
        {"--insns", "N", "instruction budget (default 10M; matrix 200K)",
         [&a](const char *name, const std::string &v) {
             a.insns = parseNumber<InsnCount>(name, v, 1);
             a.insnsSet = true;
         },
         true},
        {"--timeout", "N", "timeout-vpu idle period in cycles",
         setNumber(a.timeout), true},
        {"--save", "PATH", "run: also write the workload spec to PATH",
         setText(a.save)},
        {"--json", nullptr, "run, status: print JSON", setSwitch(a.json)},
        {"--trace", "PATH", "run: also write a Chrome trace to PATH",
         setText(a.tracePath)},
        {"--out", "PATH", "trace: the trace path", setText(a.out)},
        {"--metrics-out", "PATH",
         "run, powerchop mode: per-window CSV (or .jsonl)",
         setText(a.metricsOut)},
        {"--audit", nullptr, "run, compare: invariant-check the results",
         setSwitch(a.audit)},
        {"--workloads", "LIST", "matrix: default perlbench,namd,canneal,msn",
         setText(a.workloads), true},
        {"--modes", "LIST", "matrix: default --mode, else all five",
         setText(a.modes), true},
        {"--seeds", "LIST", "verify: fault seeds (default 0,1009)",
         [&a](const char *name, const std::string &v) {
             a.seeds.clear();
             for (const std::string &s : splitList(v))
                 a.seeds.push_back(parseNumber<std::uint64_t>(name, s));
         }},
        {"--goldens", "DIR", "verify: also check the goldens in DIR",
         setText(a.goldens)},
        {"--update-goldens", nullptr, "verify: rewrite the goldens instead",
         setSwitch(a.updateGoldens)},
        {"--tol", "T", "verify: golden tolerance (default 1e-6)",
         setNumber(a.tol)},
        {"--resume", nullptr, "campaign: skip journaled work",
         setSwitch(a.resume)},
        {"--inspect", nullptr, "campaign: summarize the journal only",
         setSwitch(a.inspect)},
        {"--timeout-seconds", "S",
         "per-job watchdog; client: per-attempt deadline",
         setSeconds(a.timeoutSeconds), true},
        {"--retries", "N", "retries per job; client: per request",
         setNumber(a.retries), true},
        {"--drain-seconds", "S", "grace for in-flight work on SIGTERM (5)",
         setSeconds(a.drainSeconds), true},
        {"--shards", "N", "campaign: N supervised worker processes",
         setNumber(a.shards)},
        {"--max-restarts", "N", "campaign: restarts per shard (default 3)",
         setNumber(a.supervisor.maxRestarts)},
        {"--heartbeat-seconds", "S",
         "campaign: a worker using no CPU this long is hung (30)",
         setSeconds(a.supervisor.heartbeatTimeoutSeconds)},
        {"--shard", "I@B",
         "campaign-worker: shard I; this run's records start at byte B",
         [&a](const char *name, const std::string &v) {
             const std::size_t at = v.find('@');
             a.shard.emplace(
                 parseNumber<unsigned>(name, v.substr(0, at)),
                 parseNumber<std::uint64_t>(
                     name, at == std::string::npos ? "" : v.substr(at + 1)));
         }},
        {"--follow", nullptr, "status: redraw every --interval",
         setSwitch(a.follow)},
        {"--prom", nullptr, "status: Prometheus textfile exposition",
         setSwitch(a.prom)},
        {"--interval", "S", "status: redraw period (default 2)",
         setSeconds(a.intervalSeconds)},
        {"--socket", "PATH", "serve, client: Unix socket of powerchopd",
         setText(a.socket)},
        {"--port", "N", "serve, client: TCP port on 127.0.0.1 instead",
         setNumber(a.port, 0u, 65535u)},
        {"--get", "KEY", "client: GET the report under a content key",
         [&a](const char *name, const std::string &v) {
             std::uint64_t key = 0;
             if (!parseContentKey(v, key)) {
                 throw UsageError(csprintf(
                     "%s wants a 1..16 hex-digit content key, got '%s'",
                     name, v.c_str()));
             }
             a.getKey = key;
         }},
        {"--stats", nullptr, "client: STATS instead of a SIM",
         setSwitch(a.statsRequest)},
        {"--cache-mb", "N", "serve: result-cache budget in MiB (256)",
         setNumber(a.cacheMb, 1e-6, 1e9)},
        {"--max-conns", "N", "serve: connection cap, 0 = none (256)",
         setNumber(a.serve.maxConnections)},
        {"--sim-queue", "N", "serve: SIM admission depth (16)",
         setNumber(a.serve.simQueueDepth)},
        {"--backlog", "N", "serve: listen(2) backlog (64)",
         setNumber(a.serve.listenBacklog)},
        {"--idle-timeout-seconds", "S", "serve: idle connection reap (300)",
         setSeconds(a.serve.idleTimeoutSeconds)},
        {"--read-timeout-seconds", "S", "serve: mid-frame read (30)",
         setSeconds(a.serve.readTimeoutSeconds)},
        {"--write-timeout-seconds", "S", "serve: response write (30)",
         setSeconds(a.serve.writeTimeoutSeconds)},
        {"--request-deadline-seconds", "S", "serve: SIM wall cap (0 = none)",
         setSeconds(a.serve.requestDeadlineSeconds)},
        {"--compact-ratio", "R", "serve: journal dead ratio to compact (0.5)",
         setNumber(a.serve.cache.compactDeadRatio, 0.0, 1.0)},
        {"--compact-min-records", "N", "serve: compaction floor (1024)",
         setNumber(a.serve.cache.compactMinRecords)},
        // Arms the process-wide profiler POWERCHOP_PROFILE latched at
        // global()'s first use. Forwarded, so that workers publish
        // their own stage tables to the statusboard.
        {"--profile", nullptr, "stage wall-clock table (POWERCHOP_PROFILE=1)",
         [](const char *, const std::string &) {
             telemetry::StageProfiler::global().setEnabled(true);
         },
         true},
    };
}

Args
parseOptions(const std::vector<std::string> &rest)
{
    Args a;
    a.supervisor.workerArgs = parseFlags(cliFlags(a), rest);
    return a;
}

/** Statusboard / flight recorder opt-outs: observability defaults on
 *  for campaigns and is disabled per run with POWERCHOP_NO_STATUS=1 /
 *  POWERCHOP_NO_FLIGHT=1 (both are write-only side channels, so the
 *  default costs nothing in report bytes). @{ */
bool
statusboardEnabled()
{
    return envUint64("POWERCHOP_NO_STATUS", 0, 1).value_or(0) == 0;
}

bool
flightRecorderEnabled()
{
    return envUint64("POWERCHOP_NO_FLIGHT", 0, 1).value_or(0) == 0;
}
/** @} */

/** Write the trace and metrics files the flags asked for. The
 *  "wrote" notes go to stderr, so stdout stays the result alone. */
void
writeTelemetry(const Args &a, const std::string &trace_path,
               const telemetry::TraceRecorder &trace,
               const telemetry::MetricsRegistry &metrics)
{
    if (!trace_path.empty()) {
        if (!telemetry::writeChromeTrace(trace_path, {&trace}))
            fatal("cannot write trace to '%s'", trace_path.c_str());
        inform("wrote %s (%zu events%s)", trace_path.c_str(),
               trace.events().size(),
               trace.droppedEvents()
                   ? csprintf(", %llu dropped",
                              static_cast<unsigned long long>(
                                  trace.droppedEvents()))
                         .c_str()
                   : "");
    }
    if (!a.metricsOut.empty()) {
        const bool jsonl =
            a.metricsOut.size() > 6 &&
            a.metricsOut.substr(a.metricsOut.size() - 6) == ".jsonl";
        const bool ok = jsonl ? metrics.writeJsonl(a.metricsOut)
                              : metrics.writeCsv(a.metricsOut);
        if (!ok)
            fatal("cannot write metrics to '%s'",
                  a.metricsOut.c_str());
        inform("wrote %s (%zu windows)", a.metricsOut.c_str(),
               metrics.rows().size());
    }
}

MachineConfig
resolveMachine(const Args &a, const WorkloadSpec &w)
{
    if (!a.machine.empty())
        return machineByName(a.machine);
    return w.suite == Suite::MobileBench ? mobileConfig()
                                         : serverConfig();
}

void
printResult(const SimResult &r)
{
    std::printf("%s on %s [%s]\n", r.workload.c_str(),
                r.machine.c_str(), simModeName(r.mode));
    std::printf("  instructions  %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  cycles        %.0f\n", static_cast<double>(r.cycles));
    std::printf("  IPC           %.3f\n", r.ipc());
    std::printf("  avg power     %.3f W (leakage %.3f W)\n",
                r.energy.averagePower(),
                r.energy.averageLeakagePower());
    std::printf("  energy        %.4g J\n", r.energy.totalEnergy());
    std::printf("  gated: VPU %s  BPU %s  MLC half %s / quarter %s / "
                "1-way %s\n",
                pct(r.vpuGatedFraction).c_str(),
                pct(r.bpuGatedFraction).c_str(),
                pct(r.mlcHalfFraction).c_str(),
                pct(r.mlcQuarterFraction).c_str(),
                pct(r.mlcOneWayFraction).c_str());
    if (r.mode == SimMode::PowerChop) {
        std::printf("  PVT: %llu lookups, %llu hits (%.4f%% misses "
                    "per translation)\n",
                    static_cast<unsigned long long>(r.pvtLookups),
                    static_cast<unsigned long long>(r.pvtHits),
                    100 * r.pvtMissPerTranslation);
    }
    if (r.mode == SimMode::DrowsyMlc) {
        std::printf("  drowsy: avg %.1f%% of lines drowsy, %llu "
                    "wakeups\n",
                    100 * r.mlcDrowsyFraction,
                    static_cast<unsigned long long>(r.drowsyWakes));
    }
}

int
cmdList(const std::string &, const Args &)
{
    std::printf("%-15s %-12s %7s %9s\n", "name", "suite", "phases",
                "schedule");
    for (const auto &w : allWorkloads()) {
        std::printf("%-15s %-12s %7zu %8lluK\n", w.name.c_str(),
                    suiteName(w.suite), w.phases.size(),
                    static_cast<unsigned long long>(
                        w.scheduleLength() / 1000));
    }
    return 0;
}

int
cmdShow(const std::string &name, const Args &)
{
    std::fputs(formatWorkloadSpec(resolveWorkload(name)).c_str(),
               stdout);
    return 0;
}

/** run; and trace, for which `traceByDefault` defaults --trace to
 *  --out, else to <workload>.trace.json. */
int
cmdRun(const std::string &name, const Args &a, bool traceByDefault = false)
{
    WorkloadSpec w = resolveWorkload(name);
    if (!a.save.empty()) {
        saveWorkloadSpec(w, a.save);
        inform("wrote %s", a.save.c_str());
    }
    MachineConfig m = resolveMachine(a, w);
    SimOptions opts;
    opts.mode = a.mode;
    opts.maxInstructions = a.insns;
    opts.timeoutCycles = a.timeout;
    opts.audit = a.audit;

    std::string trace_path = a.tracePath;
    if (traceByDefault && trace_path.empty())
        trace_path = !a.out.empty() ? a.out : w.name + ".trace.json";
    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    if (!trace_path.empty())
        opts.trace = &trace;
    if (!a.metricsOut.empty()) {
        if (a.mode != SimMode::PowerChop)
            fatal("--metrics-out requires --mode powerchop");
        opts.metrics = &metrics;
    }

    SimResult r = simulate(m, w, opts);
    if (a.json)
        std::printf("%s\n", r.toJson().c_str());
    else
        printResult(r);
    writeTelemetry(a, trace_path, trace, metrics);
    return 0;
}

int
cmdCompare(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    MachineConfig m = resolveMachine(a, w);
    ComparisonRuns runs = runComparison(m, w, a.insns);
    if (a.audit) {
        verify::InvariantAuditor auditor;
        for (const SimResult *r :
             {&runs.fullPower, &runs.powerChop, &runs.minPower}) {
            verify::AuditReport rep = auditor.audit(*r, m);
            if (!rep.ok())
                fatal("audit of %s run failed: %s",
                      simModeName(r->mode), rep.toString().c_str());
        }
    }
    printResult(runs.fullPower);
    std::printf("\n");
    printResult(runs.powerChop);
    std::printf("\n");
    printResult(runs.minPower);
    std::printf("\nPowerChop vs full power: slowdown %s, power %s, "
                "energy %s, leakage %s\n",
                pct(runs.powerChop.slowdownVs(runs.fullPower)).c_str(),
                pct(runs.powerChop.powerReductionVs(runs.fullPower))
                    .c_str(),
                pct(runs.powerChop.energyReductionVs(runs.fullPower))
                    .c_str(),
                pct(runs.powerChop.leakageReductionVs(runs.fullPower))
                    .c_str());
    return 0;
}

/** The campaign matrix the flags name, by axis: --workloads,
 *  --machine, --modes (else --mode) and --insns, each unset axis
 *  taken from the default matrix, which is perlbench, namd, canneal
 *  and msn x server and mobile x the five named modes at 200K insns.
 *  campaign, campaign-worker, client and verify's golden sweep all
 *  read it. */
struct MatrixFlags
{
    std::vector<std::string> workloads;
    std::vector<std::string> machines;
    std::vector<std::string> modes;
    InsnCount insns = 200'000;
};

MatrixFlags
matrixFlags(const Args &a)
{
    MatrixFlags m;
    m.workloads = !a.workloads.empty()
        ? splitList(a.workloads)
        : std::vector<std::string>{"perlbench", "namd", "canneal",
                                   "msn"};
    m.machines = !a.machine.empty()
        ? std::vector<std::string>{a.machine}
        : std::vector<std::string>{"server", "mobile"};
    if (!a.modes.empty())
        m.modes = splitList(a.modes);
    else if (a.modeSet)
        m.modes = {simModeName(a.mode)};
    else
        m.modes = {"full-power", "powerchop", "min-power",
                   "timeout-vpu", "drowsy-mlc"};
    if (a.insnsSet)
        m.insns = a.insns;
    return m;
}

/** The campaign matrix named by the CLI options, in canonical
 *  (workload-major) order. Shared by the in-process campaign, the
 *  shard supervisor and the campaign-worker subcommand: all three
 *  must derive identical job lists (and so identical content keys)
 *  from the same flags. */
std::vector<SimJob>
buildCampaignJobs(const Args &a)
{
    const MatrixFlags m = matrixFlags(a);
    std::vector<WorkloadSpec> workloads;
    for (const std::string &name : m.workloads)
        workloads.push_back(resolveWorkload(name));
    std::vector<SimMode> modes;
    for (const std::string &name : m.modes)
        modes.push_back(parseMode(name));
    return expandCampaignMatrix(workloads, m.machines, modes, m.insns,
                                a.timeout);
}

int
cmdVerify(const std::string &, const Args &a)
{
    // verify's default budget, the default matrix's, favours CI
    // latency over figure quality: 200k instructions crosses many HTB
    // windows and phase changes on every built-in model but keeps the
    // full matrix in seconds.
    const InsnCount insns = matrixFlags(a).insns;

    verify::DifferentialMatrix matrix;
    matrix.insns = insns;
    if (!a.workloads.empty())
        matrix.workloads = splitList(a.workloads);
    if (!a.machine.empty())
        matrix.machines = {a.machine};
    if (a.modeSet)
        matrix.modes = {a.mode};
    // By default fault-free plus one faulty seed: the differential
    // contract holds under injected faults too (both loops share the
    // deterministic per-run fault stream).
    matrix.faultSeeds = !a.seeds.empty()
        ? a.seeds
        : std::vector<std::uint64_t>{0, 1009};

    std::printf("differential: optimized simulate() vs reference "
                "oracle, %llu insns/case\n",
                static_cast<unsigned long long>(insns));
    verify::DifferentialReport report = verify::runDifferentialMatrix(
        matrix, [](const verify::DifferentialCase &c) {
            std::printf("  %s\n", c.toString().c_str());
            std::fflush(stdout);
        });
    std::printf("differential: %s\n", report.toString().c_str());

    bool golden_ok = true;
    if (!a.goldens.empty()) {
        // Goldens pin fault-free runs only; fault seeds exercise the
        // differential contract, not the snapshot store.
        std::size_t updated = 0, checked = 0;
        for (const SimJob &job : buildCampaignJobs(a)) {
            SimOptions opts = job.opts;
            opts.audit = true;
            SimResult r = simulate(job.machine, job.workload, opts);
            const std::string path = a.goldens + "/" +
                verify::goldenFileName(job.workload.name,
                                       job.machine.name,
                                       simModeName(opts.mode));
            if (a.updateGoldens) {
                verify::saveGolden(path, r.toJson());
                ++updated;
                continue;
            }
            verify::FlatJson golden;
            if (!verify::loadGolden(path, golden)) {
                std::printf("golden MISSING: %s (run with "
                            "--update-goldens)\n",
                            path.c_str());
                golden_ok = false;
                continue;
            }
            verify::GoldenDiff diff = verify::diffGolden(
                golden, verify::parseFlatJson(r.toJson(), "candidate"),
                a.tol);
            ++checked;
            if (!diff.ok()) {
                std::printf("golden FAIL: %s: %s\n", path.c_str(),
                            diff.toString().c_str());
                golden_ok = false;
            }
        }
        if (a.updateGoldens)
            std::printf("goldens: wrote %zu files to %s\n", updated,
                        a.goldens.c_str());
        else
            std::printf("goldens: %zu checked, %s\n", checked,
                        golden_ok ? "all ok" : "FAILURES");
    }

    return (report.ok() && golden_ok) ? 0 : 1;
}

int
cmdStatus(const std::string &dir, const Args &a)
{
    if (a.json && a.prom)
        fatal("status: --json and --prom are mutually exclusive");
    for (;;) {
        const std::vector<StatusEntry> entries = readStatusDir(dir);
        if (entries.empty()) {
            // Scripts must be able to tell "no campaign here" from
            // "campaign finished": an empty/missing status directory
            // is a usage-style error, not an empty success.
            std::fprintf(
                stderr,
                "status: no status snapshots under %s/status "
                "(no campaign or powerchopd started here, or "
                "observability disabled with "
                "POWERCHOP_NO_STATUS=1)\n",
                dir.c_str());
            return 2;
        }
        std::string out;
        if (a.json)
            out = renderStatusJson(dir, entries);
        else if (a.prom)
            out = renderStatusPrometheus(entries);
        else
            out = renderStatusTable(entries);
        std::fputs(out.c_str(), stdout);
        std::fflush(stdout);
        if (!a.follow)
            return 0;
        // --follow: redraw until interrupted (default SIGINT ends
        // the loop by terminating the process, which is fine — the
        // statusboard is read-only).
        std::this_thread::sleep_for(
            std::chrono::duration<double>(
                a.intervalSeconds > 0 ? a.intervalSeconds : 2.0));
        std::printf("\n");
    }
}

int
cmdServe(const std::string &dir, const Args &a)
{
    makeCampaignDirs(dir);
    installCampaignSignalHandlers();

    ServeOptions sopts = a.serve;
    if (a.port != 0)
        sopts.port = static_cast<unsigned short>(a.port);
    else
        sopts.socketPath =
            !a.socket.empty() ? a.socket : dir + "/powerchopd.sock";
    sopts.cache.maxBytes =
        static_cast<std::size_t>(a.cacheMb * (1u << 20));
    sopts.cache.journalPath = dir + "/cache.jsonl";
    sopts.jobTimeoutSeconds = a.timeoutSeconds;
    sopts.drainSeconds = a.drainSeconds;
    sopts.stopFlag = &campaignInterruptFlag();
    if (statusboardEnabled()) {
        makeCampaignDirs(statusDirPath(dir));
        sopts.statusPath = statusDirPath(dir) + "/server.json";
    }
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    sopts.onEvent = [](const std::string &msg) {
        inform("[powerchopd] %s", msg.c_str());
    };

    SimServer server(sopts);
    std::printf("powerchopd: %s\n", server.run().summary().c_str());
    // A drained daemon exits like an interrupted campaign: 3 tells
    // a supervisor "clean but signal-initiated" (a second signal
    // hard-exits 128+sig from the handler itself).
    return campaignInterruptFlag().load() ? campaignInterruptedExitStatus
                                          : 0;
}

int
cmdClient(const std::string &, const Args &a)
{
    if (a.socket.empty() && a.port == 0)
        fatal("client requires --socket PATH or --port N");
    if (a.getKey && a.statsRequest)
        fatal("client: --get and --stats are mutually exclusive");

    ServeClient client;
    ClientRetryPolicy policy;
    policy.retries = a.retries;
    policy.timeoutSeconds = a.timeoutSeconds;
    client.setRetryPolicy(policy);
    std::string err;
    bool connected = a.port != 0
        ? client.connectTcp(static_cast<unsigned short>(a.port),
                            &err)
        : client.connectUnix(a.socket, &err);
    // A failed dial is retryable too (the daemon may be mid-
    // restart): request() redials with backoff, so only give up
    // now when no retries were asked for.
    if (!connected && a.retries == 0)
        fatal("client: %s", err.c_str());

    ServeReply reply;
    if (a.statsRequest) {
        reply = client.stats();
    } else if (a.getKey) {
        reply = client.get(*a.getKey);
    } else {
        // Matrix flags become a SIM spec with the same defaults as
        // `powerchop campaign`, so the served report matches a
        // direct run of the identical command line byte-for-byte.
        const MatrixFlags m = matrixFlags(a);
        reply = client.sim(formatSimSpec(m.workloads, m.machines,
                                         m.modes, m.insns, a.timeout));
    }

    if (reply.ioFailed) {
        fatal("client: %s",
              !reply.error.empty() ? reply.error.c_str()
                                   : "request failed (daemon gone?)");
    }
    if (reply.status == ResponseStatus::Err) {
        std::fprintf(stderr, "ERR: %s", reply.payload.c_str());
        return 1;
    }
    if (reply.status == ResponseStatus::Busy) {
        std::fprintf(stderr, "BUSY: %s", reply.payload.c_str());
        return 1;
    }
    if (reply.status == ResponseStatus::Miss) {
        std::fprintf(stderr, "MISS\n");
        return 1;
    }
    // HIT/OK: the payload verbatim — byte-identity is the contract,
    // so nothing is added but a final newline when the payload
    // itself lacks one (GET payloads are single-line JSON).
    std::fwrite(reply.payload.data(), 1, reply.payload.size(),
                stdout);
    if (!reply.payload.empty() && reply.payload.back() != '\n')
        std::printf("\n");
    return 0;
}

/** Print a campaign's summary and report path and return its exit
 *  status, the same for single-process and sharded runs: 3 when
 *  interrupted (resumable), 1 on permanent failures, 0 complete. */
int
finishCampaign(const std::string &dir, const CampaignResult &res)
{
    std::printf("campaign: %s\n", res.summary().c_str());
    std::printf("report: %s/report.json\n", dir.c_str());
    if (res.interrupted)
        return campaignInterruptedExitStatus;
    return res.complete() ? 0 : 1;
}

int
cmdShardedCampaign(const std::string &dir, const Args &a,
                   const std::vector<SimJob> &jobs)
{
    installCampaignSignalHandlers();

    // The workers get the forwarded flags as typed (workerArgs), so
    // they parse exactly what this process parsed.
    ShardSupervisorOptions sopts = a.supervisor;
    sopts.shards = a.shards;
    sopts.resume = a.resume;
    sopts.drainSeconds = a.drainSeconds;
    sopts.publishStatus = statusboardEnabled();
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    sopts.onEvent = [](const std::string &msg) {
        // Supervision events (spawn/crash/restart) are the campaign's
        // operational log; the limiter caps a crash-restart storm
        // while the generous burst keeps every event of a normal run
        // printed.
        static LogRateLimiter limiter(20.0, 60.0);
        informLimited(limiter, "[supervisor] %s", msg.c_str());
    };

    const ShardSupervisorResult res =
        runShardedCampaign(jobs, dir, sopts);

    // The supervision trajectory rides the same BENCH file the
    // runner benches append to, so crash/restart counts are tracked
    // across changes alongside throughput. Its tallies are the
    // report's columns, so they sum to the job count.
    const CampaignResult &camp = res.campaign;
    const OutcomeTally n = camp.tally();
    RunnerReport rep;
    rep.jobs = camp.keys.size();
    rep.threads = static_cast<unsigned>(res.shards);
    rep.wallSeconds = res.wallSeconds;
    rep.busySeconds = res.busySeconds;
    rep.instructions = res.instructions;
    rep.okJobs = n.ok;
    rep.failedJobs = n.failed;
    rep.timedOutJobs = n.timedOut;
    rep.skippedJobs = n.resumable;
    rep.workerCrashes = camp.workerCrashes;
    rep.workerRestarts = camp.workerRestarts;
    const std::string bench_path =
        envString("POWERCHOP_RUNNER_JSON")
            .value_or("BENCH_runner.json");
    appendJsonArrayEntryOk(bench_path,
                           rep.toJson("campaign-shards"));
    return finishCampaign(dir, camp);
}

int
cmdCampaignWorker(const std::string &dir, const Args &a)
{
    if (!a.shard)
        fatal("campaign-worker requires --shard I@B");
    const auto [shard, runStart] = *a.shard;
    const std::vector<SimJob> jobs = shardWorkerJobs(
        buildCampaignJobs(a), dir, a.shards, shard, runStart);
    const std::string journal = shardJournalPath(dir, shard);

    installCampaignSignalHandlers();
    if (flightRecorderEnabled()) {
        FlightRecorder::global().enable(dir + "/flight-" +
                                        shardLabel(journal) + ".jsonl");
    }

    // Crash injection for the containment tests: kill this process
    // at the worst possible point — after the assigned job's work,
    // immediately before its record becomes durable — exactly once
    // (a marker file survives the crash and disarms the injection in
    // the restarted worker).
    const std::uint64_t crash_key =
        std::strtoull(envString("POWERCHOP_TEST_CRASH_KEY")
                          .value_or("0")
                          .c_str(),
                      nullptr, 16);
    const std::string crash_mode =
        envString("POWERCHOP_TEST_CRASH_MODE").value_or("segv");

    CampaignOptions copts;
    copts.timeoutSeconds = a.timeoutSeconds;
    copts.maxRetries = a.retries;
    copts.drainSeconds = a.drainSeconds;
    copts.publishStatus = statusboardEnabled();
    copts.preJournal = [&](std::uint64_t key, const JobOutcome &) {
        if (crash_key == 0 || key != crash_key)
            return;
        const std::string marker = csprintf(
            "%s/.crash-fired-%016llx", dir.c_str(),
            static_cast<unsigned long long>(crash_key));
        if (::access(marker.c_str(), F_OK) == 0)
            return;
        atomicWriteFile(marker, "armed-once\n");
        if (crash_mode == "kill") {
            ::kill(::getpid(), SIGKILL);
        } else if (crash_mode == "abort") {
            std::abort();
        } else {
            ::raise(SIGSEGV);
        }
    };

    SimJobRunner runner;
    // Failed and timed-out jobs are terminal too: the worker is done
    // unless the drain left some jobs resumable.
    return runCampaignShard(runner, jobs, journal, copts).interrupted
               ? campaignInterruptedExitStatus
               : 0;
}

int
cmdCampaign(const std::string &dir, const Args &a)
{
    if (a.inspect) {
        // Summarize the journal without dispatching anything.
        const JournalReplay replay = loadJournal(dir + "/journal.jsonl");
        std::printf("journal: %zu lines, %zu live records "
                    "(%zu corrupt, %zu torn, %zu superseded)\n",
                    replay.lines, replay.records.size(),
                    replay.corrupted, replay.truncated,
                    replay.duplicates);
        for (const auto &rec : replay.records) {
            std::printf("  %016llx %s\n",
                        static_cast<unsigned long long>(rec.key),
                        rec.status.c_str());
        }
        return 0;
    }

    // The matrix, in canonical order (workload-major): the same
    // defaults as verify's golden sweep.
    const std::vector<SimJob> jobs = buildCampaignJobs(a);

    // --shards hands the whole campaign to the process supervisor:
    // same matrix, same directory, same report bytes.
    if (a.shards > 0)
        return cmdShardedCampaign(dir, a, jobs);

    installCampaignSignalHandlers();
    SimJobRunner runner;
    CampaignOptions copts;
    copts.resume = a.resume;
    copts.timeoutSeconds = a.timeoutSeconds;
    copts.maxRetries = a.retries;
    copts.drainSeconds = a.drainSeconds;
    copts.publishStatus = statusboardEnabled();
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    std::atomic<std::size_t> settled{0};
    copts.onJobDone = [&](std::uint64_t, const JobOutcome &,
                          bool replayed) {
        const std::size_t done = settled.fetch_add(1) + 1;
        // Journal replay settles its jobs all at once; print only
        // the jobs this run executes. Generous budget: a wide matrix
        // emits at most a few hundred lines, and only a pathological
        // retry storm gets throttled.
        static LogRateLimiter limiter(50.0, 200.0);
        if (!replayed)
            informLimited(limiter, "[campaign %zu/%zu]", done,
                          jobs.size());
    };

    return finishCampaign(dir, runCampaign(runner, jobs, dir, copts));
}

/** A subcommand: its positional argument (nullptr: none), one usage
 *  line, its body, and whether it takes the flags. */
struct Command
{
    const char *name;
    const char *arg;
    const char *help;
    int (*run)(const std::string &arg, const Args &a);
    bool takesFlags = true;
};

int
cmdVersion(const std::string &, const Args &)
{
    std::printf("powerchop %s\n", POWERCHOP_VERSION);
    return 0;
}

const Command kCommands[] = {
    {"list", nullptr, "the 29 built-in workload models", cmdList, false},
    {"show", "<workload>", "a model's spec, as a .wl template", cmdShow,
     false},
    {"run", "<workload>", "simulate one workload",
     [](const std::string &w, const Args &a) { return cmdRun(w, a); }},
    {"trace", "<workload>", "run with --trace: --out or <workload>.trace.json",
     [](const std::string &w, const Args &a) { return cmdRun(w, a, true); }},
    {"compare", "<workload>", "full-power vs PowerChop vs min-power",
     cmdCompare},
    {"verify", nullptr, "differential oracle (and --goldens)", cmdVerify},
    {"campaign", "<dir>", "durable, resumable sweep of the matrix",
     cmdCampaign},
    {"campaign-worker", "<dir>", "internal: one shard of campaign --shards",
     cmdCampaignWorker},
    {"status", "<dir>", "a campaign's live statusboard", cmdStatus},
    {"serve", "<dir>", "powerchopd, the simulation daemon", cmdServe},
    {"client", nullptr, "one request against a running powerchopd",
     cmdClient},
    {"version", nullptr, "print the release", cmdVersion, false},
    {"--version", nullptr, "print the release", cmdVersion, false},
};

int
usage()
{
    std::string text = "usage: powerchop <command> [options]\n";
    for (const Command &c : kCommands) {
        const std::string lhs =
            c.arg ? std::string(c.name) + " " + c.arg : c.name;
        text += csprintf("  %-28s  %s\n", lhs.c_str(), c.help);
    }
    Args unused;
    text += "options (every command but list, show and version):\n" +
            flagUsage(cliFlags(unused)) +
            "modes: full-power powerchop min-power timeout-vpu "
            "drowsy-mlc\n";
    std::fputs(text.c_str(), stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const auto cmd = std::find_if(
        std::begin(kCommands), std::end(kCommands), [&](const Command &c) {
            return !args.empty() && args[0] == c.name;
        });
    // The flags follow the positional argument, if any.
    const std::size_t first = cmd != std::end(kCommands) && cmd->arg ? 2 : 1;
    if (cmd == std::end(kCommands) || args.size() < first ||
        (!cmd->takesFlags && args.size() > first))
        return usage();

    try {
        return cmd->run(cmd->arg ? args[1] : "",
                        parseOptions({args.begin() + first, args.end()}));
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    } catch (const FatalError &) {
        return 1; // fatal() printed the message.
    } catch (const PanicError &) {
        return 1; // panic() printed the message.
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
