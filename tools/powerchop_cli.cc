/**
 * @file
 * powerchop — the command-line driver.
 *
 * Subcommands:
 *   list                         List the 29 built-in workload models.
 *   show <workload>              Print a model's spec (spec_io text
 *                                form, usable as a template).
 *   run <workload> [options]     Simulate one workload.
 *   compare <workload> [options] Full-power vs PowerChop vs min-power.
 *   trace <workload> [options]   Simulate and write a Chrome
 *                                trace-event JSON timeline (opens in
 *                                Perfetto / chrome://tracing).
 *   campaign <dir> [options]     Run a durable sweep into <dir>:
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
 *   campaign-worker <dir> ...    Internal: one shard of a sharded
 *                                campaign. Reads assigned content
 *                                keys from stdin, journals to
 *                                --journal, reports done/heartbeat
 *                                lines on stdout.
 *   status <dir> [options]       Read a campaign's live statusboard
 *                                (<dir>/status/*.json): a one-shot
 *                                table by default, --follow to
 *                                redraw on an interval, --json for
 *                                machine output, --prom for a
 *                                Prometheus textfile exposition.
 *                                Exits 2 when <dir> holds no
 *                                snapshots (nothing running there).
 *   serve <dir> [options]        powerchopd: a long-lived daemon
 *                                serving simulation results over a
 *                                Unix/TCP socket from a content-
 *                                keyed LRU cache (misses simulate
 *                                through the campaign machinery;
 *                                the cache journal in <dir> makes
 *                                restarts warm).
 *   client [options]             One framed request against a
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
 * Options:
 *   --machine server|mobile   Design point (default: by suite).
 *   --mode MODE               full-power | powerchop | min-power |
 *                             timeout-vpu | drowsy-mlc.
 *   --insns N                 Instruction budget (default 10000000).
 *   --timeout N               Timeout period in cycles (timeout-vpu).
 *   --save PATH               Write the workload spec to PATH.
 *   --trace PATH              Also write a trace (run/compare).
 *   --out PATH                Trace output path (trace; default
 *                             <workload>.trace.json).
 *   --metrics-out PATH        Write the per-window metrics CSV
 *                             (PowerChop mode; .jsonl writes JSONL).
 *
 * Unknown subcommands and options, and numeric values that do not
 * parse whole or fall outside the flag's range, print usage and exit
 * 2. --version prints the release and exits 0.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
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

int
usage()
{
    std::fprintf(
        stderr,
        "usage: powerchop <command> [args]\n"
        "  list\n"
        "  show <workload>\n"
        "  run <workload> [--machine server|mobile] [--mode MODE]\n"
        "      [--insns N] [--timeout N] [--save PATH] [--json]\n"
        "      [--trace PATH] [--metrics-out PATH]\n"
        "  compare <workload> [--machine server|mobile] [--insns N]\n"
        "  trace <workload> [--out PATH] [--mode MODE] [--insns N]\n"
        "  verify [--insns N] [--workloads a,b,c] [--machine M]\n"
        "      [--mode MODE] [--seeds s1,s2] [--goldens DIR]\n"
        "      [--update-goldens] [--tol T]\n"
        "  campaign <dir> [--workloads a,b,c] [--machine M]\n"
        "      [--modes m1,m2] [--insns N] [--resume] [--inspect]\n"
        "      [--timeout-seconds S] [--drain-seconds S]\n"
        "      [--retries N] [--shards N] [--max-restarts N]\n"
        "      [--heartbeat-seconds S]\n"
        "  campaign-worker <dir> --journal PATH [matrix options]\n"
        "      (internal: one shard of `campaign --shards`; reads\n"
        "      assigned content keys from stdin, one 16-hex line\n"
        "      each, and reports done/heartbeat lines on stdout)\n"
        "  status <dir> [--json | --prom] [--follow] [--interval S]\n"
        "      (exit 2 when <dir> holds no status snapshots)\n"
        "  serve <dir> [--socket PATH | --port N] [--cache-mb N]\n"
        "      [--timeout-seconds S] [--max-conns N] [--sim-queue N]\n"
        "      [--backlog N] [--idle-timeout-seconds S]\n"
        "      [--read-timeout-seconds S] [--write-timeout-seconds S]\n"
        "      [--request-deadline-seconds S] [--drain-seconds S]\n"
        "      [--compact-ratio R] [--compact-min-records N]\n"
        "      (powerchopd: long-lived simulation service with a\n"
        "      content-keyed LRU result cache, journaled to\n"
        "      <dir>/cache.jsonl for warm restarts; default socket\n"
        "      <dir>/powerchopd.sock; overload sheds BUSY; SIGTERM\n"
        "      drains in-flight work and exits 3)\n"
        "  client (--socket PATH | --port N) [--get KEY | --stats |\n"
        "      matrix options] [--retries N] [--timeout-seconds S]\n"
        "      (one request against a running powerchopd; SIM\n"
        "      payloads are byte-identical to a direct campaign's\n"
        "      report.json; retries reconnect with deterministic\n"
        "      exponential backoff)\n"
        "  --version\n"
        "modes: full-power powerchop min-power timeout-vpu drowsy-mlc\n"
        "run/compare/trace accept --audit (invariant-check results)\n"
        "any subcommand accepts --profile (stage wall-clock table,\n"
        "same as POWERCHOP_PROFILE=1)\n");
    return 2;
}

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
    std::string seeds;
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
    unsigned maxRestarts = 3;
    double heartbeatSeconds = 30.0;
    std::string journal; ///< Shard journal (campaign-worker).
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
    unsigned maxConns = 256;  ///< serve: connection cap (0 = off).
    unsigned simQueue = 16;   ///< serve: SIM admission depth.
    int backlog = 64;         ///< serve: listen(2) backlog.
    double idleTimeoutSeconds = 300;   ///< serve: idle conn reap.
    double readTimeoutSeconds = 30;    ///< serve: mid-frame read.
    double writeTimeoutSeconds = 30;   ///< serve: response write.
    double requestDeadlineSeconds = 0; ///< serve: SIM wall cap.
    double compactRatio = 0.5; ///< serve: journal dead-ratio gate.
    std::uint64_t compactMinRecords = 1024; ///< serve: floor.
    /** @} */

    /** --profile: CLI parity for POWERCHOP_PROFILE=1. */
    bool profile = false;
};

Args
parseOptions(const std::vector<std::string> &rest)
{
    Args a;
    for (std::size_t i = 0; i < rest.size(); ++i) {
        auto need = [&](const char *what) -> const std::string & {
            if (i + 1 >= rest.size())
                fatal("%s requires a value", what);
            return rest[++i];
        };
        // Time-valued flags (--*-seconds, --interval): the 1e9 s
        // ceiling (about 31 years) keeps every nanosecond deadline
        // derived from them in range.
        auto seconds = [&](const char *what) {
            return parseNumber(what, need(what), 0.0, 1e9);
        };
        if (rest[i] == "--machine")
            a.machine = need("--machine");
        else if (rest[i] == "--mode") {
            a.mode = parseMode(need("--mode"));
            a.modeSet = true;
        } else if (rest[i] == "--insns") {
            a.insns = parseNumber<InsnCount>("--insns", need("--insns"), 1);
            a.insnsSet = true;
        } else if (rest[i] == "--timeout")
            a.timeout = parseNumber<double>("--timeout", need("--timeout"));
        else if (rest[i] == "--save")
            a.save = need("--save");
        else if (rest[i] == "--json")
            a.json = true;
        else if (rest[i] == "--trace")
            a.tracePath = need("--trace");
        else if (rest[i] == "--metrics-out")
            a.metricsOut = need("--metrics-out");
        else if (rest[i] == "--out")
            a.out = need("--out");
        else if (rest[i] == "--audit")
            a.audit = true;
        else if (rest[i] == "--workloads")
            a.workloads = need("--workloads");
        else if (rest[i] == "--seeds")
            a.seeds = need("--seeds");
        else if (rest[i] == "--goldens")
            a.goldens = need("--goldens");
        else if (rest[i] == "--update-goldens")
            a.updateGoldens = true;
        else if (rest[i] == "--tol")
            a.tol = parseNumber<double>("--tol", need("--tol"));
        else if (rest[i] == "--modes")
            a.modes = need("--modes");
        else if (rest[i] == "--resume")
            a.resume = true;
        else if (rest[i] == "--inspect")
            a.inspect = true;
        else if (rest[i] == "--timeout-seconds")
            a.timeoutSeconds = seconds("--timeout-seconds");
        else if (rest[i] == "--drain-seconds")
            a.drainSeconds = seconds("--drain-seconds");
        else if (rest[i] == "--retries")
            a.retries = parseNumber<unsigned>("--retries", need("--retries"));
        else if (rest[i] == "--shards")
            a.shards = parseNumber<unsigned>("--shards", need("--shards"));
        else if (rest[i] == "--max-restarts")
            a.maxRestarts = parseNumber<unsigned>("--max-restarts",
                                                  need("--max-restarts"));
        else if (rest[i] == "--heartbeat-seconds")
            a.heartbeatSeconds = seconds("--heartbeat-seconds");
        else if (rest[i] == "--journal")
            a.journal = need("--journal");
        else if (rest[i] == "--follow")
            a.follow = true;
        else if (rest[i] == "--prom")
            a.prom = true;
        else if (rest[i] == "--interval")
            a.intervalSeconds = seconds("--interval");
        else if (rest[i] == "--socket")
            a.socket = need("--socket");
        else if (rest[i] == "--port")
            a.port = parseNumber<unsigned>("--port", need("--port"), 0,
                                           65535);
        else if (rest[i] == "--cache-mb")
            a.cacheMb = parseNumber<double>("--cache-mb", need("--cache-mb"),
                                            1e-6, 1e9);
        else if (rest[i] == "--get") {
            std::uint64_t key = 0;
            if (!parseContentKey(need("--get"), key)) {
                throw UsageError(csprintf(
                    "--get wants a 1..16 hex-digit content key, got "
                    "'%s'", rest[i].c_str()));
            }
            a.getKey = key;
        }
        else if (rest[i] == "--stats")
            a.statsRequest = true;
        else if (rest[i] == "--max-conns")
            a.maxConns = parseNumber<unsigned>("--max-conns",
                                               need("--max-conns"));
        else if (rest[i] == "--sim-queue")
            a.simQueue = parseNumber<unsigned>("--sim-queue",
                                               need("--sim-queue"));
        else if (rest[i] == "--backlog")
            a.backlog = parseNumber<int>("--backlog", need("--backlog"));
        else if (rest[i] == "--idle-timeout-seconds")
            a.idleTimeoutSeconds = seconds("--idle-timeout-seconds");
        else if (rest[i] == "--read-timeout-seconds")
            a.readTimeoutSeconds = seconds("--read-timeout-seconds");
        else if (rest[i] == "--write-timeout-seconds")
            a.writeTimeoutSeconds = seconds("--write-timeout-seconds");
        else if (rest[i] == "--request-deadline-seconds")
            a.requestDeadlineSeconds =
                seconds("--request-deadline-seconds");
        else if (rest[i] == "--compact-ratio")
            a.compactRatio = parseNumber<double>(
                "--compact-ratio", need("--compact-ratio"), 0.0, 1.0);
        else if (rest[i] == "--compact-min-records")
            a.compactMinRecords = parseNumber<std::uint64_t>(
                "--compact-min-records", need("--compact-min-records"));
        else if (rest[i] == "--profile")
            a.profile = true;
        else
            throw UsageError(csprintf("unknown option '%s'",
                                      rest[i].c_str()));
    }
    // --profile arms the process-wide profiler that POWERCHOP_PROFILE
    // latched at global()'s first use; doing it in the option funnel
    // covers every subcommand with one line.
    if (a.profile)
        telemetry::StageProfiler::global().setEnabled(true);
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

/** Attach telemetry sinks requested by flags; returns the trace
 *  recorder when --trace / trace's --out asked for one. */
void
writeTelemetry(const Args &a, const std::string &trace_path,
               const telemetry::TraceRecorder &trace,
               const telemetry::MetricsRegistry &metrics)
{
    if (!trace_path.empty()) {
        if (!telemetry::writeChromeTrace(trace_path, {&trace}))
            fatal("cannot write trace to '%s'", trace_path.c_str());
        std::printf("wrote %s (%zu events%s)\n", trace_path.c_str(),
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
        std::printf("wrote %s (%zu windows)\n", a.metricsOut.c_str(),
                    metrics.rows().size());
    }
}

MachineConfig
resolveMachine(const Args &a, const WorkloadSpec &w)
{
    if (a.machine == "server")
        return serverConfig();
    if (a.machine == "mobile")
        return mobileConfig();
    if (!a.machine.empty())
        fatal("unknown machine '%s'", a.machine.c_str());
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
cmdList()
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
cmdShow(const std::string &name)
{
    std::fputs(formatWorkloadSpec(resolveWorkload(name)).c_str(),
               stdout);
    return 0;
}

int
cmdRun(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    if (!a.save.empty()) {
        saveWorkloadSpec(w, a.save);
        std::printf("wrote %s\n", a.save.c_str());
    }
    MachineConfig m = resolveMachine(a, w);
    SimOptions opts;
    opts.mode = a.mode;
    opts.maxInstructions = a.insns;
    opts.timeoutCycles = a.timeout;
    opts.audit = a.audit;

    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    if (!a.tracePath.empty())
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
    writeTelemetry(a, a.tracePath, trace, metrics);
    return 0;
}

int
cmdTrace(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    MachineConfig m = resolveMachine(a, w);
    SimOptions opts;
    opts.mode = a.mode;
    opts.maxInstructions = a.insns;
    opts.timeoutCycles = a.timeout;
    opts.audit = a.audit;

    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    opts.trace = &trace;
    if (!a.metricsOut.empty() && a.mode == SimMode::PowerChop)
        opts.metrics = &metrics;

    SimResult r = simulate(m, w, opts);
    printResult(r);

    const std::string path =
        !a.out.empty() ? a.out : w.name + ".trace.json";
    writeTelemetry(a, path, trace, metrics);
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

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
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
cmdVerify(const Args &a)
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
    if (!a.seeds.empty()) {
        for (const auto &s : splitList(a.seeds))
            matrix.faultSeeds.push_back(
                parseNumber<std::uint64_t>("--seeds", s));
    } else {
        // Fault-free plus one faulty seed: the differential contract
        // holds under injected faults too (both loops share the
        // deterministic per-run fault stream).
        matrix.faultSeeds = {0, 1009};
    }

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

/** The flags to forward to campaign-worker processes: the matrix
 *  flags, so they rebuild exactly the supervisor's job list, and the
 *  per-job knobs, each written so it reads back exactly. */
std::vector<std::string>
matrixWorkerArgs(const Args &a)
{
    std::vector<std::string> args;
    if (!a.workloads.empty()) {
        args.push_back("--workloads");
        args.push_back(a.workloads);
    }
    if (!a.machine.empty()) {
        args.push_back("--machine");
        args.push_back(a.machine);
    }
    if (!a.modes.empty()) {
        args.push_back("--modes");
        args.push_back(a.modes);
    } else if (a.modeSet) {
        args.push_back("--mode");
        args.push_back(simModeName(a.mode));
    }
    if (a.insnsSet) {
        args.push_back("--insns");
        args.push_back(csprintf(
            "%llu", static_cast<unsigned long long>(a.insns)));
    }
    if (a.timeout != 0) {
        args.push_back("--timeout");
        args.push_back(csprintf("%.17g", a.timeout));
    }
    if (a.timeoutSeconds != 0) {
        args.push_back("--timeout-seconds");
        args.push_back(csprintf("%.17g", a.timeoutSeconds));
    }
    if (a.retries != 0) {
        args.push_back("--retries");
        args.push_back(csprintf("%u", a.retries));
    }
    if (a.drainSeconds != 5.0) {
        args.push_back("--drain-seconds");
        args.push_back(csprintf("%.17g", a.drainSeconds));
    }
    // Not matrix-defining, but per-process: workers must arm their
    // own profiler to contribute stage tables to the statusboard.
    if (a.profile)
        args.push_back("--profile");
    return args;
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

    ServeOptions sopts;
    if (a.port != 0)
        sopts.port = static_cast<unsigned short>(a.port);
    else
        sopts.socketPath =
            !a.socket.empty() ? a.socket : dir + "/powerchopd.sock";
    sopts.cache.maxBytes =
        static_cast<std::size_t>(a.cacheMb * (1u << 20));
    sopts.cache.journalPath = dir + "/cache.jsonl";
    sopts.cache.compactDeadRatio = a.compactRatio;
    sopts.cache.compactMinRecords = a.compactMinRecords;
    sopts.jobTimeoutSeconds = a.timeoutSeconds;
    sopts.listenBacklog = a.backlog;
    sopts.maxConnections = a.maxConns;
    sopts.simQueueDepth = a.simQueue;
    sopts.idleTimeoutSeconds = a.idleTimeoutSeconds;
    sopts.readTimeoutSeconds = a.readTimeoutSeconds;
    sopts.writeTimeoutSeconds = a.writeTimeoutSeconds;
    sopts.requestDeadlineSeconds = a.requestDeadlineSeconds;
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
cmdClient(const Args &a)
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
cmdShardedCampaign(const std::string &dir, const Args &a)
{
    installCampaignSignalHandlers();

    ShardSupervisorOptions sopts;
    sopts.shards = a.shards;
    sopts.resume = a.resume;
    sopts.maxRestarts = a.maxRestarts;
    sopts.heartbeatTimeoutSeconds = a.heartbeatSeconds;
    sopts.drainSeconds = a.drainSeconds;
    sopts.workerArgs = matrixWorkerArgs(a);
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
        runShardedCampaign(buildCampaignJobs(a), dir, sopts);

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
    if (a.journal.empty())
        fatal("campaign-worker requires --journal PATH");

    // Assignment: one 16-hex content key per stdin line, EOF ends it.
    std::vector<std::uint64_t> assigned;
    {
        std::string line;
        char buf[64];
        while (std::fgets(buf, sizeof(buf), stdin)) {
            line = buf;
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r')) {
                line.pop_back();
            }
            if (line.empty())
                continue;
            std::uint64_t key = 0;
            if (!parseContentKey(line, key)) {
                fatal("campaign-worker: assigned key '%s' is not 1..16 "
                      "hex digits",
                      line.c_str());
            }
            assigned.push_back(key);
        }
    }

    // Rebuild the matrix from the forwarded flags and keep only the
    // assigned keys. An assigned key the matrix cannot produce means
    // supervisor and worker disagree about the spec — fatal, because
    // silently dropping it would stall the campaign.
    const std::vector<SimJob> matrix = buildCampaignJobs(a);
    const std::vector<std::uint64_t> matrix_keys =
        campaignJobKeys(matrix);
    std::vector<SimJob> jobs;
    for (std::uint64_t key : assigned) {
        const auto it =
            std::find(matrix_keys.begin(), matrix_keys.end(), key);
        if (it == matrix_keys.end()) {
            fatal("campaign-worker: assigned key %016llx matches no "
                  "job of this matrix (flag mismatch with the "
                  "supervisor?)",
                  static_cast<unsigned long long>(key));
        }
        jobs.push_back(matrix[it - matrix_keys.begin()]);
    }

    installCampaignSignalHandlers();
    if (flightRecorderEnabled()) {
        FlightRecorder::global().enable(dir + "/flight-" +
                                        shardLabel(a.journal) + ".jsonl");
    }

    // Protocol stdout (ready/hb/done lines) is shared between worker
    // threads and the heartbeat thread.
    std::mutex out_mutex;
    const auto emit = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        std::fputs((line + "\n").c_str(), stdout);
        std::fflush(stdout);
    };
    emit(csprintf("ready %zu", jobs.size()));

    // ~500ms cadence keeps hang detection cheap and prompt; worker
    // exit wakes the wait at once.
    StopLatch hb_stop;
    std::thread heartbeat([&] {
        while (!hb_stop.waitFor(std::chrono::milliseconds(500)))
            emit("hb");
    });
    const auto stopHeartbeat = [&] {
        hb_stop.stop();
        heartbeat.join();
    };

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
    copts.onJobDone = [&](std::uint64_t key, const JobOutcome &o,
                          bool) {
        emit(csprintf("done %016llx %s",
                      static_cast<unsigned long long>(key),
                      jobStatusName(o.status)));
    };

    SimJobRunner runner;
    CampaignResult res;
    try {
        res = runCampaignShard(runner, jobs, a.journal, copts);
    } catch (...) {
        stopHeartbeat();
        throw;
    }
    stopHeartbeat();
    // Failed and timed-out jobs are terminal too: the worker is done
    // unless the drain left some jobs resumable.
    return res.interrupted ? campaignInterruptedExitStatus : 0;
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

    // --shards hands the whole campaign to the process supervisor:
    // same matrix, same directory, same report bytes.
    if (a.shards > 0)
        return cmdShardedCampaign(dir, a);

    // The matrix, in canonical order (workload-major): the same
    // defaults as verify's golden sweep.
    const std::vector<SimJob> jobs = buildCampaignJobs(a);

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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    std::vector<std::string> rest;
    for (int i = 3; i < argc; ++i)
        rest.emplace_back(argv[i]);

    try {
        std::string cmd = argv[1];
        if (cmd == "--version" || cmd == "version") {
            std::printf("powerchop %s\n", POWERCHOP_VERSION);
            return 0;
        }
        if (cmd == "list" && argc == 2)
            return cmdList();
        if (cmd == "show" && argc == 3)
            return cmdShow(argv[2]);
        if (cmd == "run" && argc >= 3)
            return cmdRun(argv[2], parseOptions(rest));
        if (cmd == "compare" && argc >= 3)
            return cmdCompare(argv[2], parseOptions(rest));
        if (cmd == "trace" && argc >= 3)
            return cmdTrace(argv[2], parseOptions(rest));
        if (cmd == "campaign" && argc >= 3)
            return cmdCampaign(argv[2], parseOptions(rest));
        if (cmd == "campaign-worker" && argc >= 3)
            return cmdCampaignWorker(argv[2], parseOptions(rest));
        if (cmd == "status" && argc >= 3)
            return cmdStatus(argv[2], parseOptions(rest));
        if (cmd == "serve" && argc >= 3)
            return cmdServe(argv[2], parseOptions(rest));
        if (cmd == "client") {
            // client has no positional: every argv after the
            // subcommand is an option (the daemon address flags).
            std::vector<std::string> crest;
            for (int i = 2; i < argc; ++i)
                crest.emplace_back(argv[i]);
            return cmdClient(parseOptions(crest));
        }
        if (cmd == "verify") {
            // verify has no <workload> positional: every argv after
            // the subcommand is an option.
            std::vector<std::string> vrest;
            for (int i = 2; i < argc; ++i)
                vrest.emplace_back(argv[i]);
            return cmdVerify(parseOptions(vrest));
        }
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    // Unknown subcommand (or malformed arity): usage, exit 2.
    return usage();
}
