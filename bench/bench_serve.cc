/**
 * @file
 * Closed-loop load generator for powerchopd (after memcached-style
 * workload generators): N client threads, each with its own
 * connection, drive a Zipf-ish key mix against a running daemon.
 *
 * Each thread computes the campaign matrix's content keys locally
 * (the same campaignJobKey the daemon uses), GETs a key drawn from a
 * heavy-tailed rank distribution, and on MISS read-throughs with a
 * single-job SIM so the daemon simulates and caches it. A first pass
 * against a cold daemon is therefore mostly misses; a second pass
 * (or a warm-restarted daemon) should be nearly all hits — CI greps
 * the `hit_rate=` line to assert exactly that.
 *
 * Prints served QPS, hit rate and request-latency quantiles, and
 * appends the same numbers to the BENCH_runner.json trajectory.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"

using namespace powerchop;
using namespace powerchop::bench;

namespace
{

/** One key of the working set: the content key plus the single-job
 *  SIM spec that populates it on a read-through miss. */
struct KeyPoint
{
    std::uint64_t key = 0;
    std::string spec;
};

int
runBench(int argc, char **argv)
{
    std::string socketPath;
    unsigned port = 0;
    unsigned threads = 4;
    std::uint64_t requestsPerThread = 500;
    std::string workloads = "perlbench,namd,canneal,msn";
    std::string machines = "server,mobile";
    std::string modes =
        "full-power,powerchop,min-power,timeout-vpu,drowsy-mlc";
    std::uint64_t insns = 200'000;
    double timeoutCycles = 0;
    unsigned retries = 1;
    double timeoutSeconds = 0;
    const std::vector<Flag> flags = {
        {"--socket", "PATH", "powerchopd's Unix socket",
         setText(socketPath)},
        {"--port", "N", "powerchopd's TCP port on 127.0.0.1",
         setNumber(port, 0u, 65535u)},
        // POWERCHOP_JOBS's ceiling.
        {"--threads", "N", "concurrent client connections (default 4)",
         setNumber(threads, 1u, 1024u)},
        {"--requests", "N", "GET requests per thread (default 500)",
         setNumber<std::uint64_t>(requestsPerThread, 1)},
        {"--workloads", "CSV",
         "key-space workloads (default perlbench,namd,canneal,msn)",
         setText(workloads)},
        {"--machines", "CSV", "key-space machines (default server,mobile)",
         setText(machines)},
        {"--modes", "CSV", "key-space modes (default all five)",
         setText(modes)},
        {"--insns", "N", "per-job instruction budget (default 200000)",
         setNumber<std::uint64_t>(insns, 1)},
        {"--timeout", "C", "idle-timeout cycles in the spec (default 0)",
         setNumber(timeoutCycles)},
        {"--retries", "N",
         "reconnect-and-retry attempts per request (default 1)",
         setNumber(retries)},
        {"--timeout-seconds", "S",
         "per-attempt I/O deadline (default 0 = none)",
         setSeconds(timeoutSeconds)},
    };
    const auto usage = [&] {
        std::fprintf(stderr,
                     "usage: bench_serve [options] (a socket or a port "
                     "is required)\n%s",
                     flagUsage(flags).c_str());
        return 2;
    };

    // The CLI's flag table type: a bad flag or value exits 2 before
    // any client thread starts.
    try {
        parseFlags(flags, {argv + 1, argv + argc});
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    }
    if (socketPath.empty() && port == 0)
        return usage();

    // The working set: expand the matrix workload-major (the
    // daemon's order) and compute each job's content key locally.
    std::vector<KeyPoint> points;
    for (const std::string &wname : splitList(workloads)) {
        for (const std::string &mname : splitList(machines)) {
            const MachineConfig machine = machineByName(mname);
            for (const std::string &modeName : splitList(modes)) {
                SimMode mode;
                if (!parseSimMode(modeName, mode))
                    fatal("unknown mode \"%s\"", modeName.c_str());
                SimJob job;
                job.workload = findWorkload(wname);
                job.machine = machine;
                job.opts.mode = mode;
                job.opts.maxInstructions = insns;
                job.opts.timeoutCycles = timeoutCycles;
                KeyPoint p;
                p.key = campaignJobKey(job);
                p.spec = formatSimSpec({wname}, {mname}, {modeName},
                                       insns, timeoutCycles);
                points.push_back(std::move(p));
            }
        }
    }
    panicIf(points.empty(), "empty key space");

    banner(csprintf("powerchopd load generator: %u conns x %llu "
                    "GETs over %zu keys",
                    threads,
                    static_cast<unsigned long long>(
                        requestsPerThread),
                    points.size()),
           "serving-plane benchmark (not a paper figure)");

    // Zipf-ish rank weights: P(rank r) proportional to 1/(r+1).
    // Cumulative weights + binary search keeps the draw portable
    // and deterministic for a fixed seed.
    std::vector<double> cumulative(points.size());
    double total = 0;
    for (std::size_t r = 0; r < points.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cumulative[r] = total;
    }

    stats::Log2Histogram latencyNs;
    std::atomic<std::uint64_t> hits{0}, misses{0}, errors{0},
        ioErrors{0}, completed{0}, busy{0}, retried{0};

    const auto connect = [&](ServeClient &client) {
        std::string err;
        const bool ok = port != 0
                            ? client.connectTcp(
                                  static_cast<unsigned short>(port),
                                  &err)
                            : client.connectUnix(socketPath, &err);
        if (!ok)
            progress("connect failed: " + err);
        return ok;
    };

    const double t0 = monotonicSeconds();
    std::vector<std::thread> pool;
    for (unsigned tid = 0; tid < threads; ++tid) {
        pool.emplace_back([&, tid] {
            ServeClient client;
            // The client's own retry policy rides through daemon
            // drains/restarts: reconnect + deterministic seeded
            // backoff, decorrelated across threads by seed.
            ClientRetryPolicy policy;
            policy.retries = retries;
            policy.timeoutSeconds = timeoutSeconds;
            policy.backoffBaseSeconds = 0.02;
            policy.backoffMaxSeconds = 0.5;
            policy.seed = 1234 + tid;
            client.setRetryPolicy(policy);
            if (!connect(client) && retries == 0) {
                ioErrors.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            std::mt19937_64 rng(1234 + tid);
            std::uniform_real_distribution<double> uni(0.0, total);
            for (std::uint64_t n = 0; n < requestsPerThread; ++n) {
                const auto it = std::upper_bound(
                    cumulative.begin(), cumulative.end(), uni(rng));
                const std::size_t idx = std::min<std::size_t>(
                    static_cast<std::size_t>(
                        it - cumulative.begin()),
                    points.size() - 1);

                const std::int64_t start = monotonicNanos();
                const ServeReply reply =
                    client.get(points[idx].key);
                if (reply.attempts > 1) {
                    retried.fetch_add(reply.attempts - 1,
                                      std::memory_order_relaxed);
                }
                if (reply.ioFailed) {
                    ioErrors.fetch_add(1, std::memory_order_relaxed);
                    return; // retries exhausted: daemon is gone
                }
                latencyNs.sample(static_cast<std::uint64_t>(
                    monotonicNanos() - start));
                completed.fetch_add(1, std::memory_order_relaxed);

                if (reply.status == ResponseStatus::Hit) {
                    hits.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (reply.status == ResponseStatus::Busy) {
                    busy.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (reply.status != ResponseStatus::Miss) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                misses.fetch_add(1, std::memory_order_relaxed);

                // Read-through: one single-job SIM populates the
                // key for every later GET (any thread's).
                const std::int64_t simStart = monotonicNanos();
                const ServeReply simReply =
                    client.sim(points[idx].spec);
                if (simReply.attempts > 1) {
                    retried.fetch_add(simReply.attempts - 1,
                                      std::memory_order_relaxed);
                }
                if (simReply.ioFailed) {
                    ioErrors.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                latencyNs.sample(static_cast<std::uint64_t>(
                    monotonicNanos() - simStart));
                completed.fetch_add(1, std::memory_order_relaxed);
                if (simReply.status == ResponseStatus::Busy)
                    busy.fetch_add(1, std::memory_order_relaxed);
                else if (!simReply.served())
                    errors.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    const double wall = monotonicSeconds() - t0;

    const std::uint64_t done =
        completed.load(std::memory_order_relaxed);
    const std::uint64_t hit = hits.load(std::memory_order_relaxed);
    const std::uint64_t miss =
        misses.load(std::memory_order_relaxed);
    const std::uint64_t shed = busy.load(std::memory_order_relaxed);
    const std::uint64_t retriedN =
        retried.load(std::memory_order_relaxed);
    const double qps = wall > 0 ? done / wall : 0;
    const double hitRate =
        hit + miss > 0
            ? static_cast<double>(hit) /
                  static_cast<double>(hit + miss)
            : 0;
    const double shedRate =
        done > 0 ? static_cast<double>(shed) /
                       static_cast<double>(done)
                 : 0;
    const stats::Quantiles lat = latencyNs.quantiles(1e-6);

    std::printf("requests=%llu hits=%llu misses=%llu errors=%llu "
                "io_errors=%llu busy=%llu\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(hit),
                static_cast<unsigned long long>(miss),
                static_cast<unsigned long long>(
                    errors.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    ioErrors.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(shed));
    std::printf("served_qps=%.1f\n", qps);
    std::printf("hit_rate=%.6f\n", hitRate);
    std::printf("shed_rate=%.6f\n", shedRate);
    std::printf("retries=%llu\n",
                static_cast<unsigned long long>(retriedN));
    std::printf("request_latency_ms %s (%llu samples)\n",
                lat.toString().c_str(),
                static_cast<unsigned long long>(lat.samples));

    const std::string entry = csprintf(
        "{\"bench\":\"bench_serve\",\"threads\":%u,"
        "\"keys\":%zu,\"requests\":%llu,\"hits\":%llu,"
        "\"misses\":%llu,\"errors\":%llu,\"io_errors\":%llu,"
        "\"busy\":%llu,\"retries\":%llu,"
        "\"wall_seconds\":%.6f,\"served_qps\":%.6f,"
        "\"hit_rate\":%.6f,\"shed_rate\":%.6f,"
        "\"request_latency_ms\":%s}",
        threads, points.size(),
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(hit),
        static_cast<unsigned long long>(miss),
        static_cast<unsigned long long>(
            errors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            ioErrors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(retriedN),
        wall, qps, hitRate, shedRate, lat.toJson().c_str());
    const std::string path =
        envString("POWERCHOP_RUNNER_JSON").value_or(
            "BENCH_runner.json");
    appendJsonArrayEntryOk(path, entry);

    return done > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBench(argc, argv);
    } catch (const FatalError &) {
        return 1; // fatal() printed the message.
    }
}
