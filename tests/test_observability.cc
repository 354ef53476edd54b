/**
 * @file
 * Tests for the live observability plane: the log2 latency
 * histogram, the JSON reader, per-site log rate limiting, the
 * statusboard (snapshot round-trip, cadence-gated atomic publishing,
 * concurrent-writer parse-back), the crash flight recorder (ring
 * semantics and dump-on-fatal exactly-once through the flush-hook
 * registry), and the campaign integration that ties them together.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/flight_recorder.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/campaign.hh"
#include "sim/sim_runner.hh"
#include "sim/statusboard.hh"
#include "workload/suites.hh"
#include "workload/workload.hh"

using namespace powerchop;

namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "powerchop_obs_" +
        std::to_string(::getpid()) + "_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------------

TEST(Log2Histogram, BucketBoundaries)
{
    // Bucket 0 holds zeros; bucket i > 0 covers [2^(i-1), 2^i).
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(stats::Log2Histogram::bucketIndex(UINT64_MAX),
              stats::Log2Histogram::kBuckets - 1);

    // Every value lands inside its own bucket's [low, high) range.
    const std::vector<std::uint64_t> probes = {
        0, 1, 2, 7, 4096, 999'999'999, UINT64_MAX};
    for (std::uint64_t v : probes) {
        const unsigned i = stats::Log2Histogram::bucketIndex(v);
        EXPECT_GE(v, stats::Log2Histogram::bucketLow(i)) << v;
        if (i < stats::Log2Histogram::kBuckets - 1)
            EXPECT_LT(v, stats::Log2Histogram::bucketHigh(i)) << v;
    }
}

TEST(Log2Histogram, CountsSumAndMean)
{
    stats::Log2Histogram h;
    h.sample(0);
    h.sample(10);
    h.sample(10);
    h.sample(100);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.sum(), 120u);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(stats::Log2Histogram::bucketIndex(10)),
              2u);
}

TEST(Log2Histogram, QuantilesAreMonotoneInQ)
{
    stats::Log2Histogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0) << "empty histogram";
    for (std::uint64_t v = 1; v <= 10'000; ++v)
        h.sample(v * 37);
    double prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double cur = h.quantile(q);
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
    // The quantiles land within the right order of magnitude (log2
    // bucketing bounds the error to one power of two).
    const stats::Quantiles qs = h.quantiles();
    EXPECT_EQ(qs.samples, 10'000u);
    EXPECT_GT(qs.p50, 37.0 * 10'000 * 0.25);
    EXPECT_LT(qs.p50, 37.0 * 10'000);
    EXPECT_LE(qs.p50, qs.p90);
    EXPECT_LE(qs.p90, qs.p99);
}

TEST(Log2Histogram, EmptyHistogramQuantilesAreZero)
{
    // Regression: an empty histogram must report 0 everywhere, never
    // an interpolated garbage value from the zero-count bucket walk.
    stats::Log2Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);
    const stats::Quantiles q = h.quantiles(1e-6);
    EXPECT_EQ(q.samples, 0u);
    EXPECT_EQ(q.p50, 0.0);
    EXPECT_EQ(q.p90, 0.0);
    EXPECT_EQ(q.p99, 0.0);
}

TEST(Log2Histogram, QuantileRejectsOutOfRangeAndNanArgs)
{
    stats::Log2Histogram h;
    h.sample(5);
    EXPECT_THROW(h.quantile(-0.1), PanicError);
    EXPECT_THROW(h.quantile(1.1), PanicError);
    // NaN slips through a naive `q < 0 || q > 1` check (both
    // comparisons are false) and used to walk off the bucket table.
    EXPECT_THROW(h.quantile(std::nan("")), PanicError);
}

TEST(Log2Histogram, MergeIsAssociative)
{
    stats::Log2Histogram a, b, c;
    for (std::uint64_t v = 0; v < 500; ++v) {
        a.sample(v * 3);
        b.sample(v * v);
        c.sample(v + 1'000'000);
    }

    // (a + b) + c  ==  a + (b + c), bucket by bucket.
    stats::Log2Histogram left;
    left.merge(a);
    left.merge(b);
    left.merge(c);
    stats::Log2Histogram bc;
    bc.merge(b);
    bc.merge(c);
    stats::Log2Histogram right;
    right.merge(a);
    right.merge(bc);

    EXPECT_EQ(left.samples(), right.samples());
    EXPECT_EQ(left.sum(), right.sum());
    for (unsigned i = 0; i < stats::Log2Histogram::kBuckets; ++i)
        EXPECT_EQ(left.bucketCount(i), right.bucketCount(i)) << i;
    EXPECT_DOUBLE_EQ(left.quantile(0.9), right.quantile(0.9));
}

TEST(Log2Histogram, ConcurrentSamplingLosesNothing)
{
    stats::Log2Histogram h;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 20'000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (std::uint64_t v = 0; v < kPerThread; ++v)
                h.sample(v + t);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(h.samples(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsAndEscapes)
{
    json::Value v;
    ASSERT_TRUE(json::parse(
        "{\"a\":1.5,\"b\":\"x\\n\\\"y\\\\\",\"c\":true,"
        "\"d\":null,\"e\":-3}",
        v));
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.getDouble("a"), 1.5);
    EXPECT_EQ(v.getString("b"), "x\n\"y\\");
    EXPECT_TRUE(v.getBool("c"));
    ASSERT_NE(v.find("d"), nullptr);
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_DOUBLE_EQ(v.getDouble("e"), -3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParsesNestedArraysAndObjects)
{
    json::Value v;
    ASSERT_TRUE(json::parse(
        "{\"rows\":[{\"k\":\"deadbeef\"},{\"k\":\"cafe\"}],"
        "\"n\":[1,2,3]}",
        v));
    const json::Value *rows = v.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->elements().size(), 2u);
    EXPECT_EQ(rows->elements()[1].getString("k"), "cafe");
    const json::Value *n = v.find("n");
    ASSERT_NE(n, nullptr);
    EXPECT_DOUBLE_EQ(n->elements()[2].asDouble(), 3.0);
}

TEST(Json, RejectsGarbage)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("", v, &err));
    EXPECT_FALSE(json::parse("{", v, &err));
    EXPECT_FALSE(json::parse("{\"a\":}", v, &err));
    EXPECT_FALSE(json::parse("[1,2,]", v, &err));
    EXPECT_FALSE(json::parse("{} trailing", v, &err));
    EXPECT_FALSE(json::parse("nul", v, &err));
    EXPECT_FALSE(err.empty()) << "diagnostic expected";

    // The depth limit stops a pathological document, not the stack.
    std::string deep(10'000, '[');
    deep += std::string(10'000, ']');
    EXPECT_FALSE(json::parse(deep, v, &err));
}

TEST(Json, EscapeRoundTripsThroughParse)
{
    const std::string nasty = "line\nquote\"back\\slash\ttab";
    json::Value v;
    ASSERT_TRUE(json::parse(
        "{\"s\":\"" + json::escape(nasty) + "\"}", v));
    EXPECT_EQ(v.getString("s"), nasty);
}

// ---------------------------------------------------------------------
// Log rate limiting
// ---------------------------------------------------------------------

TEST(LogRateLimiter, BurstThenSuppression)
{
    // 1 msg/s sustained, burst of 3: the first 3 pass, the rest of a
    // tight loop are suppressed and counted.
    LogRateLimiter limiter(1.0, 3.0);
    unsigned allowed = 0;
    for (int i = 0; i < 50; ++i)
        allowed += limiter.allow() ? 1 : 0;
    EXPECT_EQ(allowed, 3u);
    EXPECT_EQ(limiter.suppressed(), 47u);
    EXPECT_EQ(limiter.takeSuppressed(), 47u);
    EXPECT_EQ(limiter.suppressed(), 0u);
}

// ---------------------------------------------------------------------
// Statusboard
// ---------------------------------------------------------------------

StatusSnapshot
fullSnapshot()
{
    StatusSnapshot s;
    s.role = "supervisor";
    s.label = "campaign";
    s.jobsTotal = 40;
    s.jobsDone = 25;
    s.jobsOk = 23;
    s.jobsFailed = 2;
    s.jobsRetried = 5;
    s.inFlight = {0xdeadbeefcafef00dull, 0x1ull};
    s.mips = 12.5;
    s.restarts = 3;
    s.etaSeconds = 42.25;
    s.finished = false;
    s.jobLatencyMs = {100, 1.5, 2.5, 9.0};
    s.fsyncLatencyMs = {100, 0.1, 0.2, 0.4};
    s.restartBackoffMs = {3, 100.0, 200.0, 400.0};
    s.stages = {{"simulate", 1.25, 10}, {"translate", 0.5, 10}};
    ShardStatus sh;
    sh.shard = 1;
    sh.total = 20;
    sh.done = 12;
    sh.restarts = 2;
    sh.active = true;
    sh.heartbeatAgeSeconds = 0.75;
    s.shards = {sh};
    return s;
}

TEST(Statusboard, SnapshotJsonRoundTrip)
{
    const StatusSnapshot s = fullSnapshot();
    const std::string text = s.toJson();

    // The document is well-formed JSON in the first place...
    json::Value v;
    ASSERT_TRUE(json::parse(text, v)) << text;

    // ...and every field survives the round trip.
    StatusSnapshot r;
    ASSERT_TRUE(StatusSnapshot::fromJson(text, r)) << text;
    EXPECT_EQ(r.role, "supervisor");
    EXPECT_EQ(r.label, "campaign");
    EXPECT_EQ(r.jobsTotal, 40u);
    EXPECT_EQ(r.jobsDone, 25u);
    EXPECT_EQ(r.jobsOk, 23u);
    EXPECT_EQ(r.jobsFailed, 2u);
    EXPECT_EQ(r.jobsRetried, 5u);
    ASSERT_EQ(r.inFlight.size(), 2u);
    EXPECT_EQ(r.inFlight[0], 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.inFlight[1], 0x1ull);
    EXPECT_NEAR(r.mips, 12.5, 1e-6);
    EXPECT_EQ(r.restarts, 3u);
    EXPECT_NEAR(r.etaSeconds, 42.25, 1e-6);
    EXPECT_FALSE(r.finished);
    EXPECT_EQ(r.jobLatencyMs.samples, 100u);
    EXPECT_NEAR(r.jobLatencyMs.p90, 2.5, 1e-6);
    EXPECT_EQ(r.restartBackoffMs.samples, 3u);
    ASSERT_EQ(r.shards.size(), 1u);
    EXPECT_EQ(r.shards[0].shard, 1u);
    EXPECT_EQ(r.shards[0].done, 12u);
    EXPECT_TRUE(r.shards[0].active);
    EXPECT_NEAR(r.shards[0].heartbeatAgeSeconds, 0.75, 1e-6);
}

TEST(Statusboard, RenderersKeepTheirBytes)
{
    // Literals captured from the renderers before Quantiles got its
    // own toJson()/toString(): campaign snapshots and BENCH entries
    // must not change a byte for the same values.
    const stats::Quantiles q{100, 1.5, 2.5, 9.0};
    EXPECT_EQ(q.toJson(),
              "{\"samples\":100,\"p50\":1.500000,\"p90\":2.500000,"
              "\"p99\":9.000000}");
    EXPECT_EQ(q.toString(), "p50=1.500 p90=2.500 p99=9.000");

    RunnerReport r;
    r.jobs = 7;
    r.threads = 2;
    r.wallSeconds = 1.25;
    r.busySeconds = 2.0;
    r.instructions = 123456789;
    r.okJobs = 5;
    r.failedJobs = 1;
    r.timedOutJobs = 1;
    r.degradedJobs = 1;
    r.retries = 2;
    r.skippedJobs = 1;
    r.interruptedJobs = 2;
    r.backoffSeconds = 0.375;
    r.workerCrashes = 1;
    r.workerRestarts = 2;
    r.translationCacheHits = 11;
    r.translationCacheMisses = 4;
    r.stages = {{"simulate", 1.5, 3}, {"translate", 0.25, 3}};
    for (std::uint64_t ns : {1000000u, 2000000u, 4000000u, 12345678u})
        r.taskLatencyNs.sample(ns);
    EXPECT_EQ(
        r.toJson("probe"),
        "{\"bench\":\"probe\",\"jobs\":7,\"threads\":2,"
        "\"wall_seconds\":1.250000,\"busy_seconds\":2.000000,"
        "\"instructions\":123456789,\"mips\":98.765,"
        "\"jobs_per_second\":5.600,\"speedup\":1.600,\"ok_jobs\":5,"
        "\"failed_jobs\":1,\"timed_out_jobs\":1,\"degraded_jobs\":1,"
        "\"retries\":2,\"skipped_jobs\":1,\"interrupted_jobs\":2,"
        "\"backoff_seconds\":0.375000,\"worker_crashes\":1,"
        "\"worker_restarts\":2,"
        "\"translation_cache_hits\":11,"
        "\"translation_cache_misses\":4,\"stages\":{\"simulate\":"
        "{\"seconds\":1.500000,\"count\":3},\"translate\":"
        "{\"seconds\":0.250000,\"count\":3}},\"task_latency_ms\":"
        "{\"samples\":4,\"p50\":2.097152,\"p90\":13.421773,"
        "\"p99\":16.441672}}");
    EXPECT_EQ(r.toString(),
              "7 jobs on 2 threads: 1.25s wall (2.00s busy), 98.8 MIPS, "
              "5.60 jobs/s, 1.60x vs 1 thread; robust: 5 ok, 1 failed, "
              "1 timed out, 1 degraded, 2 retries, 1 skipped, 2 "
              "interrupted, 0.375s backoff; supervisor: 1 worker "
              "crashes, 2 restarts; trans-meta cache: "
              "11 hits, 4 misses; stages: simulate=1.50s/3 "
              "translate=0.25s/3; task latency ms: p50=2.097 "
              "p90=13.422 p99=16.442");

    StatusSnapshot s = fullSnapshot();
    s.role = "campaign";
    s.pid = 4242;
    s.updateSeq = 9;
    s.uptimeSeconds = 3.5;
    EXPECT_EQ(
        s.toJson(),
        "{\"schema\":\"powerchop-status-v1\",\"role\":\"campaign\","
        "\"label\":\"campaign\",\"pid\":4242,\"update_seq\":9,"
        "\"uptime_seconds\":3.500000,\"jobs_total\":40,"
        "\"jobs_done\":25,\"jobs_ok\":23,\"jobs_failed\":2,"
        "\"jobs_retried\":5,\"in_flight\":[\"deadbeefcafef00d\","
        "\"0000000000000001\"],\"mips\":12.500000,\"restarts\":3,"
        "\"eta_seconds\":42.250000,\"finished\":false,"
        "\"job_latency_ms\":{\"samples\":100,\"p50\":1.500000,"
        "\"p90\":2.500000,\"p99\":9.000000},\"fsync_latency_ms\":"
        "{\"samples\":100,\"p50\":0.100000,\"p90\":0.200000,"
        "\"p99\":0.400000},\"restart_backoff_ms\":{\"samples\":3,"
        "\"p50\":100.000000,\"p90\":200.000000,\"p99\":400.000000},"
        "\"stages\":[{\"name\":\"simulate\",\"seconds\":1.250000,"
        "\"count\":10},{\"name\":\"translate\",\"seconds\":0.500000,"
        "\"count\":10}],\"shards\":[{\"shard\":1,\"total\":20,"
        "\"done\":12,\"restarts\":2,\"active\":true,"
        "\"heartbeat_age_seconds\":0.750000,\"failed\":false}]}");
}

TEST(Statusboard, FromJsonRejectsForeignDocuments)
{
    StatusSnapshot s;
    EXPECT_FALSE(StatusSnapshot::fromJson("not json", s));
    EXPECT_FALSE(StatusSnapshot::fromJson("{}", s))
        << "schema tag required";
    EXPECT_FALSE(StatusSnapshot::fromJson(
        "{\"schema\":\"something-else\"}", s));
    EXPECT_TRUE(StatusSnapshot::fromJson(
        "{\"schema\":\"powerchop-status-v1\"}", s))
        << "all data fields are optional";

    // A pid no int can hold reads as unknown (0) instead of going
    // through an out-of-range float-to-int conversion.
    for (const char *pid : {"1e300", "-1e300", "-5", "2147483648"}) {
        ASSERT_TRUE(StatusSnapshot::fromJson(
            std::string("{\"schema\":\"powerchop-status-v1\",\"pid\":") +
                pid + "}",
            s));
        EXPECT_EQ(s.pid, 0) << pid;
    }
    ASSERT_TRUE(StatusSnapshot::fromJson(
        "{\"schema\":\"powerchop-status-v1\",\"pid\":2147483647}", s));
    EXPECT_EQ(s.pid, 2147483647);
}

TEST(Statusboard, PublisherGatesOnCadenceUnlessForced)
{
    const std::string dir = freshDir("cadence");
    makeCampaignDirs(dir);
    // A cadence floor far above the test's runtime: only the first
    // unforced publish and the forced ones may write.
    StatusPublisher pub(dir + "/s.json", 3600.0);
    StatusSnapshot s;
    s.role = "campaign";
    EXPECT_TRUE(pub.publish(s));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(pub.publish(s));
    EXPECT_EQ(pub.published(), 1u);
    EXPECT_TRUE(pub.publish(s, /*force=*/true));
    EXPECT_EQ(pub.published(), 2u);

    StatusSnapshot r;
    ASSERT_TRUE(StatusSnapshot::fromJson(
        readFile(dir + "/s.json"), r));
    EXPECT_EQ(r.updateSeq, 2u) << "forced write is the one on disk";
    EXPECT_EQ(r.pid, ::getpid());
}

TEST(Statusboard, ConcurrentForcedWritersNeverTearTheFile)
{
    // N threads force-publishing the same path race the atomic
    // rename; a reader polling the file must parse a complete
    // snapshot on every single read.
    const std::string dir = freshDir("concurrent");
    makeCampaignDirs(dir);
    const std::string path = dir + "/s.json";
    StatusPublisher pub(path, 0.0);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> reads{0}, failures{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ifstream in(path, std::ios::binary);
            if (!in.good())
                continue; // Not yet published.
            std::ostringstream buf;
            buf << in.rdbuf();
            const std::string text = buf.str();
            if (text.empty())
                continue;
            StatusSnapshot snap;
            if (!StatusSnapshot::fromJson(text, snap))
                failures.fetch_add(1);
            reads.fetch_add(1);
        }
    });

    std::vector<std::thread> writers;
    for (unsigned t = 0; t < 4; ++t) {
        writers.emplace_back([&pub, t] {
            for (int i = 0; i < 200; ++i) {
                StatusSnapshot s = fullSnapshot();
                s.label = "writer-" + std::to_string(t);
                pub.publish(s, /*force=*/true);
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(failures.load(), 0u)
        << "a reader saw a torn/partial snapshot";
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(pub.published(), 800u);
}

TEST(Statusboard, ReadStatusDirOrdersAggregateFirst)
{
    const std::string dir = freshDir("readdir");
    makeCampaignDirs(statusDirPath(dir));
    StatusSnapshot s;
    s.role = "shard-worker";
    StatusPublisher(statusDirPath(dir) + "/shard-0001.json", 0)
        .publish(s, true);
    StatusPublisher(statusDirPath(dir) + "/shard-0000.json", 0)
        .publish(s, true);
    s.role = "supervisor";
    StatusPublisher(campaignStatusPath(dir), 0).publish(s, true);
    // A junk file must be surfaced as unparsed, not dropped.
    atomicWriteFile(statusDirPath(dir) + "/zz-junk.json",
                    "{\"schema\":\"nope\"}\n");

    const auto entries = readStatusDir(dir);
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].file, "campaign.json");
    EXPECT_EQ(entries[1].file, "shard-0000.json");
    EXPECT_EQ(entries[2].file, "shard-0001.json");
    EXPECT_EQ(entries[3].file, "zz-junk.json");
    EXPECT_TRUE(entries[0].parsed);
    EXPECT_EQ(entries[0].snap.role, "supervisor");
    EXPECT_FALSE(entries[3].parsed);
    EXPECT_GE(entries[0].ageSeconds, 0.0);

    // All three renderers accept the mixed directory.
    EXPECT_NE(renderStatusTable(entries).find("<unparseable>"),
              std::string::npos);
    json::Value v;
    EXPECT_TRUE(json::parse(renderStatusJson(dir, entries), v));
    const std::string prom = renderStatusPrometheus(entries);
    EXPECT_NE(prom.find("# TYPE powerchop_jobs_total gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("entry=\"shard-0000\""), std::string::npos);

    // An absent status dir is an empty listing, not an error.
    EXPECT_TRUE(readStatusDir(freshDir("no-such")).empty());
}

TEST(Statusboard, PublisherClampsUnstableEta)
{
    // Early in a run the ETA extrapolation can produce negative,
    // infinite or NaN estimates; the publisher is the single choke
    // point that clamps them to the -1 "unknown" sentinel. Inf/NaN
    // would otherwise render as invalid JSON ("inf"/"nan" tokens)
    // and turn the whole snapshot unparseable.
    const std::string dir = freshDir("eta");
    makeCampaignDirs(dir);
    const std::string path = dir + "/s.json";
    for (const double bad :
         {-3.0, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), std::nan("")}) {
        StatusPublisher pub(path, 0.0);
        StatusSnapshot s;
        s.role = "campaign";
        s.etaSeconds = bad;
        ASSERT_TRUE(pub.publish(s, /*force=*/true));
        StatusSnapshot r;
        ASSERT_TRUE(StatusSnapshot::fromJson(readFile(path), r))
            << "eta=" << bad << " must still produce valid JSON";
        EXPECT_EQ(r.etaSeconds, -1.0) << "eta=" << bad;
    }

    // A sane estimate passes through untouched.
    StatusPublisher pub(path, 0.0);
    StatusSnapshot s;
    s.role = "campaign";
    s.etaSeconds = 17.5;
    ASSERT_TRUE(pub.publish(s, /*force=*/true));
    StatusSnapshot r;
    ASSERT_TRUE(StatusSnapshot::fromJson(readFile(path), r));
    EXPECT_NEAR(r.etaSeconds, 17.5, 1e-6);
}

TEST(Statusboard, FromJsonNormalizesForeignEta)
{
    // Snapshots written by other (older/buggier) publishers get the
    // same normalization on the read side.
    StatusSnapshot s;
    ASSERT_TRUE(StatusSnapshot::fromJson(
        "{\"schema\":\"powerchop-status-v1\",\"eta_seconds\":-42}",
        s));
    EXPECT_EQ(s.etaSeconds, -1.0);
    ASSERT_TRUE(StatusSnapshot::fromJson(
        "{\"schema\":\"powerchop-status-v1\"}", s));
    EXPECT_EQ(s.etaSeconds, -1.0) << "absent means unknown";
}

TEST(Statusboard, UnknownEtaRendersUniformlyAcrossRenderers)
{
    StatusEntry e;
    e.file = "campaign.json";
    e.ageSeconds = 0.1;
    e.parsed = true;
    e.snap.role = "campaign";
    e.snap.jobsTotal = 10;
    e.snap.jobsDone = 1;
    e.snap.etaSeconds = -1.0;
    const std::vector<StatusEntry> entries = {e};

    // Table: the ETA column shows '?', never a raw negative number.
    const std::string table = renderStatusTable(entries);
    EXPECT_NE(table.find("?"), std::string::npos) << table;
    EXPECT_EQ(table.find("-1"), std::string::npos) << table;

    // --json embeds the clamped document (and stays parseable).
    e.snap.etaSeconds = -1.0;
    json::Value v;
    ASSERT_TRUE(json::parse(e.snap.toJson(), v));
    EXPECT_DOUBLE_EQ(v.getDouble("eta_seconds"), -1.0);

    // --prom exposes the gauge with the -1 sentinel so dashboards
    // can distinguish "unknown" from "almost done".
    const std::string prom = renderStatusPrometheus(entries);
    EXPECT_NE(prom.find("# TYPE powerchop_eta_seconds gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("powerchop_eta_seconds{entry=\"campaign\","
                        "role=\"campaign\"} -1.000000"),
              std::string::npos)
        << prom;
}

TEST(Statusboard, ServeStatsRoundTripAndRendering)
{
    StatusSnapshot s;
    s.role = "server";
    s.label = "powerchopd";
    s.serve.counters[ServeMetric::Requests] = 10;
    s.serve.counters[ServeMetric::Hits] = 7;
    s.serve.counters[ServeMetric::Misses] = 3;
    s.serve.counters[ServeMetric::Evictions] = 1;
    s.serve.counters[ServeMetric::Entries] = 4;
    s.serve.counters[ServeMetric::Bytes] = 2048;
    s.serve.gauges[ServeMetric::Qps] = 123.5;
    // No latency samples yet: the table cell must render the em
    // dash, not garbage quantiles of an empty histogram.
    s.serve.histograms[ServeMetric::RequestLatencyMs] = {};

    StatusSnapshot r;
    ASSERT_TRUE(StatusSnapshot::fromJson(s.toJson(), r));
    EXPECT_EQ(r.serve.counters[ServeMetric::Requests], 10u);
    EXPECT_EQ(r.serve.counters[ServeMetric::Hits], 7u);
    EXPECT_EQ(r.serve.counters[ServeMetric::Misses], 3u);
    EXPECT_EQ(r.serve.counters[ServeMetric::Evictions], 1u);
    EXPECT_EQ(r.serve.counters[ServeMetric::Entries], 4u);
    EXPECT_EQ(r.serve.counters[ServeMetric::Bytes], 2048u);
    EXPECT_NEAR(r.serve.gauges[ServeMetric::Qps], 123.5, 1e-6);

    StatusEntry e;
    e.file = "server.json";
    e.parsed = true;
    e.snap = s;
    std::string table = renderStatusTable({e});
    EXPECT_NE(table.find("serve: 10 req (7 hit / 3 miss)"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("—"), std::string::npos)
        << "empty latency histogram must render as an em dash: "
        << table;

    e.snap.serve.histograms[ServeMetric::RequestLatencyMs] = {10, 0.5,
                                                              1.5, 4.0};
    table = renderStatusTable({e});
    EXPECT_NE(table.find("p50=0.500"), std::string::npos) << table;

    const std::string prom = renderStatusPrometheus({e});
    EXPECT_NE(prom.find("powerchop_serve_hits{entry=\"server\","
                        "role=\"server\"} 7.000000"),
              std::string::npos)
        << prom;

    // Snapshots that never served a request must not grow a serve
    // block (byte-compat with pre-serve readers).
    StatusSnapshot plain;
    plain.role = "campaign";
    EXPECT_EQ(plain.toJson().find("\"serve\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderIgnoresEvents)
{
    FlightRecorder rec(8);
    rec.record(FlightEventType::Note, 1, "dropped");
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
    EXPECT_FALSE(rec.dumpNow());
}

TEST(FlightRecorder, RingKeepsNewestEventsInSeqOrder)
{
    const std::string dir = freshDir("ring");
    makeCampaignDirs(dir);
    FlightRecorder rec(8);
    rec.enable(dir + "/flight.jsonl");
    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(FlightEventType::JobStart, i, "j");
    rec.disable();

    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 8u) << "bounded by capacity";
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 12 + i) << "oldest first";
        EXPECT_EQ(events[i].key, 12 + i);
    }
    EXPECT_EQ(rec.recorded(), 20u);
}

TEST(FlightRecorder, EventJsonlParsesAndNamesTypes)
{
    FlightEvent e;
    e.seq = 7;
    e.monoSeconds = 1.5;
    e.type = FlightEventType::WorkerCrash;
    e.key = 0xabcull;
    e.detail = "shard 1: signal 9 \"Killed\"";
    json::Value v;
    ASSERT_TRUE(json::parse(e.toJsonl(), v)) << e.toJsonl();
    EXPECT_EQ(v.getString("type"), "worker-crash");
    EXPECT_EQ(v.getUint64("seq"), 7u);
    EXPECT_EQ(v.getString("key"), "0000000000000abc");
    EXPECT_EQ(v.getString("detail"), "shard 1: signal 9 \"Killed\"");

    // No event type may render an empty or duplicate name.
    std::set<std::string> names;
    for (int t = 0; t <= static_cast<int>(FlightEventType::Note);
         ++t) {
        const std::string name =
            flightEventTypeName(static_cast<FlightEventType>(t));
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

TEST(FlightRecorder, DumpOnFatalExactlyOnceThroughFlushHooks)
{
    const std::string dir = freshDir("dump");
    makeCampaignDirs(dir);
    const std::string path = dir + "/flight.jsonl";
    FlightRecorder rec(16);
    rec.enable(path);
    rec.record(FlightEventType::Retry, 5, "attempt 2: boom");
    rec.record(FlightEventType::Signal);

    // fatal() drains the flush hooks before throwing: the postmortem
    // file must exist by the time the exception is catchable.
    EXPECT_THROW(fatal("campaign exploded"), FatalError);
    ASSERT_TRUE(std::filesystem::exists(path));
    std::istringstream lines(readFile(path));
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
        json::Value v;
        EXPECT_TRUE(json::parse(line, v)) << line;
        ++parsed;
    }
    EXPECT_EQ(parsed, 2u);

    // The hook disarmed itself: a second drain with no new events
    // must not resurrect the file.
    std::filesystem::remove(path);
    EXPECT_THROW(fatal("again"), FatalError);
    EXPECT_FALSE(std::filesystem::exists(path))
        << "dump must happen exactly once per arming";

    // A new event re-arms it.
    rec.record(FlightEventType::Note, 0, "rearmed");
    drainFlushHooks();
    EXPECT_TRUE(std::filesystem::exists(path));
    rec.disable();
}

// ---------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------

WorkloadSpec
tinyWorkload(unsigned seed)
{
    WorkloadSpec w;
    w.name = "obswl-" + std::to_string(seed);
    w.seed = seed;
    PhaseSpec compute;
    compute.name = "compute";
    compute.simdFrac = 0.05;
    w.phases = {compute};
    w.schedule = {{0, 50'000}};
    return w;
}

TEST(CampaignStatus, PublishedSnapshotTracksTheRun)
{
    const std::string dir = freshDir("campaign");
    std::vector<SimJob> jobs;
    for (unsigned i = 1; i <= 3; ++i) {
        SimJob job;
        job.workload = tinyWorkload(i);
        job.machine = serverConfig();
        job.opts.maxInstructions = 30'000;
        jobs.push_back(std::move(job));
    }

    SimJobRunner runner(2);
    CampaignOptions copts;
    copts.publishStatus = true;
    const CampaignResult res = runCampaign(runner, jobs, dir, copts);
    EXPECT_TRUE(res.complete());

    // The final (forced) snapshot shows the finished campaign, with
    // job and fsync latency histograms populated.
    StatusSnapshot snap;
    ASSERT_TRUE(StatusSnapshot::fromJson(
        readFile(campaignStatusPath(dir)), snap));
    EXPECT_EQ(snap.role, "campaign");
    EXPECT_TRUE(snap.finished);
    EXPECT_EQ(snap.jobsTotal, 3u);
    EXPECT_EQ(snap.jobsDone, 3u);
    EXPECT_EQ(snap.jobsOk, 3u);
    EXPECT_EQ(snap.jobsFailed, 0u);
    EXPECT_TRUE(snap.inFlight.empty());
    EXPECT_GT(snap.mips, 0.0);
    EXPECT_EQ(snap.jobLatencyMs.samples, 3u);
    EXPECT_GT(snap.jobLatencyMs.p50, 0.0);
    EXPECT_GE(snap.fsyncLatencyMs.samples, 3u);

    // The runner report carries the same latency histogram.
    const stats::Quantiles q =
        runner.report().taskLatencyNs.quantiles(1e-6);
    EXPECT_EQ(q.samples, 3u);
    EXPECT_NE(runner.report().toJson("obs").find("task_latency_ms"),
              std::string::npos);
}

TEST(CampaignStatus, DisabledCampaignWritesNoStatusFiles)
{
    const std::string dir = freshDir("campaign-off");
    SimJob job;
    job.workload = tinyWorkload(1);
    job.machine = serverConfig();
    job.opts.maxInstructions = 30'000;

    SimJobRunner runner(1);
    CampaignOptions copts; // publishStatus defaults to false.
    const CampaignResult res =
        runCampaign(runner, {job}, dir, copts);
    EXPECT_TRUE(res.complete());
    EXPECT_FALSE(std::filesystem::exists(statusDirPath(dir)))
        << "status/ must not appear when observability is off";
}

} // namespace
