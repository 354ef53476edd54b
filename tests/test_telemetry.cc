/**
 * @file
 * Tests for the telemetry subsystem: the trace recorder and its event
 * classes, the Chrome trace-event JSON exporter, trace determinism
 * across worker counts, the metrics registry and per-window
 * collector, and the wall-clock stage profiler.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "powerchop/powerchop.hh"

using namespace powerchop;
using namespace powerchop::telemetry;

namespace
{

/** A small two-phase workload whose compute phase has no SIMD work,
 *  so the CDE demonstrably gates the VPU once profiling completes. */
WorkloadSpec
smallWorkload(unsigned seed = 7)
{
    WorkloadSpec w;
    w.name = "telemetry-small-" + std::to_string(seed);
    w.seed = seed;
    PhaseSpec compute;
    compute.name = "compute";
    compute.simdFrac = 0.0;
    PhaseSpec memory;
    memory.name = "memory";
    memory.memFrac = 0.3;
    memory.mem.workingSetBytes = 256 * 1024;
    memory.mem.hotRegionFrac = 0.8;
    memory.mem.randomFrac = 0.5;
    w.phases = {compute, memory};
    w.schedule = {{0, 60'000}, {1, 90'000}};
    return w;
}

/** Count events of one kind in a recorder. */
std::size_t
countKind(const TraceRecorder &trace, TraceEventKind kind)
{
    std::size_t n = 0;
    for (const auto &e : trace.events())
        if (e.kind == kind)
            ++n;
    return n;
}

/**
 * Minimal structural JSON validation: every brace/bracket outside a
 * string literal must balance, and the document must be one object.
 * Not a full parser, but catches unterminated strings, trailing
 * garbage and mismatched nesting — the failure modes of a
 * hand-rolled emitter.
 */
bool
jsonBalanced(const std::string &doc)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (char c : doc) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': stack.push_back('}'); break;
          case '[': stack.push_back(']'); break;
          case '}':
          case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !in_string;
}

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

} // namespace

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorder, RecordsTypedEventsWithCurrentTimestamps)
{
    TraceRecorder trace;
    trace.beginRun("w", "m", "powerchop", TelemetryParams{});

    trace.setNow(100, 250.5);
    trace.gateState(GateUnit::Vpu, 0, 530.0);
    trace.setNow(200, 500.0);
    trace.window(1, 100, 0.4);
    trace.phase(0xdeadbeef);
    trace.cde(CdeEvent::Install, 0b101);
    trace.qosViolation();
    trace.safeMode(true);
    trace.safeMode(false);
    trace.fault(FaultEvent::HtbDrop);
    trace.endRun(250, 600.0);

    ASSERT_EQ(trace.events().size(), 8u);
    const auto &gate = trace.events()[0];
    EXPECT_EQ(gate.kind, TraceEventKind::GateVpu);
    EXPECT_EQ(gate.insns, 100u);
    EXPECT_DOUBLE_EQ(gate.cycles, 250.5);
    EXPECT_EQ(gate.a0, 0u);
    EXPECT_DOUBLE_EQ(gate.d, 530.0);

    const auto &win = trace.events()[1];
    EXPECT_EQ(win.kind, TraceEventKind::Window);
    EXPECT_EQ(win.insns, 200u);
    EXPECT_EQ(win.a0, 1u);
    EXPECT_EQ(win.a1, 100u);
    EXPECT_DOUBLE_EQ(win.d, 0.4);

    EXPECT_EQ(trace.events()[2].a0, 0xdeadbeefu);
    EXPECT_EQ(trace.events()[3].a1, 0b101u);
    EXPECT_EQ(trace.events()[5].kind, TraceEventKind::SafeModeEnter);
    EXPECT_EQ(trace.events()[6].kind, TraceEventKind::SafeModeExit);
    EXPECT_EQ(trace.events()[7].kind, TraceEventKind::Fault);

    EXPECT_EQ(trace.workload(), "w");
    EXPECT_EQ(trace.machine(), "m");
    EXPECT_EQ(trace.mode(), "powerchop");
    EXPECT_EQ(trace.endInsns(), 250u);
    EXPECT_DOUBLE_EQ(trace.endCycles(), 600.0);
    EXPECT_EQ(trace.droppedEvents(), 0u);
}

TEST(TraceRecorder, ClassSwitchesFilterEvents)
{
    TelemetryParams params;
    params.traceGating = false;
    params.traceQos = false;

    TraceRecorder trace;
    trace.beginRun("w", "m", "powerchop", params);
    trace.gateState(GateUnit::Bpu, 1, 0.0);
    trace.qosViolation();
    trace.safeMode(true);
    trace.window(1, 10, 1.0);

    ASSERT_EQ(trace.events().size(), 1u);
    EXPECT_EQ(trace.events()[0].kind, TraceEventKind::Window);
}

TEST(TraceRecorder, CapDropsAndCounts)
{
    TelemetryParams params;
    params.maxEvents = 3;

    TraceRecorder trace;
    trace.beginRun("w", "m", "powerchop", params);
    for (unsigned i = 0; i < 5; ++i)
        trace.window(i, 10, 1.0);

    EXPECT_EQ(trace.events().size(), 3u);
    EXPECT_EQ(trace.droppedEvents(), 2u);
}

TEST(TraceRecorder, BeginRunResetsBuffer)
{
    TraceRecorder trace;
    trace.beginRun("a", "m", "powerchop", TelemetryParams{});
    trace.window(1, 10, 1.0);
    trace.beginRun("b", "m", "powerchop", TelemetryParams{});
    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(trace.workload(), "b");
}

TEST(TraceRecorder, ParamsValidateRejectsZeroCap)
{
    TelemetryParams params;
    params.maxEvents = 0;
    EXPECT_THROW(params.validate("test"), FatalError);
}

TEST(Telemetry, JsonEscape)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb"), "a\\nb");
    EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(json::escape("a\rb"), "a\\u000db");
}

TEST(Telemetry, EnumNames)
{
    EXPECT_STREQ(gateUnitName(GateUnit::Vpu), "VPU");
    EXPECT_STREQ(gateUnitName(GateUnit::Mlc), "MLC");
    EXPECT_STREQ(cdeEventName(CdeEvent::PvtHit), "pvt-hit");
    EXPECT_STREQ(faultEventName(FaultEvent::PolicyCorrupt),
                 "policy-corrupt");
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTrace, EmitsStructurallyValidJson)
{
    TraceRecorder trace;
    trace.beginRun("wl \"quoted\"", "server", "powerchop",
                   TelemetryParams{});
    trace.setNow(100, 1000);
    trace.gateState(GateUnit::Vpu, 0, 530.0);
    trace.gateState(GateUnit::Bpu, 0, 20.0);
    trace.gateState(GateUnit::Mlc, 0b01, 50.0);
    trace.window(1, 100, 0.5);
    trace.endRun(200, 2000);

    const std::string doc = chromeTraceJson(trace);
    EXPECT_TRUE(jsonBalanced(doc));
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // The run's process is named after its identity, escaped.
    EXPECT_NE(doc.find("wl \\\"quoted\\\" on server [powerchop]"),
              std::string::npos);
    // All three unit tracks are declared...
    EXPECT_NE(doc.find("\"VPU gate\""), std::string::npos);
    EXPECT_NE(doc.find("\"BPU gate\""), std::string::npos);
    EXPECT_NE(doc.find("\"MLC ways\""), std::string::npos);
    // ...and each carries gate-state spans.
    EXPECT_NE(doc.find("\"name\":\"gated\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"half\""), std::string::npos);
    EXPECT_NE(doc.find("\"stall_cycles\""), std::string::npos);
}

TEST(ChromeTrace, SkipsNullRunsAndMergesMultiple)
{
    TraceRecorder a, b;
    a.beginRun("first", "m", "powerchop", TelemetryParams{});
    a.endRun(10, 100);
    b.beginRun("second", "m", "powerchop", TelemetryParams{});
    b.endRun(10, 100);

    const std::string doc = chromeTraceJson({&a, nullptr, &b});
    EXPECT_TRUE(jsonBalanced(doc));
    EXPECT_NE(doc.find("first"), std::string::npos);
    EXPECT_NE(doc.find("second"), std::string::npos);
    // Distinct pids; the null slot keeps its pid so run indices stay
    // stable across partial batches.
    EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
    EXPECT_EQ(doc.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":3"), std::string::npos);
}

// --- Simulation integration --------------------------------------------------

TEST(TelemetryIntegration, PowerChopRunRecordsGatingActivity)
{
    TraceRecorder trace;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 400'000;
    opts.trace = &trace;
    simulate(serverConfig(), smallWorkload(), opts);

    // The zero-SIMD compute phase must gate the VPU at least once.
    EXPECT_GT(countKind(trace, TraceEventKind::GateVpu), 0u);
    // Windows and phases always report.
    EXPECT_GT(countKind(trace, TraceEventKind::Window), 0u);
    EXPECT_GT(countKind(trace, TraceEventKind::Phase), 0u);
    // CDE decisions were recorded.
    EXPECT_GT(countKind(trace, TraceEventKind::Cde), 0u);
    EXPECT_EQ(trace.mode(), "powerchop");
    EXPECT_GT(trace.endInsns(), 0u);

    // The export renders cleanly with spans for all three units.
    const std::string doc = chromeTraceJson(trace);
    EXPECT_TRUE(jsonBalanced(doc));
    EXPECT_NE(doc.find("\"VPU gate\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"gated\""), std::string::npos);
}

TEST(TelemetryIntegration, TracingDoesNotPerturbResults)
{
    const WorkloadSpec w = smallWorkload();
    SimOptions plain;
    plain.mode = SimMode::PowerChop;
    plain.maxInstructions = 300'000;
    const SimResult base = simulate(serverConfig(), w, plain);

    TraceRecorder trace;
    MetricsRegistry metrics;
    SimOptions instrumented = plain;
    instrumented.trace = &trace;
    instrumented.metrics = &metrics;
    const SimResult traced = simulate(serverConfig(), w, instrumented);

    EXPECT_EQ(base.toJson(), traced.toJson());
    EXPECT_EQ(base.cycles, traced.cycles);
    EXPECT_EQ(base.instructions, traced.instructions);
    EXPECT_FALSE(trace.events().empty());
    EXPECT_FALSE(metrics.rows().empty());
}

TEST(TelemetryIntegration, TraceBytesIdenticalAcrossWorkerCounts)
{
    // The acceptance bar of the tracing design: the merged trace of a
    // batch is byte-identical no matter how many workers ran it.
    const InsnCount insns = 150'000;
    auto run_batch = [&](unsigned threads,
                         std::vector<TraceRecorder> &traces) {
        std::vector<SimJob> jobs;
        for (unsigned seed = 1; seed <= 4; ++seed) {
            SimJob job;
            job.machine = seed % 2 ? serverConfig() : mobileConfig();
            job.workload = smallWorkload(seed);
            job.opts.mode = SimMode::PowerChop;
            job.opts.maxInstructions = insns;
            job.opts.trace = &traces[seed - 1];
            jobs.push_back(std::move(job));
        }
        SimJobRunner runner(threads);
        runner.run(jobs);
        std::vector<const TraceRecorder *> ptrs;
        for (const auto &t : traces)
            ptrs.push_back(&t);
        return chromeTraceJson(ptrs);
    };

    std::vector<TraceRecorder> serial_traces(4), parallel_traces(4);
    const std::string serial = run_batch(1, serial_traces);
    const std::string parallel = run_batch(3, parallel_traces);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, RowsHoldAppendedValues)
{
    MetricsRegistry reg;
    reg.setColumns({"x", "twice_x"});
    reg.addRow(1, 100, 250.0, {1.5, 3.0});
    reg.addRow(2, 200, 500.0, {3.0, 6.0});

    ASSERT_EQ(reg.columnNames().size(), 2u);
    ASSERT_EQ(reg.rows().size(), 2u);
    EXPECT_EQ(reg.columnIndex("twice_x"), 1u);
    EXPECT_DOUBLE_EQ(reg.value(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(reg.value(1, 1), 6.0);
    EXPECT_EQ(reg.rows()[1].window, 2u);
    EXPECT_EQ(reg.rows()[1].instructions, 200u);
    EXPECT_DOUBLE_EQ(reg.rows()[1].cycles, 500.0);

    // A row holds exactly one value per column.
    EXPECT_THROW(reg.addRow(3, 300, 750.0, {1.0}), PanicError);
    EXPECT_THROW(MetricsRegistry().addRow(1, 10, 10.0, {}), PanicError);
}

TEST(MetricsRegistry, SchemaFreezesAtFirstSnapshot)
{
    MetricsRegistry reg;
    reg.setColumns({"a"});
    reg.addRow(1, 10, 10.0, {1.0});
    EXPECT_THROW(reg.setColumns({"a", "b"}), PanicError);
}

TEST(MetricsRegistry, RejectsDuplicateColumns)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.setColumns({"a", "b", "a"}), PanicError);
}

TEST(MetricsRegistry, ColumnIndexPanicsWhenAbsent)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.columnIndex("nope"), PanicError);
}

TEST(MetricsRegistry, CsvAndJsonlRender)
{
    MetricsRegistry reg;
    reg.setColumns({"ipc"});
    reg.addRow(1, 100, 400.0, {0.5});

    EXPECT_EQ(reg.toCsv(),
              "window,instructions,cycles,ipc\n1,100,400,0.5\n");
    const std::string jsonl = reg.toJsonl();
    EXPECT_TRUE(jsonBalanced(jsonl));
    EXPECT_NE(jsonl.find("\"window\":1"), std::string::npos);
    EXPECT_NE(jsonl.find("\"ipc\":0.5"), std::string::npos);
}

TEST(MetricsCollector, SimulationProducesCanonicalSeries)
{
    MetricsRegistry reg;
    SimOptions opts;
    opts.mode = SimMode::PowerChop;
    opts.maxInstructions = 300'000;
    opts.metrics = &reg;
    const SimResult res = simulate(serverConfig(), smallWorkload(),
                                   opts);

    ASSERT_FALSE(reg.rows().empty());
    for (const char *col :
         {"window_instructions", "window_ipc", "crit_vpu", "crit_bpu",
          "crit_mlc", "mispred_large", "vpu_on", "mlc_active_frac",
          "vpu_leakage_j"}) {
        EXPECT_NO_THROW(reg.columnIndex(col)) << col;
    }

    // Every row is fully populated and windows count up from 1.
    const std::size_t cols = reg.columnNames().size();
    for (std::size_t i = 0; i < reg.rows().size(); ++i) {
        EXPECT_EQ(reg.rows()[i].values.size(), cols);
        EXPECT_EQ(reg.rows()[i].window, i + 1);
    }

    // Aggregate sanity: summed window instructions equal the run's.
    double summed = 0;
    const std::size_t wi = reg.columnIndex("window_instructions");
    for (std::size_t i = 0; i < reg.rows().size(); ++i)
        summed += reg.value(i, wi);
    EXPECT_LE(summed, static_cast<double>(res.instructions));
    EXPECT_GT(summed, 0.0);
}

// --- StageProfiler -----------------------------------------------------------

TEST(StageProfiler, DisabledRecordsNothing)
{
    StageProfiler prof(false);
    prof.record(Stage::Simulate, 1.0);
    EXPECT_TRUE(prof.snapshot().empty());
}

TEST(StageProfiler, AccumulatesPerStageSortedByName)
{
    StageProfiler prof(true);
    prof.record(Stage::Simulate, 1.0);
    prof.record(Stage::Simulate, 0.5);
    prof.record(Stage::Retry, 0.25);

    const auto stages = prof.snapshot();
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].name, "retry");
    EXPECT_EQ(stages[0].count, 1u);
    EXPECT_EQ(stages[1].name, "simulate");
    EXPECT_DOUBLE_EQ(stages[1].seconds, 1.5);
    EXPECT_EQ(stages[1].count, 2u);

    prof.reset();
    EXPECT_TRUE(prof.snapshot().empty());
}

TEST(StageProfiler, ScopedTimerToleratesNullAndStops)
{
    ScopedStageTimer null_timer(nullptr, Stage::Decode); // Must not crash.
    null_timer.stop();

    StageProfiler prof(true);
    {
        ScopedStageTimer t(&prof, Stage::Translate);
        t.stop();
        t.stop(); // Idempotent: records once.
    }
    const auto stages = prof.snapshot();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].count, 1u);
    EXPECT_GE(stages[0].seconds, 0.0);
}

TEST(StageProfiler, EnabledByEnvParsesKnob)
{
    {
        ScopedEnv env("POWERCHOP_PROFILE", "1");
        EXPECT_TRUE(StageProfiler::enabledByEnv());
    }
    {
        ScopedEnv env("POWERCHOP_PROFILE", "0");
        EXPECT_FALSE(StageProfiler::enabledByEnv());
    }
    {
        ScopedEnv env("POWERCHOP_PROFILE", nullptr);
        EXPECT_FALSE(StageProfiler::enabledByEnv());
    }
}
