#include "telemetry/chrome_trace.hh"

#include <cstdio>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{
namespace telemetry
{

namespace
{

// Track ("thread") ids inside one run's process.
constexpr int tidVpu = 1;
constexpr int tidBpu = 2;
constexpr int tidMlc = 3;
constexpr int tidPhase = 4;
constexpr int tidWindow = 5;
constexpr int tidCde = 6;
constexpr int tidQos = 7;
constexpr int tidFault = 8;

/** Display name of a gate-state value on a unit track. */
const char *
stateName(TraceEventKind kind, std::uint64_t state)
{
    if (kind == TraceEventKind::GateMlc) {
        // Raw MlcPolicy encodings (core/policy.hh).
        switch (state) {
          case 0b11:
            return "all";
          case 0b10:
            return "quarter";
          case 0b01:
            return "half";
          default:
            return "1-way";
        }
    }
    return state ? "on" : "gated";
}

/** Emitter that joins trace-event objects with commas. */
class EventSink
{
  public:
    explicit EventSink(std::string &out) : out_(out) {}

    void
    add(const std::string &object)
    {
        if (!first_)
            out_ += ",\n";
        first_ = false;
        out_ += object;
    }

  private:
    std::string &out_;
    bool first_ = true;
};

/** One open span on a track, closed at the next state change. */
struct OpenSpan
{
    bool open = false;
    double startUs = 0;
    std::string name;
    std::string args; ///< Pre-rendered args object ("" = none).
};

void
closeSpan(EventSink &sink, int pid, int tid, OpenSpan &span,
          double end_us)
{
    if (!span.open)
        return;
    span.open = false;
    if (end_us <= span.startUs)
        return; // zero-width span (e.g. a policy applied at cycle 0)
    std::string ev = csprintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f",
        span.name.c_str(), pid, tid, span.startUs,
        end_us - span.startUs);
    if (!span.args.empty())
        ev += ",\"args\":" + span.args;
    ev += "}";
    sink.add(ev);
}

void
openSpan(OpenSpan &span, double start_us, std::string name,
         std::string args = "")
{
    span.open = true;
    span.startUs = start_us;
    span.name = std::move(name);
    span.args = std::move(args);
}

std::string
instant(const char *name, int pid, int tid, double ts_us,
        const std::string &args = "")
{
    std::string ev = csprintf(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
        "\"tid\":%d,\"ts\":%.3f",
        name, pid, tid, ts_us);
    if (!args.empty())
        ev += ",\"args\":" + args;
    ev += "}";
    return ev;
}

std::string
metadata(const char *kind, int pid, int tid, const std::string &name)
{
    return csprintf("{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                    kind, pid, tid, json::escape(name).c_str());
}

void
exportRun(EventSink &sink, int pid, const TraceRecorder &run)
{
    const std::string title = run.workload() + " on " + run.machine() +
                              " [" + run.mode() + "]";
    sink.add(metadata("process_name", pid, 0, title));
    sink.add(metadata("thread_name", pid, tidVpu, "VPU gate"));
    sink.add(metadata("thread_name", pid, tidBpu, "BPU gate"));
    sink.add(metadata("thread_name", pid, tidMlc, "MLC ways"));
    sink.add(metadata("thread_name", pid, tidPhase, "phase"));
    sink.add(metadata("thread_name", pid, tidWindow, "windows"));
    sink.add(metadata("thread_name", pid, tidCde, "CDE"));
    sink.add(metadata("thread_name", pid, tidQos, "QoS"));
    sink.add(metadata("thread_name", pid, tidFault, "faults"));

    // Every unit starts the run full-power (the controller's initial
    // state); a mode that immediately applies another policy emits
    // transition events at cycle 0 which replace these zero-width
    // spans.
    OpenSpan vpu, bpu, mlc, phase, safe;
    openSpan(vpu, 0, "on");
    openSpan(bpu, 0, "on");
    openSpan(mlc, 0, "all");

    std::uint64_t cur_phase = 0;
    bool have_phase = false;

    for (const TraceEvent &ev : run.events()) {
        const double ts = ev.cycles; // 1 cycle == 1 us of trace time
        switch (ev.kind) {
          case TraceEventKind::GateVpu:
          case TraceEventKind::GateBpu:
          case TraceEventKind::GateMlc: {
            OpenSpan *span = &vpu;
            int tid = tidVpu;
            if (ev.kind == TraceEventKind::GateBpu) {
                span = &bpu;
                tid = tidBpu;
            } else if (ev.kind == TraceEventKind::GateMlc) {
                span = &mlc;
                tid = tidMlc;
            }
            closeSpan(sink, pid, tid, *span, ts);
            openSpan(*span, ts, stateName(ev.kind, ev.a0),
                     csprintf("{\"stall_cycles\":%.3f}", ev.d));
            break;
          }
          case TraceEventKind::Window:
            sink.add(instant(
                "window", pid, tidWindow, ts,
                csprintf("{\"index\":%llu,\"instructions\":%llu,"
                         "\"ipc\":%.6g}",
                         static_cast<unsigned long long>(ev.a0),
                         static_cast<unsigned long long>(ev.a1),
                         ev.d)));
            sink.add(csprintf("{\"name\":\"window IPC\",\"ph\":\"C\","
                              "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                              "\"args\":{\"ipc\":%.6g}}",
                              pid, tidWindow, ts, ev.d));
            break;
          case TraceEventKind::Phase:
            if (!have_phase || ev.a0 != cur_phase) {
                closeSpan(sink, pid, tidPhase, phase, ts);
                openSpan(phase, ts,
                         csprintf("phase-%llx",
                                  static_cast<unsigned long long>(
                                      ev.a0)));
                cur_phase = ev.a0;
                have_phase = true;
            }
            break;
          case TraceEventKind::Cde: {
            const CdeEvent what = static_cast<CdeEvent>(ev.a0);
            std::string args;
            if (what == CdeEvent::PvtHit ||
                what == CdeEvent::Install ||
                what == CdeEvent::Reregister) {
                args = csprintf(
                    "{\"policy\":\"0x%llx\"}",
                    static_cast<unsigned long long>(ev.a1));
            }
            sink.add(instant(cdeEventName(what), pid, tidCde, ts,
                             args));
            break;
          }
          case TraceEventKind::QosViolation:
            sink.add(instant("violation", pid, tidQos, ts));
            break;
          case TraceEventKind::SafeModeEnter:
            closeSpan(sink, pid, tidQos, safe, ts);
            openSpan(safe, ts, "safe-mode");
            break;
          case TraceEventKind::SafeModeExit:
            closeSpan(sink, pid, tidQos, safe, ts);
            break;
          case TraceEventKind::Fault:
            sink.add(instant(
                faultEventName(static_cast<FaultEvent>(ev.a0)), pid,
                tidFault, ts));
            break;
        }
    }

    const double end_ts = run.endCycles();
    closeSpan(sink, pid, tidVpu, vpu, end_ts);
    closeSpan(sink, pid, tidBpu, bpu, end_ts);
    closeSpan(sink, pid, tidMlc, mlc, end_ts);
    closeSpan(sink, pid, tidPhase, phase, end_ts);
    closeSpan(sink, pid, tidQos, safe, end_ts);

    if (run.droppedEvents() > 0) {
        sink.add(instant(
            "dropped-events", pid, tidWindow, end_ts,
            csprintf("{\"count\":%llu}",
                     static_cast<unsigned long long>(
                         run.droppedEvents()))));
    }
}

} // namespace

std::string
chromeTraceJson(const std::vector<const TraceRecorder *> &runs)
{
    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",";
    out += "\"otherData\":{\"generator\":\"powerchop\","
           "\"cycles_per_us\":1},";
    out += "\"traceEvents\":[\n";

    EventSink sink(out);
    int pid = 0;
    for (const TraceRecorder *run : runs) {
        ++pid;
        if (run)
            exportRun(sink, pid, *run);
    }

    out += "\n]}\n";
    return out;
}

std::string
chromeTraceJson(const TraceRecorder &run)
{
    return chromeTraceJson(std::vector<const TraceRecorder *>{&run});
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const TraceRecorder *> &runs)
{
    // Crash-safe replace: a trace viewer pointed at the path never
    // loads a half-written JSON array.
    return atomicWriteFileOk(path, chromeTraceJson(runs));
}

} // namespace telemetry
} // namespace powerchop
