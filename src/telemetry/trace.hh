/**
 * @file
 * Structured gating-event tracing for the PowerChop simulator.
 *
 * A TraceRecorder is a per-run (and therefore per-job: one recorder
 * per simulate() call, never shared across threads) append-only buffer
 * of typed events, each stamped with the instruction count and cycle
 * time at which it occurred. The components of the gating stack emit
 * into it through observer hooks that are null by default, so a run
 * without a recorder attached pays nothing and produces bit-identical
 * results; a run with one attached also produces bit-identical
 * results, because recording never feeds back into simulation state.
 *
 * Recorded event classes (each gated by a TelemetryParams flag):
 *  - gate-state transitions of the VPU / BPU / MLC with their stall
 *    cycles (from the gating controller);
 *  - HTB window reports and phase-signature changes;
 *  - CDE activity: PVT hits, profiling starts/continues, policy
 *    installs and capacity-miss re-registrations;
 *  - QoS watchdog violations and safe-mode entry/exit;
 *  - fault-injector activations, one event per injected fault.
 *
 * Timestamps come exclusively from simulation state (instructions,
 * cycles) — never from wall clocks — so the same (config, workload,
 * seed) produces a byte-identical trace on any worker count.
 * chrome_trace.hh turns recorders into Chrome trace-event JSON that
 * opens directly in Perfetto / chrome://tracing.
 */

#ifndef POWERCHOP_TELEMETRY_TRACE_HH
#define POWERCHOP_TELEMETRY_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace powerchop
{
namespace telemetry
{

/** Telemetry configuration carried by MachineConfig. Only consulted
 *  when a recorder is actually attached to the run. */
struct TelemetryParams
{
    /** Hard cap on recorded events per run; once reached, further
     *  events are dropped (and counted) instead of growing the buffer
     *  without bound on pathological configs. */
    std::size_t maxEvents = 1u << 20;

    /** Per-class recording switches. @{ */
    bool traceGating = true;
    bool traceWindows = true;
    bool tracePhases = true;
    bool traceCde = true;
    bool traceQos = true;
    bool traceFaults = true;
    /** @} */

    /** fatal() on out-of-range values, naming the bad field.
     *  @param who Owner name used in the error message. */
    void validate(const std::string &who) const;
};

/** The three gateable units, as trace track identities. */
enum class GateUnit : std::uint8_t
{
    Vpu,
    Bpu,
    Mlc,
};

/** CDE decision classes distinguished in the trace. */
enum class CdeEvent : std::uint8_t
{
    PvtHit,       ///< PVT hit; policy applied in hardware.
    ProfileStart, ///< New phase began profiling.
    Profiling,    ///< Known phase still collecting windows.
    Install,      ///< Policy scored and registered with the PVT.
    Reregister,   ///< Capacity miss; stored policy re-registered.
};

/** Fault-injector activation classes. */
enum class FaultEvent : std::uint8_t
{
    PolicyCorrupt,
    HtbDrop,
    HtbAlias,
    ControllerFlip,
    WakeupStretch,
};

/** Typed event kinds stored in the buffer. */
enum class TraceEventKind : std::uint8_t
{
    GateVpu,      ///< a0 = new state (1 on / 0 gated), d = stall cyc.
    GateBpu,      ///< a0 = new state (1 on / 0 gated), d = stall cyc.
    GateMlc,      ///< a0 = MlcPolicy value, d = stall cycles.
    Window,       ///< a0 = window index, a1 = window insns, d = IPC.
    Phase,        ///< a0 = phase-signature hash.
    Cde,          ///< a0 = CdeEvent, a1 = policy encode (when known).
    QosViolation, ///< one slow window observed by the watchdog.
    SafeModeEnter,
    SafeModeExit,
    Fault,        ///< a0 = FaultEvent.
};

/** One recorded event. Payload meaning depends on `kind`. */
struct TraceEvent
{
    TraceEventKind kind;
    InsnCount insns = 0;
    Cycles cycles = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    double d = 0;
};

/**
 * Per-run event buffer.
 *
 * Lifecycle: beginRun() (called by simulate() when attached) stamps
 * the run's identity and resets the buffer; the components emit
 * through the typed helpers; endRun() records the final timestamp so
 * the exporter can close open state spans. A recorder is single-
 * threaded by construction — one per job — and merged traces are
 * ordered by job submission index at export time.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /** Reset the buffer and stamp the run's identity. */
    void beginRun(const std::string &workload,
                  const std::string &machine, const std::string &mode,
                  const TelemetryParams &params);

    /** Record the end-of-run timestamp. */
    void endRun(InsnCount insns, Cycles cycles);

    /** Advance the recorder's notion of "now"; every subsequent event
     *  is stamped with these values. Called by the simulator at
     *  translation heads (the resolution of PowerChop's gating) and
     *  at each timeout-mode VPU transition. */
    void
    setNow(InsnCount insns, Cycles cycles)
    {
        nowInsns_ = insns;
        nowCycles_ = cycles;
    }

    /** Advance only the cycle component of "now" by a stall that the
     *  emitting component just charged (nucleus interrupts, CDE work,
     *  gating transitions). Events recorded while a translation-head
     *  window is serviced would otherwise all carry the head's stamp;
     *  the components that know the stall but not the global
     *  instruction count use this to keep the trace clock honest.
     *  Negative deltas are ignored — the clock never rewinds. */
    void
    advanceCycles(double delta)
    {
        if (delta > 0)
            nowCycles_ += delta;
    }

    /** The recorder's current clock (for advancing components). @{ */
    InsnCount nowInsns() const { return nowInsns_; }
    Cycles nowCycles() const { return nowCycles_; }
    /** @} */

    /** Typed emitters; each checks its class switch and the cap. @{ */
    void gateState(GateUnit unit, std::uint64_t state,
                   double stall_cycles);
    void window(std::uint64_t index, InsnCount window_insns,
                double window_ipc);
    void phase(std::uint64_t signature_hash);
    void cde(CdeEvent what, std::uint8_t policy_bits);
    void qosViolation();
    void safeMode(bool enter);
    void fault(FaultEvent what);
    /** @} */

    /** Run identity and boundaries. @{ */
    const std::string &workload() const { return workload_; }
    const std::string &machine() const { return machine_; }
    const std::string &mode() const { return mode_; }
    InsnCount endInsns() const { return endInsns_; }
    Cycles endCycles() const { return endCycles_; }
    /** @} */

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events discarded after the maxEvents cap was hit. */
    std::uint64_t droppedEvents() const { return dropped_; }

  private:
    void push(TraceEventKind kind, std::uint64_t a0, std::uint64_t a1,
              double d);

    TelemetryParams params_;
    std::string workload_;
    std::string machine_;
    std::string mode_;
    std::vector<TraceEvent> events_;
    std::uint64_t dropped_ = 0;
    InsnCount nowInsns_ = 0;
    Cycles nowCycles_ = 0;
    InsnCount endInsns_ = 0;
    Cycles endCycles_ = 0;
};

/** @return display name of a gate unit ("VPU"/"BPU"/"MLC"). */
const char *gateUnitName(GateUnit u);

/** @return display name of a CDE event ("pvt-hit", "install", ...). */
const char *cdeEventName(CdeEvent e);

/** @return display name of a fault event ("policy-corrupt", ...). */
const char *faultEventName(FaultEvent e);

} // namespace telemetry
} // namespace powerchop

#endif // POWERCHOP_TELEMETRY_TRACE_HH
