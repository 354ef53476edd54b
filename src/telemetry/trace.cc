#include "telemetry/trace.hh"

#include "common/logging.hh"

namespace powerchop
{
namespace telemetry
{

void
TelemetryParams::validate(const std::string &who) const
{
    if (maxEvents == 0)
        fatal("%s: telemetry.maxEvents must be non-zero", who.c_str());
}

void
TraceRecorder::beginRun(const std::string &workload,
                        const std::string &machine,
                        const std::string &mode,
                        const TelemetryParams &params)
{
    params_ = params;
    workload_ = workload;
    machine_ = machine;
    mode_ = mode;
    events_.clear();
    dropped_ = 0;
    nowInsns_ = 0;
    nowCycles_ = 0;
    endInsns_ = 0;
    endCycles_ = 0;
}

void
TraceRecorder::endRun(InsnCount insns, Cycles cycles)
{
    endInsns_ = insns;
    endCycles_ = cycles;
}

void
TraceRecorder::push(TraceEventKind kind, std::uint64_t a0,
                    std::uint64_t a1, double d)
{
    if (events_.size() >= params_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back({kind, nowInsns_, nowCycles_, a0, a1, d});
}

void
TraceRecorder::gateState(GateUnit unit, std::uint64_t state,
                         double stall_cycles)
{
    if (!params_.traceGating)
        return;
    TraceEventKind kind;
    switch (unit) {
      case GateUnit::Vpu:
        kind = TraceEventKind::GateVpu;
        break;
      case GateUnit::Bpu:
        kind = TraceEventKind::GateBpu;
        break;
      case GateUnit::Mlc:
        kind = TraceEventKind::GateMlc;
        break;
      default:
        panic("gateState: unknown unit %d", static_cast<int>(unit));
    }
    push(kind, state, 0, stall_cycles);
}

void
TraceRecorder::window(std::uint64_t index, InsnCount window_insns,
                      double window_ipc)
{
    if (params_.traceWindows)
        push(TraceEventKind::Window, index, window_insns, window_ipc);
}

void
TraceRecorder::phase(std::uint64_t signature_hash)
{
    if (params_.tracePhases)
        push(TraceEventKind::Phase, signature_hash, 0, 0);
}

void
TraceRecorder::cde(CdeEvent what, std::uint8_t policy_bits)
{
    if (params_.traceCde) {
        push(TraceEventKind::Cde, static_cast<std::uint64_t>(what),
             policy_bits, 0);
    }
}

void
TraceRecorder::qosViolation()
{
    if (params_.traceQos)
        push(TraceEventKind::QosViolation, 0, 0, 0);
}

void
TraceRecorder::safeMode(bool enter)
{
    if (params_.traceQos) {
        push(enter ? TraceEventKind::SafeModeEnter
                   : TraceEventKind::SafeModeExit,
             0, 0, 0);
    }
}

void
TraceRecorder::fault(FaultEvent what)
{
    if (params_.traceFaults)
        push(TraceEventKind::Fault, static_cast<std::uint64_t>(what),
             0, 0);
}

const char *
gateUnitName(GateUnit u)
{
    switch (u) {
      case GateUnit::Vpu:
        return "VPU";
      case GateUnit::Bpu:
        return "BPU";
      case GateUnit::Mlc:
        return "MLC";
    }
    panic("unknown GateUnit %d", static_cast<int>(u));
}

const char *
cdeEventName(CdeEvent e)
{
    switch (e) {
      case CdeEvent::PvtHit:
        return "pvt-hit";
      case CdeEvent::ProfileStart:
        return "profile-start";
      case CdeEvent::Profiling:
        return "profiling";
      case CdeEvent::Install:
        return "install";
      case CdeEvent::Reregister:
        return "reregister";
    }
    panic("unknown CdeEvent %d", static_cast<int>(e));
}

const char *
faultEventName(FaultEvent e)
{
    switch (e) {
      case FaultEvent::PolicyCorrupt:
        return "policy-corrupt";
      case FaultEvent::HtbDrop:
        return "htb-drop";
      case FaultEvent::HtbAlias:
        return "htb-alias";
      case FaultEvent::ControllerFlip:
        return "controller-flip";
      case FaultEvent::WakeupStretch:
        return "wakeup-stretch";
    }
    panic("unknown FaultEvent %d", static_cast<int>(e));
}

} // namespace telemetry
} // namespace powerchop
