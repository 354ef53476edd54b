#include "common/flight_recorder.hh"

#include <algorithm>
#include <cstring>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{

const char *
flightEventTypeName(FlightEventType t)
{
    switch (t) {
      case FlightEventType::JobStart:
        return "job-start";
      case FlightEventType::JobFinish:
        return "job-finish";
      case FlightEventType::Retry:
        return "retry";
      case FlightEventType::HeartbeatMiss:
        return "heartbeat-miss";
      case FlightEventType::WorkerSpawn:
        return "worker-spawn";
      case FlightEventType::WorkerExit:
        return "worker-exit";
      case FlightEventType::WorkerCrash:
        return "worker-crash";
      case FlightEventType::Restart:
        return "restart";
      case FlightEventType::Signal:
        return "signal";
      case FlightEventType::Note:
        return "note";
    }
    panic("unknown FlightEventType %d", static_cast<int>(t));
}

std::string
FlightEvent::toJsonl() const
{
    std::string s = csprintf(
        "{\"seq\":%llu,\"t\":%.6f,\"type\":\"%s\"",
        static_cast<unsigned long long>(seq), monoSeconds,
        flightEventTypeName(type));
    if (key != 0) {
        s += csprintf(",\"key\":\"%016llx\"",
                      static_cast<unsigned long long>(key));
    }
    if (!detail.empty())
        s += ",\"detail\":\"" + json::escape(detail) + "\"";
    s += "}";
    return s;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity ? capacity : 1)
{
}

FlightRecorder::~FlightRecorder()
{
    disable();
}

void
FlightRecorder::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(controlMutex_);
    path_ = path;
    if (flushHookId_ == 0) {
        flushHookId_ = registerFlushHook("flight-recorder",
                                         [this] { dumpNow(); });
    }
    enabled_.store(true, std::memory_order_release);
}

void
FlightRecorder::disable()
{
    std::lock_guard<std::mutex> lock(controlMutex_);
    enabled_.store(false, std::memory_order_relaxed);
    if (flushHookId_ != 0) {
        unregisterFlushHook(flushHookId_);
        flushHookId_ = 0;
    }
}

void
FlightRecorder::record(FlightEventType type, std::uint64_t key,
                       const std::string &detail)
{
    if (!enabled_.load(std::memory_order_relaxed))
        return;

    const std::uint64_t seq =
        nextSeq_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[seq % slots_.size()];

    // Seqlock-style publish: stamp 0 marks the slot mid-write, so a
    // concurrent snapshot skips it rather than reading torn text;
    // the release store of seq + 1 publishes the completed payload.
    slot.stamp.store(0, std::memory_order_release);
    slot.monoSeconds = monotonicSeconds();
    slot.type = type;
    slot.key = key;
    const std::size_t n =
        std::min(detail.size(), sizeof(slot.detail) - 1);
    std::memcpy(slot.detail, detail.data(), n);
    slot.detail[n] = '\0';
    slot.stamp.store(seq + 1, std::memory_order_release);

    // Arm the dump-on-exit hook: the ring has content worth a
    // postmortem. The drain disarms before running, so each dump
    // happens exactly once per batch of new events.
    armFlushHook(flushHookId_);
}

std::vector<FlightEvent>
FlightRecorder::snapshot() const
{
    std::vector<FlightEvent> events;
    events.reserve(slots_.size());
    for (const Slot &slot : slots_) {
        const std::uint64_t stamp1 =
            slot.stamp.load(std::memory_order_acquire);
        if (stamp1 == 0)
            continue;
        FlightEvent ev;
        ev.seq = stamp1 - 1;
        ev.monoSeconds = slot.monoSeconds;
        ev.type = slot.type;
        ev.key = slot.key;
        ev.detail = slot.detail;
        // Re-check the stamp: a writer that lapped the ring during
        // our read leaves a different (or zero) stamp behind, and
        // the torn payload is dropped.
        const std::uint64_t stamp2 =
            slot.stamp.load(std::memory_order_acquire);
        if (stamp2 != stamp1)
            continue;
        events.push_back(std::move(ev));
    }
    std::sort(events.begin(), events.end(),
              [](const FlightEvent &a, const FlightEvent &b) {
                  return a.seq < b.seq;
              });
    return events;
}

std::string
FlightRecorder::toJsonl() const
{
    std::string out;
    for (const FlightEvent &ev : snapshot())
        out += ev.toJsonl() + "\n";
    return out;
}

bool
FlightRecorder::dumpNow()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(controlMutex_);
        path = path_;
    }
    if (path.empty())
        return false;
    return atomicWriteFileOk(path, toJsonl());
}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

} // namespace powerchop
