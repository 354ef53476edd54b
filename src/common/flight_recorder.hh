/**
 * @file
 * The crash flight recorder: a lock-free bounded ring of recent
 * structured events, dumped to disk on abnormal exit.
 *
 * A crashed or wedged campaign leaves a report.json and journals, but
 * those say *what* completed, not *what was happening*: which jobs
 * were in flight, which worker had just missed heartbeats, whether a
 * retry storm preceded the death. The flight recorder keeps the last
 * N such events in a fixed ring (old events overwritten, no
 * allocation, no lock on the record path) and writes them as JSONL
 * through the logging flush-hook registry — the same exit path that
 * drains the journal — so every fatal()/panic()/signal exit leaves a
 * postmortem `flight.jsonl` beside the campaign state.
 *
 * Writers claim a slot with one fetch_add and publish it
 * seqlock-style (stamp cleared before the fill, set after), so a
 * concurrent dump skips slots mid-write instead of reading torn
 * text. record() is wait-free and safe from any thread; it is NOT
 * async-signal-safe, so signal handlers must keep raising flags (as
 * they do) and let the drain happen on the normal exit path.
 *
 * Disabled (the default) the recorder ignores record() at the cost
 * of one relaxed load, so simulation-layer call sites can stay
 * unconditional.
 */

#ifndef POWERCHOP_COMMON_FLIGHT_RECORDER_HH
#define POWERCHOP_COMMON_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace powerchop
{

/** What kind of moment a flight event records. */
enum class FlightEventType : std::uint8_t
{
    JobStart,      ///< A job began executing.
    JobFinish,     ///< A job reached a terminal state.
    Retry,         ///< A transient job failed and will re-attempt.
    HeartbeatMiss, ///< A worker went silent past the hang window.
    WorkerSpawn,   ///< A shard worker process was spawned.
    WorkerExit,    ///< A shard worker exited cleanly.
    WorkerCrash,   ///< A shard worker died (signal / error exit).
    Restart,       ///< A crashed shard is being restarted.
    Signal,        ///< An interrupt was observed (drain requested).
    Note,          ///< Anything else worth a line in the postmortem.
};

/** @return the JSONL type tag of an event type ("job-start", ...). */
const char *flightEventTypeName(FlightEventType t);

/** One recorded event (snapshot form). */
struct FlightEvent
{
    std::uint64_t seq = 0;     ///< Global record order (0-based).
    double monoSeconds = 0;    ///< monotonicSeconds() at record time.
    FlightEventType type = FlightEventType::Note;
    std::uint64_t key = 0;     ///< Job content key; 0 = none.
    std::string detail;        ///< Free-form context (may be empty).

    /** The event's JSONL line (no trailing newline). */
    std::string toJsonl() const;
};

/**
 * The bounded event ring.
 *
 * Capacity is fixed at construction (default 1024 events — minutes
 * of campaign history at typical event rates, ~128 KiB resident).
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 1024);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Start recording and register the dump-on-exit flush hook.
     *
     * Events recorded from now on land in the ring; each record()
     * arms the hook, so the next fatal()/panic()/interrupted-exit
     * drain writes `path` exactly once (and a later record() re-arms
     * it). Calling enable() again just changes the path.
     */
    void enable(const std::string &path);

    /** Stop recording and unregister the flush hook. The ring's
     *  contents stay readable via snapshot(). */
    void disable();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Record one event (wait-free; no-op when disabled). */
    void record(FlightEventType type, std::uint64_t key = 0,
                const std::string &detail = std::string());

    /** The ring's valid events, oldest first. Slots concurrently
     *  mid-write are skipped. */
    std::vector<FlightEvent> snapshot() const;

    /** Render snapshot() as JSONL (one event per line). */
    std::string toJsonl() const;

    /** Write the ring to the enabled path now (atomic, best-effort).
     *  @return false when disabled or the write failed. */
    bool dumpNow();

    /** Events recorded since construction (monotone; exceeds the
     *  ring capacity once wrapping starts). */
    std::uint64_t recorded() const
    {
        return nextSeq_.load(std::memory_order_relaxed);
    }

    /**
     * The process-wide recorder used by the campaign layers. Starts
     * disabled; the CLI enables it per campaign directory (subject
     * to POWERCHOP_NO_FLIGHT).
     */
    static FlightRecorder &global();

  private:
    struct Slot
    {
        /** 0 = empty/mid-write; else the event's seq + 1, published
         *  with release order after the payload is complete. */
        std::atomic<std::uint64_t> stamp{0};
        double monoSeconds = 0;
        FlightEventType type = FlightEventType::Note;
        std::uint64_t key = 0;
        char detail[104] = {0}; ///< Truncating copy (NUL-terminated).
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> nextSeq_{0};
    std::atomic<bool> enabled_{false};

    /** Dump-path state (mutated only by enable/disable/dumpNow,
     *  which are rare control-plane calls). */
    mutable std::mutex controlMutex_;
    std::string path_;
    int flushHookId_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_COMMON_FLIGHT_RECORDER_HH
