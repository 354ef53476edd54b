/**
 * @file
 * powerchopd — simulation-as-a-service over the campaign layer.
 *
 * The daemon binds a Unix-domain (or loopback TCP) socket, accepts
 * protocol.hh requests on a thread per connection, and serves them
 * from the content-keyed ResultCache: a GET hit or a fully cached SIM
 * matrix costs a hash lookup; misses execute through the existing
 * SimJobRunner machinery (serialized — the runner is a single-driver
 * pool) and are inserted write-ahead into the cache journal before
 * the response leaves the socket.
 *
 * Byte-identity guarantee: a SIM response's payload is the
 * CampaignResult::reportJson() of the requested matrix, with per-job
 * payloads taken verbatim from the cache (each one a SimResult JSON
 * rendered exactly once, at first simulation). Since report rendering
 * is deterministic in (keys, outcomes, payloads), a served report —
 * cold, warm, or assembled from a restarted daemon's journal — is
 * byte-identical to the report.json a direct `powerchop campaign` of
 * the same matrix writes.
 *
 * The daemon publishes a "server" statusboard snapshot (every row of
 * the serve table, sim/statusboard.hh) into `<dir>/status/`, so
 * `powerchop status` and `status --prom` watch a serving daemon
 * exactly like a running campaign, and STATS answers the same rows.
 */

#ifndef POWERCHOP_SERVE_SERVER_HH
#define POWERCHOP_SERVE_SERVER_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>

#include "common/stats.hh"
#include "common/stop_latch.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "sim/sim_runner.hh"
#include "sim/statusboard.hh"

namespace powerchop
{

/** powerchopd configuration. */
struct ServeOptions
{
    /** Unix-domain socket path (an existing socket file is
     *  replaced). Ignored when port != 0. */
    std::string socketPath;

    /** TCP port on 127.0.0.1; 0 selects the Unix socket. */
    unsigned short port = 0;

    /** Result-cache sizing and durability (result_cache.hh). */
    ResultCacheOptions cache;

    /** Runner pool size; 0 = defaultJobCount(). */
    unsigned runnerThreads = 0;

    /** Per-job stuck-run watchdog for misses; 0 disables. */
    double jobTimeoutSeconds = 0;

    /** listen(2) backlog for the accept queue. */
    int listenBacklog = 64;

    /** Connection cap: accepts past this many concurrent
     *  connections are shed with BUSY + close. 0 = unlimited. */
    unsigned maxConnections = 256;

    /** SIM admission queue depth: at most this many SIM misses may
     *  be queued or running behind the runner mutex; excess requests
     *  are shed with BUSY instead of waiting unboundedly.
     *  0 = unlimited. */
    unsigned simQueueDepth = 16;

    /** Reap a connection idle (no request in flight) this long;
     *  <= 0 disables. */
    double idleTimeoutSeconds = 300;

    /** Mid-frame read deadline: a peer that started a request line
     *  must deliver the next byte within this; <= 0 disables. */
    double readTimeoutSeconds = 30;

    /** Response write deadline: a peer that stops reading loses the
     *  connection after this; <= 0 disables. */
    double writeTimeoutSeconds = 30;

    /** Per-request wall deadline: an in-flight SIM past this is
     *  cancelled (SimOptions::cancelFlag) and answered
     *  "ERR deadline..."; <= 0 disables. */
    double requestDeadlineSeconds = 0;

    /** Grace granted to in-flight requests after the stop flag
     *  rises before their connections are forced shut. */
    double drainSeconds = 5;

    /** Shutdown flag the accept loop polls (SIGINT/SIGTERM). */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Statusboard snapshot path; empty disables publishing. */
    std::string statusPath;

    /** Operational log lines (bind/accept/shutdown events). */
    std::function<void(const std::string &)> onEvent;
};

/**
 * The daemon. Construction binds and listens (throws IoError when
 * the address is unusable), run() serves until the stop flag rises,
 * then drains connection threads and returns the lifetime report.
 */
class SimServer
{
  public:
    explicit SimServer(const ServeOptions &opts);
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Serve until the stop flag rises, then report the lifetime
     *  totals. One call per server. */
    ServeStats run();

    /** The bound TCP port (after construction; 0 for Unix). */
    unsigned short boundPort() const { return boundPort_; }

  private:
    struct Conn
    {
        std::thread thread;
        int fd = -1; ///< Written under connMutex_; -1 once closed.
        std::atomic<bool> done{false};
        std::atomic<bool> busy{false}; ///< A request is in flight.
    };

    void event(const std::string &msg) const;
    void handleConnection(Conn *conn);
    ResponseStatus handleSim(const std::string &specJson,
                             std::string &payload);
    std::string statsJson() const;
    ServeStats stats() const; ///< Every serve table row, now.

    /** Bump a daemon-side counter row. */
    void
    count(ServeMetric::Row m, std::uint64_t n = 1)
    {
        counters_[m].fetch_add(n, std::memory_order_relaxed);
    }

    void reapConnections(bool all);
    void drainConnections();
    bool allDone() const; ///< Every handler finished; connMutex_ held.
    std::size_t liveConnections();

    ServeOptions opts_;
    ResultCache cache_;
    SimJobRunner runner_;
    int listenFd_ = -1;
    unsigned short boundPort_ = 0;
    double startedAt_ = 0;

    /** The runner pool must be driven from one thread at a time: a
     *  SIM miss holds this slot while its batch runs. A condition
     *  variable, so a waiter with a request deadline can give up on
     *  time and answer "ERR deadline" instead of queueing forever. */
    std::mutex simMutex_;
    std::condition_variable simFree_;
    bool simBusy_ = false;

    /** SIM misses queued or running for the runner slot (admission
     *  control compares this against simQueueDepth). */
    std::atomic<unsigned> simWaiters_{0};

    /** Rises when drain begins: handlers finish their current
     *  request, then close instead of reading the next one. */
    std::atomic<bool> draining_{false};

    /** Requested at the drain deadline: cancels whatever SIM is
     *  still in flight (RobustRunOptions::stop of every batch). */
    std::stop_source hardStop_;

    std::mutex connMutex_;
    std::list<Conn> conns_;

    /** Stopped by the last connection handler to finish once drain
     *  has begun, waking drainConnections(). */
    StopLatch allClosed_;

    /** Live storage of the serve table's daemon-side rows, indexed
     *  by row. The cache-side rows come from cache_.stats(). @{ */
    std::array<std::atomic<std::uint64_t>, ServeMetric::Count>
        counters_{};
    std::array<stats::Log2Histogram, ServeMetric::Count> histogramsNs_;
    /** @} */
};

} // namespace powerchop

#endif // POWERCHOP_SERVE_SERVER_HH
