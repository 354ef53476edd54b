#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <chrono>
#include <cstring>
#include <set>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/campaign.hh"
#include "sim/statusboard.hh"
#include "workload/suites.hh"

namespace powerchop
{

namespace
{

/** Matrix-size ceiling: bounds one request's memory and runner time
 *  (a wide tournament goes through campaigns, not one socket hit). */
constexpr std::size_t kMaxJobsPerRequest = 4096;

/** A SIM spec, decoded from the wire. */
struct SimSpec
{
    std::vector<WorkloadSpec> workloads;
    std::vector<std::string> machines;
    std::vector<SimMode> modes;
    InsnCount insns = 200'000;
    double timeoutCycles = 0;
};

bool
parseStringList(const json::Value &doc, const char *key,
                std::vector<std::string> &out, std::string &err)
{
    const json::Value *arr = doc.find(key);
    if (!arr || !arr->isArray() || arr->elements().empty()) {
        err = csprintf("spec wants a non-empty \"%s\" array", key);
        return false;
    }
    for (const json::Value &v : arr->elements()) {
        if (!v.isString()) {
            err = csprintf("\"%s\" entries must be strings", key);
            return false;
        }
        out.push_back(v.asString());
    }
    return true;
}

bool
parseSimSpec(const std::string &text, SimSpec &out, std::string &err)
{
    json::Value doc;
    if (!json::parse(text, doc) || !doc.isObject()) {
        err = "spec is not a JSON object";
        return false;
    }
    std::vector<std::string> workloadNames, modeNames;
    if (!parseStringList(doc, "workloads", workloadNames, err) ||
        !parseStringList(doc, "machines", out.machines, err) ||
        !parseStringList(doc, "modes", modeNames, err)) {
        return false;
    }
    // Checked on the axis sizes, before anything is resolved or
    // expanded: a spec can name a product far past memory. The 1 MiB
    // request line bounds each axis, so the product cannot overflow.
    const std::size_t jobs =
        workloadNames.size() * out.machines.size() * modeNames.size();
    if (jobs > kMaxJobsPerRequest) {
        err = csprintf("matrix of %zu jobs exceeds the per-request "
                       "ceiling of %zu",
                       jobs, kMaxJobsPerRequest);
        return false;
    }
    // Built-in names only: file paths are deliberately not servable,
    // since the daemon's matrix vocabulary must be content-
    // addressable by name alone.
    const std::vector<WorkloadSpec> builtins = allWorkloads();
    for (const std::string &name : workloadNames) {
        const auto it = std::find_if(
            builtins.begin(), builtins.end(),
            [&](const WorkloadSpec &w) { return w.name == name; });
        if (it == builtins.end()) {
            err = csprintf("unknown workload \"%s\"", name.c_str());
            return false;
        }
        out.workloads.push_back(*it);
    }
    for (const std::string &m : out.machines) {
        if (!findMachine(m)) {
            err = csprintf("unknown machine \"%s\"", m.c_str());
            return false;
        }
    }
    for (const std::string &m : modeNames) {
        SimMode mode;
        if (!parseSimMode(m, mode)) {
            err = csprintf("unknown mode \"%s\"", m.c_str());
            return false;
        }
        out.modes.push_back(mode);
    }
    out.insns = doc.getUint64("insns", 200'000);
    if (out.insns == 0) {
        err = "\"insns\" must be positive";
        return false;
    }
    out.timeoutCycles = doc.getDouble("timeout", 0);
    return true;
}

/** "<= 0 disables" seconds knob to a poll(2) millisecond budget,
 *  saturated at INT_MAX (about 24.8 days). */
int
timeoutMs(double seconds)
{
    if (!(seconds > 0))
        return -1;
    const double ms = seconds * 1e3;
    if (ms >= static_cast<double>(INT_MAX))
        return INT_MAX;
    return ms < 1 ? 1 : static_cast<int>(ms);
}

/** Connection fds run O_NONBLOCK so the poll()-based read and write
 *  deadlines are authoritative — a blocking fd can park inside the
 *  syscall after poll() said ready. */
void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

SimServer::SimServer(const ServeOptions &opts)
    : opts_(opts), cache_(opts.cache),
      runner_(opts.runnerThreads)
{
    // A client that disconnects while a handler is mid-response must
    // cost that handler a failed write, not the daemon its life.
    serveIgnoreSigpipe();
    if (opts_.port != 0) {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            throw IoError(csprintf("socket failed: %s",
                                   std::strerror(errno)));
        }
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts_.port);
        if (::bind(listenFd_,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int saved = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw IoError(csprintf("bind 127.0.0.1:%u failed: %s",
                                   opts_.port,
                                   std::strerror(saved)));
        }
        struct sockaddr_in bound = {};
        socklen_t len = sizeof(bound);
        if (::getsockname(
                listenFd_,
                reinterpret_cast<struct sockaddr *>(&bound),
                &len) == 0) {
            boundPort_ = ntohs(bound.sin_port);
        }
    } else {
        panicIf(opts_.socketPath.empty(),
                "SimServer wants a socket path or a port");
        struct sockaddr_un addr = {};
        if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
            throw IoError(csprintf(
                "socket path too long (%zu bytes, max %zu): %s",
                opts_.socketPath.size(), sizeof(addr.sun_path) - 1,
                opts_.socketPath.c_str()));
        }
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            throw IoError(csprintf("socket failed: %s",
                                   std::strerror(errno)));
        }
        // Replace a stale socket file from a previous daemon: bind
        // refuses an existing path, and serving is single-writer per
        // path by convention (like the campaign dir).
        ::unlink(opts_.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int saved = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw IoError(csprintf("bind %s failed: %s",
                                   opts_.socketPath.c_str(),
                                   std::strerror(saved)));
        }
    }
    if (::listen(listenFd_,
                 opts_.listenBacklog > 0 ? opts_.listenBacklog
                                         : 64) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throw IoError(csprintf("listen failed: %s",
                               std::strerror(saved)));
    }
}

SimServer::~SimServer()
{
    reapConnections(true);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (opts_.port == 0 && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

void
SimServer::event(const std::string &msg) const
{
    if (opts_.onEvent)
        opts_.onEvent(msg);
}

void
SimServer::reapConnections(bool all)
{
    std::list<Conn> finished;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (all && !it->done.load(std::memory_order_acquire) &&
                it->fd >= 0) {
                // Unstick a handler blocked in read(2): EOF its
                // socket. The handler owns the close.
                ::shutdown(it->fd, SHUT_RDWR);
            }
            if (all || it->done.load(std::memory_order_acquire)) {
                finished.splice(finished.end(), conns_, it++);
            } else {
                ++it;
            }
        }
    }
    for (Conn &c : finished) {
        if (c.thread.joinable())
            c.thread.join();
    }
}

bool
SimServer::allDone() const
{
    return std::all_of(conns_.begin(), conns_.end(), [](const Conn &c) {
        return c.done.load(std::memory_order_acquire);
    });
}

std::size_t
SimServer::liveConnections()
{
    std::lock_guard<std::mutex> lock(connMutex_);
    return conns_.size();
}

void
SimServer::drainConnections()
{
    // Phase 1: connections with no request in flight get EOF'd
    // immediately — SHUT_RD only, so a handler that just picked up
    // a request can still write its response.
    draining_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (Conn &c : conns_) {
            if (!c.done.load(std::memory_order_acquire) &&
                !c.busy.load(std::memory_order_acquire) &&
                c.fd >= 0) {
                ::shutdown(c.fd, SHUT_RD);
            }
        }
        if (allDone())
            allClosed_.stop();
    }
    // Phase 2: in-flight requests get drainSeconds to finish; the
    // last handler to finish wakes us.
    if (opts_.drainSeconds > 0)
        allClosed_.waitUntil(MonotonicDeadline(opts_.drainSeconds)
                                 .timePoint());
    reapConnections(false);
    if (liveConnections() == 0)
        return;
    // Phase 3: the grace expired. Cancel whatever SIM is running
    // (hardStop_ cancels every batch), count the requests we are
    // abandoning, and force the sockets shut.
    hardStop_.request_stop();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (Conn &c : conns_) {
            if (!c.done.load(std::memory_order_acquire) &&
                c.busy.load(std::memory_order_acquire)) {
                count(ServeMetric::DroppedInFlight);
            }
        }
    }
    reapConnections(true);
}

ServeStats
SimServer::stats() const
{
    ServeStats s;
    for (unsigned i = 0; i < ServeMetric::Count; ++i) {
        s.counters[i] = counters_[i].load(std::memory_order_relaxed);
        s.histograms[i] = histogramsNs_[i].quantiles(1e-6);
    }
    const ResultCacheStats cache = cache_.stats();
    s.counters[ServeMetric::Hits] = cache.hits;
    s.counters[ServeMetric::Misses] = cache.misses;
    s.counters[ServeMetric::Insertions] = cache.insertions;
    s.counters[ServeMetric::Evictions] = cache.evictions;
    s.counters[ServeMetric::Entries] = cache.entries;
    s.counters[ServeMetric::Bytes] = cache.bytes;
    s.counters[ServeMetric::WarmStarted] = cache_.warmStarted();
    s.counters[ServeMetric::Compactions] = cache.compactions;
    s.counters[ServeMetric::JournalRecords] = cache.journalRecords;
    s.counters[ServeMetric::JournalDeadRecords] =
        cache.journalDeadRecords;

    const std::uint64_t lookups = cache.hits + cache.misses;
    s.gauges[ServeMetric::HitRate] = lookups > 0
        ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
        : 0;
    s.uptimeSeconds =
        startedAt_ > 0 ? monotonicSeconds() - startedAt_ : 0;
    s.gauges[ServeMetric::Qps] = s.uptimeSeconds > 0
        ? static_cast<double>(s.counters[ServeMetric::Requests]) /
              s.uptimeSeconds
        : 0;
    return s;
}

std::string
SimServer::statsJson() const
{
    const ServeStats s = stats();
    return csprintf("{\"schema\":\"powerchop-serve-stats-v1\","
                    "\"uptime_seconds\":%.6f,%s}\n",
                    s.uptimeSeconds, s.toJson().c_str());
}

ResponseStatus
SimServer::handleSim(const std::string &specJson,
                     std::string &payload)
{
    SimSpec spec;
    std::string err;
    if (!parseSimSpec(specJson, spec, err)) {
        payload = err + "\n";
        return ResponseStatus::Err;
    }
    const std::vector<SimJob> jobs =
        expandCampaignMatrix(spec.workloads, spec.machines, spec.modes,
                             spec.insns, spec.timeoutCycles);

    CampaignResult result;
    result.keys.reserve(jobs.size());
    std::set<std::uint64_t> seen;
    for (const SimJob &job : jobs) {
        const std::uint64_t key = campaignJobKey(job);
        if (!seen.insert(key).second) {
            payload = csprintf("duplicate matrix entry (key "
                               "%016llx)\n",
                               static_cast<unsigned long long>(key));
            return ResponseStatus::Err;
        }
        result.keys.push_back(key);
    }
    result.outcomes.resize(jobs.size());
    result.payloads.resize(jobs.size());

    // Cache pass: hits fill their slots immediately.
    std::vector<std::size_t> missIdx;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cache_.get(result.keys[i], &result.payloads[i])) {
            result.outcomes[i].status = JobStatus::Ok;
            ++result.replayed;
        } else {
            missIdx.push_back(i);
        }
    }

    // Miss pass: execute fresh jobs through the shared runner.
    // The pool must be driven from one thread at a time, so SIM
    // misses serialize here; GET/STATS traffic never waits on this.
    // Admission control bounds the line at that door: fully cached
    // SIMs answered above never queue, never shed.
    if (!missIdx.empty()) {
        const MonotonicDeadline deadline(
            opts_.requestDeadlineSeconds);
        if (opts_.simQueueDepth > 0 &&
            simWaiters_.fetch_add(1, std::memory_order_acq_rel) >=
                opts_.simQueueDepth) {
            simWaiters_.fetch_sub(1, std::memory_order_acq_rel);
            count(ServeMetric::ShedRequests);
            payload = csprintf(
                "sim admission queue full (%u deep): retry after "
                "backoff\n",
                opts_.simQueueDepth);
            return ResponseStatus::Busy;
        }
        if (opts_.simQueueDepth == 0)
            simWaiters_.fetch_add(1, std::memory_order_acq_rel);

        std::vector<SimJob> missJobs;
        missJobs.reserve(missIdx.size());
        for (std::size_t i : missIdx)
            missJobs.push_back(jobs[i]);

        // A request that cannot reach the runner before its wall
        // deadline is cancelled while still in line.
        {
            std::unique_lock<std::mutex> lock(simMutex_);
            if (!simFree_.wait_until(lock, deadline.timePoint(),
                                     [this] { return !simBusy_; })) {
                simWaiters_.fetch_sub(1, std::memory_order_acq_rel);
                count(ServeMetric::DeadlineCancels);
                payload = csprintf(
                    "deadline: request exceeded the %.3fs wall "
                    "deadline waiting for the runner\n",
                    opts_.requestDeadlineSeconds);
                return ResponseStatus::Err;
            }
            simBusy_ = true;
        }

        // Cooperative cancel: the wall deadline and the drain
        // hard-stop are batch-cancel sources of the runner's own
        // watchdog, which raises the cancel flag the simulator
        // checks at block boundaries.
        RobustRunOptions ropts;
        ropts.timeoutSeconds = opts_.jobTimeoutSeconds;
        ropts.deadline = deadline;
        ropts.stop = hardStop_.get_token();
        const RobustBatchResult batch =
            runner_.runRobust(missJobs, ropts);
        {
            std::lock_guard<std::mutex> lock(simMutex_);
            simBusy_ = false;
        }
        simFree_.notify_one();
        simWaiters_.fetch_sub(1, std::memory_order_acq_rel);

        for (std::size_t j = 0; j < missIdx.size(); ++j) {
            const std::size_t i = missIdx[j];
            result.outcomes[i] = batch.outcomes[j];
            if (batch.outcomes[j].status == JobStatus::Ok) {
                // Rendered exactly once, here; every later hit
                // serves these bytes verbatim. Jobs that finished
                // before a deadline cancel still count: their
                // results are real and cacheable.
                result.payloads[i] = batch.results[j].toJson();
                cache_.put(result.keys[i], result.payloads[i]);
            }
        }
        result.executed = missIdx.size();
        count(ServeMetric::SimulatedJobs, missIdx.size());
        if (deadline.expired() && batch.resumableCount() > 0) {
            count(ServeMetric::DeadlineCancels);
            payload = csprintf(
                "deadline: SIM exceeded the %.3fs wall deadline "
                "(%zu of %zu fresh jobs cancelled; finished jobs "
                "were cached)\n",
                opts_.requestDeadlineSeconds,
                batch.resumableCount(), missIdx.size());
            return ResponseStatus::Err;
        }
    }

    payload = result.reportJson();
    return missIdx.empty() ? ResponseStatus::Hit
                           : ResponseStatus::Ok;
}

void
SimServer::handleConnection(Conn *conn)
{
    FdReader reader(conn->fd);
    const int idleMs = timeoutMs(opts_.idleTimeoutSeconds);
    const int readMs = timeoutMs(opts_.readTimeoutSeconds);
    const int writeMs = timeoutMs(opts_.writeTimeoutSeconds);
    std::string line;
    while (true) {
        const ReadOutcome ro =
            reader.readLineDeadline(line, idleMs, readMs);
        if (ro == ReadOutcome::TimedOut) {
            if (reader.buffered()) {
                // A half-sent request is a broken (or hostile)
                // peer: tell it why, then hang up.
                count(ServeMetric::ReadTimeouts);
                writeResponseDeadline(
                    conn->fd, ResponseStatus::Err,
                    "deadline: request read timed out mid-frame\n",
                    writeMs);
            } else {
                // Idle between requests past the budget: a slot a
                // live client could be using. Close quietly.
                count(ServeMetric::IdleReaped);
            }
            break;
        }
        if (ro == ReadOutcome::TooLong) {
            writeResponseDeadline(
                conn->fd, ResponseStatus::Err,
                "request line exceeds the 1 MiB ceiling\n", writeMs);
            break;
        }
        if (ro != ReadOutcome::Ok)
            break; // EOF or transport error
        conn->busy.store(true, std::memory_order_release);
        const std::int64_t t0 = monotonicNanos();
        const Request req = parseRequestLine(line);
        count(ServeMetric::Requests);

        ResponseStatus status = ResponseStatus::Err;
        std::string payload;
        switch (req.verb) {
          case RequestVerb::Get: {
            count(ServeMetric::Gets);
            status = cache_.get(req.key, &payload)
                         ? ResponseStatus::Hit
                         : ResponseStatus::Miss;
            break;
          }
          case RequestVerb::Sim:
            count(ServeMetric::Sims);
            status = handleSim(req.spec, payload);
            break;
          case RequestVerb::Stats:
            status = ResponseStatus::Ok;
            payload = statsJson();
            break;
          case RequestVerb::Bad:
            payload = req.error + "\n";
            break;
        }
        if (status == ResponseStatus::Err)
            count(ServeMetric::Errors);

        const bool sent =
            writeResponseDeadline(conn->fd, status, payload, writeMs);
        histogramsNs_[ServeMetric::RequestLatencyMs].sample(
            static_cast<std::uint64_t>(monotonicNanos() - t0));
        conn->busy.store(false, std::memory_order_release);
        if (!sent)
            break; // peer went away (or stalled) mid-response
        if (draining_.load(std::memory_order_acquire))
            break; // finish the request in hand, then bow out
    }
    // Closed under connMutex_: a drain or reap that shutdown()s the
    // fd holds that lock, so it never touches a descriptor number
    // that was already closed and reused.
    std::lock_guard<std::mutex> lock(connMutex_);
    ::close(conn->fd);
    conn->fd = -1;
    conn->done.store(true, std::memory_order_release);
    if (draining_.load(std::memory_order_acquire) && allDone())
        allClosed_.stop();
}

ServeStats
SimServer::run()
{
    startedAt_ = monotonicSeconds();
    event(csprintf("serving on %s",
                   opts_.port != 0
                       ? csprintf("127.0.0.1:%u", boundPort_).c_str()
                       : opts_.socketPath.c_str()));
    if (cache_.warmStarted() > 0) {
        event(csprintf("warm-started %zu cached results from %s",
                       cache_.warmStarted(),
                       opts_.cache.journalPath.c_str()));
    }

    // Status publishing rides its own thread so snapshots stay fresh
    // while every handler thread is busy (as the campaign loop's
    // heartbeat does).
    std::unique_ptr<StatusPublisher> publisher;
    StopLatch statusStop;
    std::thread statusThread;
    if (!opts_.statusPath.empty()) {
        publisher = std::make_unique<StatusPublisher>(opts_.statusPath);
        const auto makeSnapshot = [this](bool finished) {
            StatusSnapshot snap;
            snap.role = "server";
            snap.label = "powerchopd";
            snap.serve = stats();
            snap.jobsTotal = snap.jobsDone = snap.jobsOk =
                snap.serve.counters[ServeMetric::SimulatedJobs];
            snap.finished = finished;
            return snap;
        };
        statusThread = std::thread([&, this] {
            while (!statusStop.waitFor(std::chrono::milliseconds(100)))
                publisher->publish(makeSnapshot(false));
            publisher->publish(makeSnapshot(true), true);
        });
    }

    while (!(opts_.stopFlag &&
             opts_.stopFlag->load(std::memory_order_relaxed))) {
        struct pollfd pfd = {};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 100 /* ms */);
        if (pr < 0 && errno != EINTR)
            break;
        reapConnections(false);
        if (pr <= 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                // Out of descriptors/buffers: not fatal — back off
                // briefly so handlers can finish and free some.
                static LogRateLimiter limiter(2.0, 10.0);
                warnLimited(limiter,
                            "[powerchopd] accept failed: %s "
                            "(backing off)",
                            std::strerror(errno));
                count(ServeMetric::AcceptRetries);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            static LogRateLimiter limiter(2.0, 10.0);
            warnLimited(limiter, "[powerchopd] accept failed: %s",
                        std::strerror(errno));
            count(ServeMetric::AcceptRetries);
            continue;
        }
        setNonBlocking(fd);
        if (opts_.maxConnections > 0 &&
            liveConnections() >= opts_.maxConnections) {
            // Over the cap: shed loudly (BUSY, not silence) so a
            // well-behaved client backs off instead of retrying
            // into a black hole.
            count(ServeMetric::ShedConnections);
            writeResponseDeadline(
                fd, ResponseStatus::Busy,
                csprintf("connection cap (%u) reached: retry "
                         "after backoff\n",
                         opts_.maxConnections),
                1000);
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.emplace_back();
        Conn *conn = &conns_.back();
        conn->fd = fd;
        conn->thread =
            std::thread([this, conn] { handleConnection(conn); });
    }

    // Stop accepting the moment drain begins: the listening socket
    // closes before in-flight work is waited on, so a restarting
    // supervisor can bind the replacement immediately.
    event(csprintf("draining (%.1fs grace, %zu connections open)",
                   opts_.drainSeconds, liveConnections()));
    ::close(listenFd_);
    listenFd_ = -1;
    if (opts_.port == 0 && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
    drainConnections();

    // Everything served is already fsync'd record-by-record; this
    // is the drain-time belt-and-braces flush before the final
    // statusboard snapshot goes out.
    cache_.flushJournal();
    if (statusThread.joinable()) {
        statusStop.stop();
        statusThread.join();
    }
    ServeStats rep = stats();
    event(rep.summary());
    return rep;
}

} // namespace powerchop
