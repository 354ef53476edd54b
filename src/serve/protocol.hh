/**
 * @file
 * The powerchopd wire protocol: newline-framed requests,
 * length-prefixed responses.
 *
 * Requests are single lines:
 *
 *   GET <16-hex-key>\n      Look up one content key.
 *   SIM <spec-json>\n       Simulate a campaign matrix (one line).
 *   STATS\n                 Server/cache counters as JSON.
 *
 * Responses are a status line followed by an exact-length payload:
 *
 *   <STATUS> <length>\n<length bytes>
 *
 * with STATUS one of HIT (every byte came from the cache), OK
 * (request served, at least one job simulated fresh), MISS (GET of an
 * unknown key; empty payload), ERR (malformed or unservable request;
 * payload is a human-readable reason) and BUSY (the server is shedding
 * load — connection cap or SIM admission queue full; payload says
 * which; retry after backoff). The length prefix makes payloads 8-bit
 * clean: a SIM payload is a full multi-line report.json document,
 * streamed verbatim.
 *
 * The SIM spec mirrors the CLI campaign matrix flags:
 *
 *   {"workloads":["perlbench",...],"machines":["server"|"mobile",...],
 *    "modes":["full-power",...],"insns":N,"timeout":T}
 *
 * Jobs are expanded workload-major exactly like `powerchop campaign`,
 * so a spec's report is byte-identical to the report.json a direct
 * runCampaign of the same flags produces.
 */

#ifndef POWERCHOP_SERVE_PROTOCOL_HH
#define POWERCHOP_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace powerchop
{

/** Parsed request verbs (Bad carries a reason in Request::error). */
enum class RequestVerb
{
    Get,
    Sim,
    Stats,
    Bad,
};

/** One parsed request line. */
struct Request
{
    RequestVerb verb = RequestVerb::Bad;
    std::uint64_t key = 0; ///< Get only.
    std::string spec;      ///< Sim only: the spec JSON, verbatim.
    std::string error;     ///< Bad only: what was wrong.
};

/** Response statuses, in wire spelling. */
enum class ResponseStatus
{
    Hit,
    Ok,
    Miss,
    Err,
    Busy, ///< Load shed: retry later (payload names the reason).
};

/** @return the wire token ("HIT", "OK", "MISS", "ERR", "BUSY"). */
const char *responseStatusName(ResponseStatus s);

/** Parse a content key as the wire spells it: 1 to 16 hex digits and
 *  nothing else (no sign, blank or 0x prefix). @return false, leaving
 *  `key` untouched, for anything else. */
bool parseContentKey(const std::string &text, std::uint64_t &key);

/** Parse a request line (no trailing newline). Never throws: a
 *  malformed line parses to Bad with `error` set. */
Request parseRequestLine(const std::string &line);

/** Render a SIM spec line from CLI-style matrix lists. */
std::string formatSimSpec(const std::vector<std::string> &workloads,
                          const std::vector<std::string> &machines,
                          const std::vector<std::string> &modes,
                          std::uint64_t insns, double timeoutCycles);

/** How a deadline-aware read ended. */
enum class ReadOutcome
{
    Ok,       ///< The requested line/bytes were produced.
    Eof,      ///< Peer closed cleanly before the data arrived.
    TimedOut, ///< The poll() deadline fired first.
    TooLong,  ///< A line exceeded its byte budget.
    Error,    ///< read(2) failed (not EINTR/EAGAIN).
};

/**
 * Buffered reader over a connected socket, pairing the line-framed
 * and exact-length halves of the protocol on one fd.
 *
 * Deadlines: every refill poll()s first when a timeout applies, so
 * reads work identically on blocking and O_NONBLOCK fds. A default
 * poll timeout (setPollTimeoutMs) covers the plain readLine/readExact
 * calls — the client-side I/O deadline — while readLineDeadline takes
 * explicit idle vs mid-frame budgets for the server side.
 */
class FdReader
{
  public:
    explicit FdReader(int fd) : fd_(fd) {}

    /**
     * Read up to (and consuming) the next '\n'; the newline is not
     * included in `line`.
     * @return false on EOF, error, timeout, or a line exceeding
     *         maxBytes (outcome() says which).
     */
    bool readLine(std::string &line,
                  std::size_t maxBytes = kMaxRequestLine);

    /**
     * readLine with split deadlines: `idleMs` bounds the wait for the
     * line's first byte (a connection allowed to sit between
     * requests), `ioMs` bounds every subsequent refill (a peer that
     * started a line must keep the bytes coming). Either can be -1
     * for "no deadline".
     */
    ReadOutcome readLineDeadline(std::string &line, int idleMs,
                                 int ioMs,
                                 std::size_t maxBytes =
                                     kMaxRequestLine);

    /** Read exactly n bytes. @return false on EOF, error or
     *  timeout (outcome() says which). */
    bool readExact(std::string &out, std::size_t n);

    /** Why the last readLine/readExact returned what it did. */
    ReadOutcome outcome() const { return outcome_; }

    /** @return true when unconsumed bytes are buffered (a frame has
     *  started but its terminator has not arrived). */
    bool buffered() const { return pos_ < buf_.size(); }

    /** Default poll deadline for readLine/readExact refills;
     *  -1 (the default) blocks forever. */
    void setPollTimeoutMs(int ms) { pollTimeoutMs_ = ms; }

    /** Guards against a malicious/corrupt unbounded request line. */
    static constexpr std::size_t kMaxRequestLine = 1u << 20;

  private:
    ReadOutcome fill(int timeoutMs);

    int fd_;
    std::string buf_;
    std::size_t pos_ = 0;
    int pollTimeoutMs_ = -1;
    ReadOutcome outcome_ = ReadOutcome::Ok;
};

/** Ignore SIGPIPE process-wide, once: a peer that hangs up while we
 *  are mid-write must surface as EPIPE (writeAllFd returns false),
 *  not kill the daemon or a retrying client. Called lazily from the
 *  server and client setup paths, so programs that never touch the
 *  serving plane keep the default disposition (same discipline as
 *  the subprocess supervisor). */
void serveIgnoreSigpipe();

/** write(2) the whole buffer, retrying EINTR. @return false on any
 *  unrecoverable error (including EPIPE: peer went away). */
bool writeAllFd(int fd, const std::string &data);

/**
 * writeAllFd with a wall deadline: poll()s for POLLOUT before every
 * write, so a peer that stops reading cannot pin the writer past
 * `timeoutMs`. The fd should be O_NONBLOCK for the deadline to be
 * honored mid-write (a blocking fd can still park inside write(2)).
 * timeoutMs <= 0 means no deadline.
 */
bool writeAllFdDeadline(int fd, const std::string &data,
                        int timeoutMs);

/** Send one framed response. */
bool writeResponse(int fd, ResponseStatus status,
                   const std::string &payload);

/** writeResponse under a write deadline (see writeAllFdDeadline). */
bool writeResponseDeadline(int fd, ResponseStatus status,
                           const std::string &payload, int timeoutMs);

/**
 * Read one framed response.
 * @return false on EOF, a malformed status line, or a payload
 *         length over maxPayload.
 */
bool readResponse(FdReader &reader, ResponseStatus &status,
                  std::string &payload,
                  std::size_t maxPayload = 1u << 30);

} // namespace powerchop

#endif // POWERCHOP_SERVE_PROTOCOL_HH
