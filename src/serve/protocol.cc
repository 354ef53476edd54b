#include "serve/protocol.hh"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <poll.h>
#include <unistd.h>

#include "common/clock.hh"
#include "common/logging.hh"

namespace powerchop
{

void
serveIgnoreSigpipe()
{
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

const char *
responseStatusName(ResponseStatus s)
{
    switch (s) {
      case ResponseStatus::Hit:
        return "HIT";
      case ResponseStatus::Ok:
        return "OK";
      case ResponseStatus::Miss:
        return "MISS";
      case ResponseStatus::Err:
        return "ERR";
      case ResponseStatus::Busy:
        return "BUSY";
    }
    return "ERR";
}

bool
parseContentKey(const std::string &text, std::uint64_t &key)
{
    if (text.empty() || text.size() > 16)
        return false;
    for (char c : text) {
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    }
    key = std::strtoull(text.c_str(), nullptr, 16);
    return true;
}

Request
parseRequestLine(const std::string &line)
{
    Request req;
    if (line == "STATS") {
        req.verb = RequestVerb::Stats;
        return req;
    }
    if (line.rfind("GET ", 0) == 0) {
        if (parseContentKey(line.substr(4), req.key))
            req.verb = RequestVerb::Get;
        else
            req.error = "GET wants a 1..16 hex-digit key";
        return req;
    }
    if (line.rfind("SIM ", 0) == 0) {
        req.spec = line.substr(4);
        if (req.spec.empty()) {
            req.error = "SIM wants a spec JSON";
            return req;
        }
        req.verb = RequestVerb::Sim;
        return req;
    }
    req.error = "unknown verb (expected GET/SIM/STATS)";
    return req;
}

std::string
formatSimSpec(const std::vector<std::string> &workloads,
              const std::vector<std::string> &machines,
              const std::vector<std::string> &modes,
              std::uint64_t insns, double timeoutCycles)
{
    const auto list = [](const std::vector<std::string> &v) {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            s += csprintf("%s\"%s\"", i ? "," : "", v[i].c_str());
        return s + "]";
    };
    return csprintf(
        "{\"workloads\":%s,\"machines\":%s,\"modes\":%s,"
        "\"insns\":%llu,\"timeout\":%.17g}",
        list(workloads).c_str(), list(machines).c_str(),
        list(modes).c_str(),
        static_cast<unsigned long long>(insns), timeoutCycles);
}

ReadOutcome
FdReader::fill(int timeoutMs)
{
    if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    // The deadline covers the whole refill, not each poll: EINTR and
    // spurious wakeups re-poll with whatever budget remains.
    const MonotonicDeadline deadline(
        timeoutMs >= 0 ? timeoutMs * 1e-3 : 0);
    char chunk[4096];
    while (true) {
        if (timeoutMs >= 0) {
            const double left = deadline.remainingSeconds();
            if (timeoutMs > 0 && left <= 0)
                return ReadOutcome::TimedOut;
            struct pollfd pfd = {};
            pfd.fd = fd_;
            pfd.events = POLLIN;
            const int budget = timeoutMs == 0
                ? 0
                : static_cast<int>(left * 1e3) + 1;
            const int pr = ::poll(&pfd, 1, budget);
            if (pr == 0)
                return ReadOutcome::TimedOut;
            if (pr < 0) {
                if (errno == EINTR)
                    continue;
                return ReadOutcome::Error;
            }
        }
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            return ReadOutcome::Ok;
        }
        if (n == 0)
            return ReadOutcome::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // O_NONBLOCK fd raced a spurious poll wakeup: re-poll
            // with the remaining budget (or block again when none).
            if (timeoutMs < 0) {
                struct pollfd pfd = {};
                pfd.fd = fd_;
                pfd.events = POLLIN;
                ::poll(&pfd, 1, -1);
            }
            continue;
        }
        return ReadOutcome::Error;
    }
}

ReadOutcome
FdReader::readLineDeadline(std::string &line, int idleMs, int ioMs,
                           std::size_t maxBytes)
{
    while (true) {
        const std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            line.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            outcome_ = line.size() <= maxBytes ? ReadOutcome::Ok
                                               : ReadOutcome::TooLong;
            return outcome_;
        }
        if (buf_.size() - pos_ > maxBytes) {
            outcome_ = ReadOutcome::TooLong;
            return outcome_;
        }
        // An empty buffer means we are waiting for the line's first
        // byte — the idle budget. Once any byte of the line is here,
        // the (usually much shorter) mid-frame budget applies.
        outcome_ = fill(buffered() ? ioMs : idleMs);
        if (outcome_ != ReadOutcome::Ok)
            return outcome_;
    }
}

bool
FdReader::readLine(std::string &line, std::size_t maxBytes)
{
    return readLineDeadline(line, pollTimeoutMs_, pollTimeoutMs_,
                            maxBytes) == ReadOutcome::Ok;
}

bool
FdReader::readExact(std::string &out, std::size_t n)
{
    out.clear();
    while (buf_.size() - pos_ < n) {
        outcome_ = fill(pollTimeoutMs_);
        if (outcome_ != ReadOutcome::Ok)
            return false;
    }
    out.assign(buf_, pos_, n);
    pos_ += n;
    outcome_ = ReadOutcome::Ok;
    return true;
}

bool
writeAllFd(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

bool
writeAllFdDeadline(int fd, const std::string &data, int timeoutMs)
{
    if (timeoutMs <= 0)
        return writeAllFd(fd, data);
    const MonotonicDeadline deadline(timeoutMs * 1e-3);
    std::size_t off = 0;
    while (off < data.size()) {
        const double left = deadline.remainingSeconds();
        if (left <= 0)
            return false;
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int pr = ::poll(&pfd, 1,
                              static_cast<int>(left * 1e3) + 1);
        if (pr == 0)
            return false; // peer stopped reading: deadline fired
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
            continue;
        }
        return false;
    }
    return true;
}

bool
writeResponse(int fd, ResponseStatus status,
              const std::string &payload)
{
    // One buffer, one writev-free send: header and payload coalesce,
    // so a small response costs one syscall.
    std::string frame = csprintf("%s %zu\n",
                                 responseStatusName(status),
                                 payload.size());
    frame += payload;
    return writeAllFd(fd, frame);
}

bool
writeResponseDeadline(int fd, ResponseStatus status,
                      const std::string &payload, int timeoutMs)
{
    std::string frame = csprintf("%s %zu\n",
                                 responseStatusName(status),
                                 payload.size());
    frame += payload;
    return writeAllFdDeadline(fd, frame, timeoutMs);
}

bool
readResponse(FdReader &reader, ResponseStatus &status,
             std::string &payload, std::size_t maxPayload)
{
    std::string header;
    if (!reader.readLine(header))
        return false;
    const std::size_t sp = header.find(' ');
    if (sp == std::string::npos)
        return false;
    const std::string token = header.substr(0, sp);
    if (token == "HIT")
        status = ResponseStatus::Hit;
    else if (token == "OK")
        status = ResponseStatus::Ok;
    else if (token == "MISS")
        status = ResponseStatus::Miss;
    else if (token == "ERR")
        status = ResponseStatus::Err;
    else if (token == "BUSY")
        status = ResponseStatus::Busy;
    else
        return false;
    char *end = nullptr;
    const unsigned long long len =
        std::strtoull(header.c_str() + sp + 1, &end, 10);
    if (!end || *end != '\0' || len > maxPayload)
        return false;
    return reader.readExact(payload,
                            static_cast<std::size_t>(len));
}

} // namespace powerchop
