#include "common/subprocess.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/logging.hh"

extern char **environ;

namespace powerchop
{

namespace
{

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setCloseOnExec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void
closeQuietly(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

std::string
ExitStatus::describe() const
{
    switch (kind) {
      case Kind::Running:
        return "running";
      case Kind::Exited:
        return csprintf("exit %d", exitCode);
      case Kind::Signaled: {
        const char *name = ::strsignal(signal);
        return csprintf("signal %d (%s)", signal,
                        name ? name : "unknown");
      }
    }
    return "unknown";
}

Subprocess::~Subprocess()
{
    if (pid_ > 0 && poll().running())
        killHard();
    reset();
}

Subprocess::Subprocess(Subprocess &&other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdinFd_(std::exchange(other.stdinFd_, -1)),
      stdoutFd_(std::exchange(other.stdoutFd_, -1)),
      status_(std::exchange(other.status_, ExitStatus{}))
{
}

Subprocess &
Subprocess::operator=(Subprocess &&other) noexcept
{
    if (this != &other) {
        if (pid_ > 0 && poll().running())
            killHard();
        reset();
        pid_ = std::exchange(other.pid_, -1);
        stdinFd_ = std::exchange(other.stdinFd_, -1);
        stdoutFd_ = std::exchange(other.stdoutFd_, -1);
        status_ = std::exchange(other.status_, ExitStatus{});
    }
    return *this;
}

void
Subprocess::reset() noexcept
{
    closeQuietly(stdinFd_);
    closeQuietly(stdoutFd_);
}

void
Subprocess::spawn(const SpawnOptions &opts)
{
    panicIf(opts.argv.empty(), "Subprocess::spawn needs an argv[0]");
    panicIf(pid_ > 0, "Subprocess::spawn called twice");

    int in_pipe[2] = {-1, -1};  // parent writes [1], child reads [0]
    int out_pipe[2] = {-1, -1}; // child writes [1], parent reads [0]
    if (opts.pipeStdin && ::pipe(in_pipe) != 0) {
        throw IoError(csprintf("pipe(stdin) failed: %s",
                               std::strerror(errno)));
    }
    if (opts.pipeStdout && ::pipe(out_pipe) != 0) {
        const int saved = errno;
        closeQuietly(in_pipe[0]);
        closeQuietly(in_pipe[1]);
        throw IoError(csprintf("pipe(stdout) failed: %s",
                               std::strerror(saved)));
    }

    // The child only needs its own pipe ends; mark the parent ends
    // close-on-exec so a second spawned worker cannot keep a dead
    // sibling's pipe open (which would hide its EOF).
    if (opts.pipeStdin)
        setCloseOnExec(in_pipe[1]);
    if (opts.pipeStdout)
        setCloseOnExec(out_pipe[0]);

    // argv / envp must be materialized before fork: only
    // async-signal-safe calls are allowed in the child of a
    // multi-threaded parent.
    std::vector<char *> argv;
    argv.reserve(opts.argv.size() + 1);
    for (const auto &a : opts.argv)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    std::vector<char *> envp;
    for (char **e = environ; e && *e; ++e)
        envp.push_back(*e);
    for (const auto &e : opts.extraEnv)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        closeQuietly(in_pipe[0]);
        closeQuietly(in_pipe[1]);
        closeQuietly(out_pipe[0]);
        closeQuietly(out_pipe[1]);
        throw IoError(csprintf("fork failed: %s",
                               std::strerror(saved)));
    }

    if (pid == 0) {
        // Child: rewire stdio, restore default signal dispositions
        // the parent may have customised, exec.
        if (opts.pipeStdin) {
            ::dup2(in_pipe[0], STDIN_FILENO);
            ::close(in_pipe[0]);
            ::close(in_pipe[1]);
        }
        if (opts.pipeStdout) {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
        }
        ::signal(SIGPIPE, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        ::signal(SIGTERM, SIG_DFL);
#if defined(__linux__)
        // A SIGKILLed supervisor must not leave orphan workers
        // racing a resumed supervisor's fresh workers for the same
        // shard journals: tie the child's lifetime to the parent.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() == 1)
            ::raise(SIGTERM); // parent already died before prctl
#endif
        ::execve(argv[0], argv.data(), envp.data());
        // Only reached when exec failed; stderr is inherited.
        const char *msg = "subprocess: exec failed: ";
        (void)!::write(STDERR_FILENO, msg, std::strlen(msg));
        const char *err = std::strerror(errno);
        (void)!::write(STDERR_FILENO, err, std::strlen(err));
        (void)!::write(STDERR_FILENO, "\n", 1);
        ::_exit(127);
    }

    // Parent.
    pid_ = pid;
    if (opts.pipeStdin) {
        ::close(in_pipe[0]);
        stdinFd_ = in_pipe[1];
    }
    if (opts.pipeStdout) {
        ::close(out_pipe[1]);
        stdoutFd_ = out_pipe[0];
        setNonBlocking(stdoutFd_);
    }
}

void
Subprocess::closeStdin()
{
    closeQuietly(stdinFd_);
}

std::string
Subprocess::readAvailable()
{
    std::string out;
    if (stdoutFd_ < 0)
        return out;
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(stdoutFd_, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) { // EOF: the child closed its stdout
            closeQuietly(stdoutFd_);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // nothing pending right now
        closeQuietly(stdoutFd_);
        break;
    }
    return out;
}

ExitStatus
Subprocess::poll()
{
    if (!status_.running() || pid_ <= 0)
        return status_;
    int wstatus = 0;
    const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
    if (r == 0)
        return status_; // still running
    if (r < 0) {
        // ESRCH/ECHILD: someone else reaped it (should not happen —
        // the supervisor owns its children). Treat as exited badly.
        status_.kind = ExitStatus::Kind::Exited;
        status_.exitCode = 255;
        return status_;
    }
    if (WIFEXITED(wstatus)) {
        status_.kind = ExitStatus::Kind::Exited;
        status_.exitCode = WEXITSTATUS(wstatus);
    } else if (WIFSIGNALED(wstatus)) {
        status_.kind = ExitStatus::Kind::Signaled;
        status_.signal = WTERMSIG(wstatus);
    }
    return status_;
}

ExitStatus
Subprocess::wait(double timeoutSeconds, std::string *drained)
{
    const MonotonicDeadline deadline(timeoutSeconds);
    while (true) {
        const std::string chunk = readAvailable();
        if (drained && !chunk.empty())
            *drained += chunk;
        const ExitStatus st = poll();
        if (!st.running() || deadline.expired())
            return st;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
Subprocess::sendSignal(int sig)
{
    if (pid_ > 0 && status_.running())
        ::kill(pid_, sig);
}

void
Subprocess::killHard()
{
    if (pid_ <= 0 || !status_.running())
        return;
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(wstatus)) {
        status_.kind = ExitStatus::Kind::Exited;
        status_.exitCode = WEXITSTATUS(wstatus);
    } else {
        status_.kind = ExitStatus::Kind::Signaled;
        status_.signal =
            WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : SIGKILL;
    }
}

} // namespace powerchop
