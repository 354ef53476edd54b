/**
 * @file
 * Child-process management: the campaign shard supervisor's workers
 * and the processes tests and benchmarks drive.
 *
 * A child is fork + execve, optionally with pipes on its stdin and
 * stdout. The parent drains a piped stdout with non-blocking reads (an
 * event loop must never block on a wedged child) and detects death
 * through waitpid — classifying a clean exit code apart from a fatal
 * signal, because "exited 1" means a reported error while "killed by
 * SIGSEGV" means the address space is gone and only the write-ahead
 * journal survives. Shard workers get no pipes: they take their jobs
 * from argv and report through their journals.
 *
 * All deadlines in this module are monotonic (common/clock.hh): a
 * system clock step can neither fire nor suppress a wait timeout.
 */

#ifndef POWERCHOP_COMMON_SUBPROCESS_HH
#define POWERCHOP_COMMON_SUBPROCESS_HH

#include <string>
#include <vector>

#include <sys/types.h>

namespace powerchop
{

/** How to launch one child process. */
struct SpawnOptions
{
    /** argv[0] is the executable path (execve, no PATH search). */
    std::vector<std::string> argv;

    /** Extra "NAME=value" entries appended to the inherited
     *  environment (later entries win over inherited ones). */
    std::vector<std::string> extraEnv;

    /** Give the child a pipe on stdin / stdout. When false the fd is
     *  inherited from the parent. stderr is always inherited so
     *  worker diagnostics land in the supervisor's stderr. @{ */
    bool pipeStdin = true;
    bool pipeStdout = true;
    /** @} */
};

/** Terminal (or not-yet-terminal) state of a child, as classified
 *  from waitpid(): a normal exit and a fatal signal are different
 *  failure modes and the supervisor reports them differently. */
struct ExitStatus
{
    enum class Kind : std::uint8_t
    {
        Running,  ///< Not terminal yet (WNOHANG saw no change).
        Exited,   ///< Normal termination; exitCode is valid.
        Signaled, ///< Killed by a signal; signal is valid.
    };

    Kind kind = Kind::Running;
    int exitCode = 0;
    int signal = 0;

    bool running() const { return kind == Kind::Running; }
    bool exitedOk() const
    {
        return kind == Kind::Exited && exitCode == 0;
    }
    /** A death the supervisor must contain: any fatal signal, or an
     *  exit code that is not 0 (complete). */
    bool crashed() const
    {
        return kind == Kind::Signaled ||
               (kind == Kind::Exited && exitCode != 0);
    }

    /** "exit 0" / "exit 3" / "signal 11 (Segmentation fault)". */
    std::string describe() const;
};

/**
 * One forked child, with stdin/stdout piped or inherited.
 *
 * Movable, not copyable. The destructor is a containment backstop: a
 * still-running child is SIGKILLed and reaped so a throwing
 * supervisor never leaks orphan workers.
 */
class Subprocess
{
  public:
    Subprocess() = default;
    ~Subprocess();

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;
    Subprocess(Subprocess &&other) noexcept;
    Subprocess &operator=(Subprocess &&other) noexcept;

    /**
     * fork + execve. Throws IoError when the pipes or fork fail; an
     * exec failure surfaces as the child exiting 127 (with a message
     * on stderr), which poll() reports like any other death.
     */
    void spawn(const SpawnOptions &opts);

    bool started() const { return pid_ > 0 || !status_.running(); }
    pid_t pid() const { return pid_; }

    /** Close the stdin pipe: the child reads EOF. */
    void closeStdin();

    /**
     * Drain whatever the child has written to stdout, without
     * blocking.
     * @return the bytes read ("" when nothing is pending or the pipe
     *         is closed).
     */
    std::string readAvailable();

    /**
     * Non-blocking waitpid. The terminal status is cached: calling
     * poll() after the child died keeps returning the same
     * classification.
     */
    ExitStatus poll();

    /**
     * Wait up to `timeoutSeconds` (monotonic) for termination,
     * draining stdout while waiting so a chatty child cannot
     * deadlock on a full pipe. Does NOT kill on timeout — the caller
     * decides whether a survivor is hung.
     *
     * @param drained Stdout bytes read while waiting are appended
     *                here when non-null.
     */
    ExitStatus wait(double timeoutSeconds,
                    std::string *drained = nullptr);

    /** Send `sig`; ESRCH (already dead) is ignored. */
    void sendSignal(int sig);

    /** SIGKILL and reap (blocking; SIGKILL cannot be ignored). */
    void killHard();

  private:
    void reset() noexcept;

    pid_t pid_ = -1;
    int stdinFd_ = -1;
    int stdoutFd_ = -1;
    ExitStatus status_;
};

} // namespace powerchop

#endif // POWERCHOP_COMMON_SUBPROCESS_HH
