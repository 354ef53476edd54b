/**
 * @file
 * Tests for the child-process layer under the shard supervisor:
 * spawn/exec, pipe plumbing, non-blocking reads, waitpid
 * classification (exit code vs. fatal signal), kill/reap hygiene,
 * and the monotonic deadline helper.
 */

#include <cmath>
#include <csignal>
#include <utility>
#include <gtest/gtest.h>

#include "common/clock.hh"
#include "common/subprocess.hh"

using namespace powerchop;

namespace
{

SpawnOptions
shell(const std::string &script)
{
    SpawnOptions opts;
    opts.argv = {"/bin/sh", "-c", script};
    return opts;
}

// ---------------------------------------------------------------------
// MonotonicDeadline
// ---------------------------------------------------------------------

TEST(MonotonicDeadline, UnarmedNeverExpires)
{
    const MonotonicDeadline none;
    EXPECT_FALSE(none.armed());
    EXPECT_FALSE(none.expired());
    EXPECT_TRUE(std::isinf(none.remainingSeconds()));

    // "0 disables" needs no special-casing at call sites.
    const MonotonicDeadline zero(0);
    EXPECT_FALSE(zero.armed());
    EXPECT_FALSE(zero.expired());
}

TEST(MonotonicDeadline, ArmedExpiresAndCountsDown)
{
    const MonotonicDeadline soon(0.01);
    EXPECT_TRUE(soon.armed());
    EXPECT_LE(soon.remainingSeconds(), 0.01);
    const double t0 = monotonicSeconds();
    while (!soon.expired() && monotonicSeconds() - t0 < 5.0) {
    }
    EXPECT_TRUE(soon.expired());
    EXPECT_EQ(soon.remainingSeconds(), 0.0);

    const MonotonicDeadline later(3600);
    EXPECT_FALSE(later.expired());
    EXPECT_GT(later.remainingSeconds(), 3599.0);
}

// ---------------------------------------------------------------------
// Spawn, stdio pipes and output draining
// ---------------------------------------------------------------------

TEST(Subprocess, CapturesStdoutAndCleanExit)
{
    Subprocess p;
    p.spawn(shell("echo out-line"));
    std::string out;
    const ExitStatus st = p.wait(10.0, &out);
    EXPECT_TRUE(st.exitedOk());
    EXPECT_FALSE(st.crashed());
    EXPECT_EQ(out, "out-line\n");
    EXPECT_EQ(st.describe(), "exit 0");
}

TEST(Subprocess, StdinPipeFeedsChildAndEofEndsIt)
{
    Subprocess p;
    p.spawn(shell("cat"));
    EXPECT_TRUE(p.writeStdin("fed through the pipe\n"));
    p.closeStdin(); // EOF: cat drains and exits
    std::string out;
    const ExitStatus st = p.wait(10.0, &out);
    EXPECT_TRUE(st.exitedOk());
    EXPECT_EQ(out, "fed through the pipe\n");
}

TEST(Subprocess, ExtraEnvReachesChild)
{
    SpawnOptions opts = shell("printf '%s' \"$POWERCHOP_TEST_VAR\"");
    opts.extraEnv = {"POWERCHOP_TEST_VAR=from-parent"};
    Subprocess p;
    p.spawn(opts);
    std::string out;
    EXPECT_TRUE(p.wait(10.0, &out).exitedOk());
    EXPECT_EQ(out, "from-parent");
}

TEST(Subprocess, ReadAvailableNeverBlocks)
{
    // A child that stays silent must not stall the caller: the
    // supervisor's event loop polls dozens of workers per tick.
    Subprocess p;
    p.spawn(shell("exec sleep 10"));
    const double t0 = monotonicSeconds();
    EXPECT_EQ(p.readAvailable(), "");
    EXPECT_LT(monotonicSeconds() - t0, 1.0);
    p.killHard();
}

// ---------------------------------------------------------------------
// Death classification
// ---------------------------------------------------------------------

TEST(Subprocess, ErrorExitIsClassifiedByCode)
{
    Subprocess p;
    p.spawn(shell("exit 7"));
    const ExitStatus st = p.wait(10.0);
    EXPECT_EQ(st.kind, ExitStatus::Kind::Exited);
    EXPECT_EQ(st.exitCode, 7);
    EXPECT_TRUE(st.crashed());
    EXPECT_FALSE(st.exitedOk());
    EXPECT_EQ(st.describe(), "exit 7");
}

TEST(Subprocess, FatalSignalIsClassifiedApartFromExit)
{
    // "killed by a signal" and "exited non-zero" are different
    // failure modes: the supervisor reports a crash with the signal
    // name, not a fabricated exit code.
    Subprocess p;
    p.spawn(shell("kill -SEGV $$"));
    const ExitStatus st = p.wait(10.0);
    EXPECT_EQ(st.kind, ExitStatus::Kind::Signaled);
    EXPECT_EQ(st.signal, SIGSEGV);
    EXPECT_TRUE(st.crashed());
    EXPECT_NE(st.describe().find("signal 11"), std::string::npos);
}

TEST(Subprocess, KillHardReapsAndPollStaysTerminal)
{
    Subprocess p;
    p.spawn(shell("exec sleep 30"));
    EXPECT_TRUE(p.poll().running());
    p.killHard();
    const ExitStatus st = p.poll();
    EXPECT_EQ(st.kind, ExitStatus::Kind::Signaled);
    EXPECT_EQ(st.signal, SIGKILL);
    // The terminal classification is cached, not re-derived.
    EXPECT_EQ(p.poll().signal, SIGKILL);
}

TEST(Subprocess, ExecFailureSurfacesAsExit127)
{
    Subprocess p;
    SpawnOptions opts;
    opts.argv = {"/nonexistent/powerchop-worker"};
    p.spawn(opts);
    const ExitStatus st = p.wait(10.0);
    EXPECT_EQ(st.kind, ExitStatus::Kind::Exited);
    EXPECT_EQ(st.exitCode, 127);
}

TEST(Subprocess, WriteToDeadChildReportsEpipeNotSignal)
{
    // The worker dying between poll() and writeStdin() must surface
    // as a false return, not a SIGPIPE that kills the supervisor.
    Subprocess p;
    p.spawn(shell("exit 0"));
    while (p.poll().running()) {
    }
    // The pipe buffer can absorb small writes even with no reader
    // process; keep writing until the kernel reports the break.
    const std::string chunk(64 * 1024, 'x');
    bool saw_epipe = false;
    for (int i = 0; i < 64 && !saw_epipe; ++i)
        saw_epipe = !p.writeStdin(chunk);
    EXPECT_TRUE(saw_epipe);
}

TEST(Subprocess, LargeBatchToSlowReaderIsDeliveredIntact)
{
    // Regression: the stdin pipe is nonblocking, so a batch larger
    // than the pipe capacity (~64 KiB on Linux) written to a child
    // that isn't reading yet hits EAGAIN mid-write. writeStdin must
    // park in poll(POLLOUT) and resume, not drop the tail or fail.
    Subprocess p;
    p.spawn(shell("sleep 0.3; wc -c"));
    const std::string batch(340 * 1024 + 17, 'k');
    EXPECT_TRUE(p.writeStdin(batch));
    p.closeStdin();
    std::string out;
    const ExitStatus st = p.wait(30.0, &out);
    EXPECT_TRUE(st.exitedOk());
    EXPECT_EQ(out, std::to_string(batch.size()) + "\n")
        << "child saw a truncated batch";
}

TEST(Subprocess, WaitTimeoutLeavesChildRunning)
{
    // wait() never kills on timeout: whether a survivor is a hang
    // to SIGKILL is the supervisor's call.
    Subprocess p;
    p.spawn(shell("exec sleep 30"));
    const double t0 = monotonicSeconds();
    const ExitStatus st = p.wait(0.05);
    EXPECT_TRUE(st.running());
    EXPECT_LT(monotonicSeconds() - t0, 5.0);
    p.killHard();
    EXPECT_FALSE(p.poll().running());
}

TEST(Subprocess, DestructorContainsRunningChild)
{
    // A throwing supervisor must not leak orphan workers; the
    // destructor SIGKILLs and reaps. Observable here as: the block
    // finishes promptly instead of waiting out the sleep.
    const double t0 = monotonicSeconds();
    {
        Subprocess p;
        p.spawn(shell("exec sleep 30"));
        EXPECT_TRUE(p.poll().running());
    }
    EXPECT_LT(monotonicSeconds() - t0, 5.0);
}

TEST(Subprocess, MoveTransfersOwnership)
{
    Subprocess a;
    a.spawn(shell("echo moved"));
    Subprocess b = std::move(a);
    std::string out;
    EXPECT_TRUE(b.wait(10.0, &out).exitedOk());
    EXPECT_EQ(out, "moved\n");
}

} // namespace
