// Fork/exec runner for real targets — the node manager's "start the system
// under test" script (paper §6.1) as a library. Runs one command in a
// sandbox working directory with LD_PRELOAD and the AFEX control
// environment set, captures combined stdout/stderr, enforces a wall-clock
// timeout with SIGTERM → SIGKILL escalation, and reports how the process
// died (exit code, terminating signal, or timeout). Each child leads its own
// process group, so the escalation also reaches whatever it forked.
// Children are awaited on a pidfd (Linux >= 5.3), so the parent wakes the
// moment one exits.
#ifndef AFEX_EXEC_PROCESS_RUNNER_H_
#define AFEX_EXEC_PROCESS_RUNNER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace afex {
namespace exec {

struct ProcessRequest {
  // argv[0] is the executable (resolved via PATH, execvp semantics).
  std::vector<std::string> argv;
  // Working directory for the child; must exist. Empty = inherit.
  std::string working_dir;
  // Extra environment (AFEX_PLAN, AFEX_FEEDBACK, ...), appended to the
  // inherited environment.
  std::vector<std::pair<std::string, std::string>> env;
  // Shared library to LD_PRELOAD into the child ("" = none).
  std::string preload;
  // Wall-clock budget. On expiry the child gets SIGTERM; if it is still
  // alive kill_grace_ms later, SIGKILL.
  uint64_t timeout_ms = 5000;
  uint64_t kill_grace_ms = 200;
  // Combined stdout+stderr capture cap; output beyond it is discarded (the
  // child keeps a writable pipe, so it never blocks on a full buffer).
  size_t max_output_bytes = 1 << 16;
};

struct ProcessResult {
  bool started = false;   // fork/exec plumbing succeeded
  std::string start_error;  // why started == false
  bool exited = false;    // terminated via exit(); exit_code valid
  int exit_code = -1;
  int term_signal = 0;    // non-zero when terminated by a signal
  bool timed_out = false; // the runner had to kill it
  bool kill_escalated = false;  // SIGTERM grace expired; SIGKILL was sent
  std::string output;     // combined stdout+stderr, possibly truncated
  double wall_seconds = 0.0;
  // Timing breakdown on the obs::NowNs timebase, filled unconditionally
  // (three clock reads are noise next to a fork): spawn covers env
  // materialization through fork-return, wait covers the child's lifetime
  // until it is reaped.
  uint64_t spawn_start_ns = 0;
  uint64_t spawn_ns = 0;
  uint64_t wait_ns = 0;
};

ProcessResult RunProcess(const ProcessRequest& request);

// How AwaitChild's child ended.
struct ChildExit {
  bool reaped = false;  // `status` holds the waitpid status
  int status = 0;
  bool term_sent = false;
  bool kill_sent = false;
  int pidfd_errno = 0;  // pidfd_open failed; unless ESRCH, the child was SIGKILLed and reaped
};

// An AwaitChild deadline that never fires.
inline constexpr uint64_t kNoDeadline = UINT64_MAX;

// The exec layer's one child waiter. Polls a pidfd of child `pid` together
// with the nonblocking output pipe `out_fd` (-1 = none), draining it into
// `out` up to `cap`, until the child exits; then reaps it and drains what
// the pipe still holds. Reaping never waits for pipe EOF, which a grandchild
// may hold off. The child gets SIGTERM `term_ms` and SIGKILL `kill_ms` after
// the call, through SignalTree.
ChildExit AwaitChild(pid_t pid, int out_fd, std::string& out, size_t cap,
                     uint64_t term_ms, uint64_t kill_ms);

// Sends `signal` to the process group `pid` leads — the child and whatever
// it forked — or, when `pid` leads no group (ESRCH), to `pid` alone.
// True when the signal was delivered.
bool SignalTree(pid_t pid, int signal);

// True when `signal` is one of the crash signals (SEGV, ABRT, BUS, FPE,
// ILL, TRAP) — the classification the harness maps to TestOutcome::crashed.
bool IsCrashSignal(int signal);

// A child's execvpe arguments, shared by RunProcess and the forkserver
// client: `args`, and the inherited environment with `env` applied and
// LD_PRELOAD set to `preload` (when non-empty). Built entirely pre-fork
// because with --jobs the parent is multithreaded and the forked child may
// only touch async-signal-safe calls. `argv` points into `args`.
struct ExecImage {
  ExecImage(const std::vector<std::string>& args,
            const std::vector<std::pair<std::string, std::string>>& env,
            const std::string& preload);
  ExecImage(const ExecImage&) = delete;
  std::vector<std::string> env_strings;
  std::vector<char*> argv;
  std::vector<char*> envp;
};

// Drains whatever is readable right now from a nonblocking `fd` into `out`,
// up to `cap` total bytes (excess is read and discarded so the writer never
// blocks on a full pipe). Returns false once the pipe reports EOF.
bool DrainAvailable(int fd, std::string& out, size_t cap);

// Whole milliseconds since `since` on the steady clock.
uint64_t ElapsedMs(std::chrono::steady_clock::time_point since);

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_PROCESS_RUNNER_H_
