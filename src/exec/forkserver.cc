#include "exec/forkserver.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>

#include "exec/fault_plan.h"
#include "exec/process_runner.h"

namespace afex {
namespace exec {

namespace {

using Clock = std::chrono::steady_clock;

// How long Shutdown lets a server wind down after control-pipe EOF.
constexpr uint64_t kShutdownGraceMs = 2000;

// Milliseconds until the next escalation step of a test started at `start`:
// SIGTERM at the timeout, SIGKILL kill_grace_ms later, then a bounded wait
// for the status message, which must arrive promptly after SIGKILL.
uint64_t NextSlice(const ForkserverOptions& options, Clock::time_point start,
                   bool term_sent, bool kill_sent) {
  if (kill_sent) {
    return 2000;
  }
  const uint64_t deadline = options.timeout_ms + (term_sent ? options.kill_grace_ms : 0);
  const uint64_t elapsed = ElapsedMs(start);
  return deadline > elapsed ? deadline - elapsed : 0;
}

bool WriteAll(int fd, const void* buf, size_t len) {
  const char* p = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < len) {
    ssize_t n = ::write(fd, p + put, len - put);
    if (n > 0) {
      put += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ForkserverClient::ForkserverClient(ForkserverOptions options)
    : options_(std::move(options)) {}

ForkserverClient::~ForkserverClient() { Shutdown(); }

bool ForkserverClient::SpawnServer(std::string& error) {
  // Request writes race against server death by design; the failure must
  // come back as EPIPE, not as a fatal signal to the campaign process.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { ::signal(SIGPIPE, SIG_IGN); });

  if (options_.argv.empty()) {
    error = "forkserver: empty target argv";
    return false;
  }
  if (options_.preload.empty()) {
    error = "forkserver: no interposer to preload";
    return false;
  }

  std::vector<std::pair<std::string, std::string>> env = options_.env;
  env.emplace_back(kForkserverEnvVar, options_.persistent ? kForkserverEnvPersistent
                                                          : kForkserverEnvFork);
  // Plans travel over the pipe; a leaked control file from the outer
  // environment must not arm anything.
  env.emplace_back("AFEX_PLAN", "");
  const ExecImage image(options_.argv, env, options_.preload);

  // Close-on-exec from birth, so a server another thread spawns meanwhile
  // cannot inherit our ends (a held status write end would turn this
  // server's death into a timeout). The child's dup2/F_DUPFD clear it.
  int ctl[2] = {-1, -1};
  int status[2] = {-1, -1};
  int out[2] = {-1, -1};
  const bool piped = ::pipe2(ctl, O_CLOEXEC) == 0 && ::pipe2(status, O_CLOEXEC) == 0 &&
                     ::pipe2(out, O_CLOEXEC) == 0;
  const pid_t pid = piped ? ::fork() : -1;
  if (pid < 0) {
    for (int fd : {ctl[0], ctl[1], status[0], status[1], out[0], out[1]}) {
      CloseFd(fd);
    }
    error = piped ? "forkserver: fork() failed" : "forkserver: pipe() failed";
    return false;
  }

  if (pid == 0) {
    // ---- child (the server-to-be): async-signal-safe calls only ----
    // Lift the server ends clear of the protocol fds before pinning them,
    // so a pipe() that happened to return 198/199 cannot be clobbered.
    int ctl_r = ::fcntl(ctl[0], F_DUPFD, 210);
    int status_w = ::fcntl(status[1], F_DUPFD, 210);
    if (ctl_r < 0 || status_w < 0) {
      ::_exit(127);
    }
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(out[1], STDERR_FILENO);
    if (::dup2(ctl_r, kForkserverCtlFd) < 0 ||
        ::dup2(status_w, kForkserverStatusFd) < 0) {
      ::_exit(127);
    }
    for (int fd : {ctl[0], ctl[1], status[0], status[1], out[0], out[1], ctl_r,
                   status_w}) {
      if (fd > STDERR_FILENO && fd != kForkserverCtlFd && fd != kForkserverStatusFd) {
        ::close(fd);
      }
    }
    if (!options_.working_dir.empty() &&
        ::chdir(options_.working_dir.c_str()) != 0) {
      ::_exit(126);
    }
    ::execvpe(image.argv[0], image.argv.data(), image.envp.data());
    ::_exit(127);
  }

  // ---- parent ----
  ::close(ctl[0]);
  ::close(status[1]);
  ::close(out[1]);
  ctl_write_ = ctl[1];
  status_read_ = status[0];
  out_read_ = out[0];
  ::fcntl(status_read_, F_SETFL, O_NONBLOCK);
  ::fcntl(out_read_, F_SETFL, O_NONBLOCK);
  server_pid_ = pid;
  msg_have_ = 0;
  persistent_acked_ = false;
  iterations_ = 0;
  death_status_valid_ = false;
  return true;
}

void ForkserverClient::DrainOutput() {
  if (out_read_ >= 0) {
    DrainAvailable(out_read_, output_, options_.max_output_bytes);
  }
}

ForkserverClient::Wait ForkserverClient::WaitMsg(FsMsg& msg, uint64_t deadline_ms) {
  const Clock::time_point start = Clock::now();
  while (true) {
    ssize_t n = ::read(status_read_, msg_buf_ + msg_have_, sizeof(FsMsg) - msg_have_);
    if (n > 0) {
      msg_have_ += static_cast<size_t>(n);
      if (msg_have_ == sizeof(FsMsg)) {
        std::memcpy(&msg, msg_buf_, sizeof(FsMsg));
        msg_have_ = 0;
        return Wait::kMsg;
      }
      continue;
    }
    if (n == 0) {
      return Wait::kDeath;  // EOF: only the server holds the write end
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Wait::kDeath;
    }
    uint64_t elapsed = ElapsedMs(start);
    if (elapsed >= deadline_ms) {
      return Wait::kTimeout;
    }
    uint64_t remaining = deadline_ms - elapsed;
    struct pollfd fds[2] = {{status_read_, POLLIN, 0}, {out_read_, POLLIN, 0}};
    ::poll(fds, 2, static_cast<int>(remaining < 20 ? remaining : 20));
    // Keep the output pipe moving: a child that writes more than the pipe
    // buffer would otherwise deadlock against the server's waitpid.
    DrainOutput();
  }
}

bool ForkserverClient::WriteRequest(uint32_t test_id, const std::vector<FaultSpec>& specs,
                                    uint32_t seq) {
  std::vector<FsPlanEntry> entries;
  if (!EncodePlanEntries(specs, entries)) {
    return false;
  }
  char buf[sizeof(FsRequest) + kFsMaxPlans * sizeof(FsPlanEntry)];
  FsRequest req;
  req.magic = kFsRequestMagic;
  req.test_seq = seq;
  req.test_id = test_id;
  req.plan_count = static_cast<uint32_t>(entries.size());
  std::memcpy(buf, &req, sizeof(req));
  size_t len = sizeof(req);
  for (const FsPlanEntry& entry : entries) {
    std::memcpy(buf + len, &entry, sizeof(entry));
    len += sizeof(entry);
  }
  return WriteAll(ctl_write_, buf, len);
}

void ForkserverClient::ReapServer(uint64_t kill_ms) {
  if (server_pid_ > 0) {
    // What the server still writes is no test's output.
    std::string discard;
    const ChildExit child =
        AwaitChild(server_pid_, out_read_, discard, 0, kNoDeadline, kill_ms);
    last_death_status_ = child.status;
    death_status_valid_ = child.reaped;
  }
  server_pid_ = -1;
  hello_pending_ = false;
  CloseFd(ctl_write_);
  CloseFd(status_read_);
  CloseFd(out_read_);
  msg_have_ = 0;
  persistent_acked_ = false;
  iterations_ = 0;
}

void ForkserverClient::Shutdown() {
  // EOF on the control pipe is the graceful-stop signal: the forkserver
  // loop _exits, the persistent loop returns into the target's main.
  CloseFd(ctl_write_);
  ReapServer(kShutdownGraceMs);
}

void ForkserverClient::Launch() {
  std::string error;  // a failed spawn is retried, and reported, on first use
  if (server_pid_ <= 0 && SpawnServer(error)) {
    hello_pending_ = true;
  }
}

bool ForkserverClient::EnsureServer(std::string& error) {
  if (server_pid_ > 0 && !hello_pending_) {
    return true;
  }
  obs::PhaseTimer timer(metrics_, obs::Phase::kRealFsRestart);
  const bool respawn = generations_ > 0;
  if (server_pid_ <= 0 && !SpawnServer(error)) {
    return false;
  }
  hello_pending_ = false;
  if (!ReadHello(error)) {
    KillServer();
    return false;
  }
  ++generations_;
  if (respawn) {
    ++restarts_;
    if (metrics_ != nullptr) {
      metrics_->AddCounter("real.fs_restarts", 1);
    }
  }
  return true;
}

bool ForkserverClient::ReadHello(std::string& error) {
  FsMsg msg;
  switch (WaitMsg(msg, options_.handshake_timeout_ms)) {
    case Wait::kMsg:
      break;
    case Wait::kDeath:
      error = "forkserver: server died before handshake (target missing or "
              "interposer not preloaded?)";
      return false;
    case Wait::kTimeout:
      error = "forkserver: handshake timeout";
      return false;
  }
  if (msg.magic != kFsMsgMagic ||
      msg.kind != static_cast<uint32_t>(FsMsgKind::kHello) ||
      msg.value != static_cast<int32_t>(kForkserverProtocolVersion)) {
    error = "forkserver: bad hello (magic/version mismatch)";
    return false;
  }
  const bool hello_persistent = (msg.seq & kFsHelloFlagPersistent) != 0;
  if (hello_persistent != options_.persistent) {
    error = "forkserver: hello mode does not match request";
    return false;
  }
  return true;
}

ForkserverTestResult ForkserverClient::RunTest(uint32_t test_id,
                                               const std::vector<FaultSpec>& specs,
                                               uint32_t seq) {
  // Reject an unencodable plan up front: a failed request write must only
  // ever mean a dead server.
  std::vector<FsPlanEntry> probe;
  if (!EncodePlanEntries(specs, probe)) {
    ForkserverTestResult result;
    result.error = "forkserver: unencodable fault plan";
    return result;
  }
  return options_.persistent ? RunPersistent(test_id, specs, seq)
                             : RunForked(test_id, specs, seq);
}

ForkserverTestResult ForkserverClient::RunForked(uint32_t test_id,
                                                 const std::vector<FaultSpec>& specs,
                                                 uint32_t seq) {
  ForkserverTestResult result;
  output_.clear();
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string error;
    if (!EnsureServer(error)) {
      result.error = error;
      return result;
    }
    if (!WriteRequest(test_id, specs, seq)) {
      NoteServerDeath();
      result.server_restarted = true;
      continue;
    }
    FsMsg msg;
    Wait w = WaitMsg(msg, options_.handshake_timeout_ms);
    if (w == Wait::kDeath) {
      NoteServerDeath();
      result.server_restarted = true;
      continue;
    }
    if (w == Wait::kTimeout || msg.magic != kFsMsgMagic || msg.seq != seq) {
      KillServer();
      result.server_restarted = true;
      continue;
    }
    if (msg.kind == static_cast<uint32_t>(FsMsgKind::kChildStatus) && msg.value == -1) {
      result.error = "forkserver: server could not fork a child";
      return result;
    }
    if (msg.kind != static_cast<uint32_t>(FsMsgKind::kChildPid)) {
      KillServer();
      result.server_restarted = true;
      continue;
    }
    const pid_t child = static_cast<pid_t>(msg.value);
    const Clock::time_point start = Clock::now();
    bool term_sent = false;
    bool kill_sent = false;
    bool retry = false;
    while (true) {
      Wait w2 = WaitMsg(msg, NextSlice(options_, start, term_sent, kill_sent));
      if (w2 == Wait::kMsg) {
        if (msg.magic != kFsMsgMagic ||
            msg.kind != static_cast<uint32_t>(FsMsgKind::kChildStatus) ||
            msg.seq != seq) {
          KillServer();
          result.server_restarted = true;
          retry = true;
          break;
        }
        int status = msg.value;
        result.ran = true;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        if (status >= 0 && WIFEXITED(status)) {
          result.exited = true;
          result.exit_code = WEXITSTATUS(status);
        } else if (status >= 0 && WIFSIGNALED(status)) {
          result.term_signal = WTERMSIG(status);
        }
        DrainOutput();
        result.output = output_;
        return result;
      }
      if (w2 == Wait::kDeath) {
        NoteServerDeath();
        result.server_restarted = true;
        retry = true;
        break;
      }
      if (!term_sent) {
        result.timed_out = true;
        SignalTree(child, SIGTERM);
        term_sent = true;
      } else if (!kill_sent) {
        SignalTree(child, SIGKILL);
        kill_sent = true;
      } else {
        // The server itself is wedged; nothing more to learn from it.
        KillServer();
        result.server_restarted = true;
        result.ran = true;
        result.timed_out = true;
        result.kill_escalated = true;
        result.term_signal = SIGKILL;
        result.output = output_;
        return result;
      }
    }
    if (retry) {
      continue;
    }
  }
  if (result.error.empty()) {
    result.error = "forkserver: unavailable after restart";
  }
  return result;
}

ForkserverTestResult ForkserverClient::RunPersistent(uint32_t test_id,
                                                     const std::vector<FaultSpec>& specs,
                                                     uint32_t seq) {
  ForkserverTestResult result;
  output_.clear();
  // Planned recycle: bound the state an exit()-interrupted iteration can
  // leak (fds, heap) by restarting the process every N iterations.
  if (server_pid_ > 0 && iterations_ >= options_.persistent_max_iterations) {
    Shutdown();
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string error;
    if (!EnsureServer(error)) {
      result.error = error;
      return result;
    }
    // A failed write means the server is already dead; before the first
    // ack that is the same non-adopting death as EOF while awaiting it.
    const bool written = WriteRequest(test_id, specs, seq);
    if (!written && persistent_acked_) {
      NoteServerDeath();
      result.server_restarted = true;
      continue;
    }
    if (!persistent_acked_) {
      FsMsg ack;
      Wait w = written ? WaitMsg(ack, options_.handshake_timeout_ms) : Wait::kDeath;
      if (w == Wait::kDeath && !ever_acked_) {
        // Died without ever reaching the loop: the target does not adopt
        // afex_persistent_run (or crashes pre-loop, where no fault can be
        // armed). Downgrade permanently and rerun there.
        NoteServerDeath();
        options_.persistent = false;
        if (metrics_ != nullptr) {
          metrics_->AddCounter("real.persistent_fallback", 1);
        }
        ForkserverTestResult forked = RunForked(test_id, specs, seq);
        forked.persistent_fell_back = true;
        forked.server_restarted = forked.server_restarted || result.server_restarted;
        return forked;
      }
      if (w != Wait::kMsg || ack.magic != kFsMsgMagic ||
          ack.kind != static_cast<uint32_t>(FsMsgKind::kPersistentAck)) {
        KillServer();
        result.server_restarted = true;
        continue;
      }
      persistent_acked_ = true;
      ever_acked_ = true;
    }
    const Clock::time_point start = Clock::now();
    bool term_sent = false;
    bool kill_sent = false;
    FsMsg msg;
    while (true) {
      Wait w2 = WaitMsg(msg, NextSlice(options_, start, term_sent, kill_sent));
      if (w2 == Wait::kMsg) {
        if (msg.magic != kFsMsgMagic ||
            msg.kind != static_cast<uint32_t>(FsMsgKind::kIterStatus) ||
            msg.seq != seq) {
          KillServer();
          result.server_restarted = true;
          break;  // protocol desync: retry on a fresh server
        }
        result.ran = true;
        result.exited = true;
        result.exit_code = msg.value;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        ++iterations_;
        DrainOutput();
        result.output = output_;
        return result;
      }
      if (w2 == Wait::kDeath) {
        // The iteration took the whole process down: crash (signal), or a
        // direct _exit that bypassed the exit() wrapper. The death status
        // IS the test observation; the next test gets a fresh server.
        NoteServerDeath();
        result.ran = true;
        result.timed_out = term_sent;
        result.kill_escalated = kill_sent;
        if (death_status_valid_ && WIFSIGNALED(last_death_status_) && !term_sent) {
          result.term_signal = WTERMSIG(last_death_status_);
        } else if (death_status_valid_ && WIFEXITED(last_death_status_) && !term_sent) {
          result.exited = true;
          result.exit_code = WEXITSTATUS(last_death_status_);
        } else if (term_sent) {
          result.term_signal = death_status_valid_ && WIFSIGNALED(last_death_status_)
                                   ? WTERMSIG(last_death_status_)
                                   : SIGTERM;
        }
        result.output = output_;
        return result;
      }
      // Timeout: a hung iteration hangs the whole server; kill the process.
      if (!term_sent) {
        result.timed_out = true;
        ::kill(server_pid_, SIGTERM);
        term_sent = true;
      } else if (!kill_sent) {
        ::kill(server_pid_, SIGKILL);
        kill_sent = true;
      } else {
        KillServer();
        result.ran = true;
        result.timed_out = true;
        result.kill_escalated = true;
        result.term_signal = SIGKILL;
        result.output = output_;
        return result;
      }
    }
  }
  if (result.error.empty()) {
    result.error = "forkserver: unavailable after restart";
  }
  return result;
}

}  // namespace exec
}  // namespace afex
