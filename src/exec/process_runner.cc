#include "exec/process_runner.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace afex {
namespace exec {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedMs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - since).count());
}

bool DrainAvailable(int fd, std::string& out, size_t cap) {
  char buf[4096];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (out.size() < cap) {
        out.append(buf, buf + std::min<size_t>(static_cast<size_t>(n), cap - out.size()));
      }
      continue;
    }
    if (n == 0) {
      return false;  // EOF: write end fully closed
    }
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

ExecImage::ExecImage(const std::vector<std::string>& args,
                     const std::vector<std::pair<std::string, std::string>>& env,
                     const std::string& preload) {
  for (char** e = environ; *e != nullptr; ++e) {
    env_strings.emplace_back(*e);
  }
  auto set_var = [this](const std::string& key, const std::string& value) {
    std::string prefix = key + "=";
    for (std::string& entry : env_strings) {
      if (entry.rfind(prefix, 0) == 0) {
        entry = prefix + value;
        return;
      }
    }
    env_strings.push_back(prefix + value);
  };
  for (const auto& [key, value] : env) {
    set_var(key, value);
  }
  if (!preload.empty()) {
    set_var("LD_PRELOAD", preload);
  }
  for (std::string& entry : env_strings) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
}

bool IsCrashSignal(int signal) {
  switch (signal) {
    case SIGSEGV:
    case SIGABRT:
    case SIGBUS:
    case SIGFPE:
    case SIGILL:
    case SIGTRAP:
      return true;
    default:
      return false;
  }
}

ChildExit AwaitChild(pid_t pid, int out_fd, std::string& out, size_t cap,
                     uint64_t term_ms, uint64_t kill_ms) {
  ChildExit child;
  // glibc < 2.36 has no pidfd_open wrapper. The pidfd is close-on-exec.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    // ESRCH: someone else reaped it, and the pid may name a stranger now.
    child.pidfd_errno = errno;
    child.kill_sent = child.pidfd_errno != ESRCH && ::kill(pid, SIGKILL) == 0;
  }
  const Clock::time_point start = Clock::now();
  bool pipe_open = out_fd >= 0;
  while (pidfd >= 0) {
    const uint64_t elapsed = ElapsedMs(start);
    if (!child.term_sent && elapsed >= term_ms) {
      ::kill(pid, SIGTERM);
      child.term_sent = true;
    }
    if (!child.kill_sent && elapsed >= kill_ms) {
      ::kill(pid, SIGKILL);
      child.kill_sent = true;
    }
    // Sleep until the child exits, output arrives or the next deadline.
    const uint64_t next = std::min(child.term_sent ? kNoDeadline : term_ms,
                                   child.kill_sent ? kNoDeadline : kill_ms);
    const int timeout = next == kNoDeadline
                            ? -1
                            : static_cast<int>(std::min<uint64_t>(next - elapsed, 1 << 30));
    struct pollfd fds[2] = {{pidfd, POLLIN, 0}, {pipe_open ? out_fd : -1, POLLIN, 0}};
    if (::poll(fds, 2, timeout) <= 0) {
      continue;  // deadline or EINTR
    }
    if (fds[1].revents != 0) {
      pipe_open = DrainAvailable(out_fd, out, cap);
    }
    if (fds[0].revents != 0) {
      ::close(pidfd);
      break;
    }
  }
  pid_t r;
  do {
    r = ::waitpid(pid, &child.status, 0);
  } while (r < 0 && errno == EINTR);
  child.reaped = r == pid;
  if (pipe_open) {
    DrainAvailable(out_fd, out, cap);
  }
  return child;
}

ProcessResult RunProcess(const ProcessRequest& request) {
  ProcessResult result;
  result.spawn_start_ns = obs::NowNs();
  if (request.argv.empty()) {
    result.start_error = "empty argv";
    return result;
  }

  const ExecImage image(request.argv, request.env, request.preload);

  // Close-on-exec from birth: with --jobs another thread may spawn a target
  // at any moment, and it must not inherit this child's pipe.
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    result.start_error = std::string("pipe2: ") + ::strerror(errno);
    return result;
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    result.start_error = std::string("fork: ") + ::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return result;
  }

  if (pid == 0) {
    // ---- child ---- (dup2 clears close-on-exec on stdout/stderr)
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    if (!request.working_dir.empty() && ::chdir(request.working_dir.c_str()) != 0) {
      ::_exit(126);
    }
    ::execvpe(image.argv[0], image.argv.data(), image.envp.data());
    // exec failed: report via the conventional shell status.
    ::_exit(127);
  }

  // ---- parent ----
  ::close(pipe_fds[1]);
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  result.spawn_ns = obs::NowNs() - result.spawn_start_ns;

  const Clock::time_point start = Clock::now();
  const ChildExit child =
      AwaitChild(pid, pipe_fds[0], result.output, request.max_output_bytes,
                 request.timeout_ms, request.timeout_ms + request.kill_grace_ms);
  ::close(pipe_fds[0]);

  result.wait_ns = obs::NowNs() - (result.spawn_start_ns + result.spawn_ns);
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (child.pidfd_errno != 0) {
    result.start_error = std::string("pidfd_open: ") + ::strerror(child.pidfd_errno);
    return result;
  }
  result.started = true;
  result.timed_out = child.term_sent;
  result.kill_escalated = child.kill_sent;
  if (child.reaped && WIFEXITED(child.status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(child.status);
  } else if (child.reaped && WIFSIGNALED(child.status)) {
    result.term_signal = WTERMSIG(child.status);
  }
  return result;
}

}  // namespace exec
}  // namespace afex
