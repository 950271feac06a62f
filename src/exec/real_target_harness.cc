#include "exec/real_target_harness.h"

#include <elf.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/xattr.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "exec/fault_plan.h"
#include "exec/feedback_block.h"
#include "exec/forkserver.h"
#include "exec/process_runner.h"
#include "injection/libc_profile.h"
#include "injection/plan.h"
#include "util/log.h"

namespace afex {
namespace exec {

namespace {

namespace fs = std::filesystem;

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// First line of the child's output, for the journal's detail field.
std::string FirstLine(const std::string& output) {
  size_t nl = output.find('\n');
  return output.substr(0, nl == std::string::npos ? output.size() : nl);
}

// In-place sandbox recycling (the scratch-dir satellite of the forkserver
// work): unlink the entries, keep the directory. A test leaves a handful
// of WAL/data files behind; removing just those beats the old recursive
// delete + create_directories pair per run — and it is the only option in
// forkserver/persistent modes, where the server's working directory is
// pinned at exec time.
void CleanDirInPlace(const fs::path& dir) {
  std::error_code ec;
  std::vector<fs::path> entries;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    entries.push_back(it->path());
  }
  for (const fs::path& entry : entries) {
    std::error_code rm_ec;
    fs::remove_all(entry, rm_ec);
  }
}

// Where execvp would find `name` for a child that starts in `cwd` (the
// child chdirs before it execs, so relative paths resolve there), or "".
std::string ResolveLikeExecvp(const std::string& name, const fs::path& cwd) {
  if (name.find('/') != std::string::npos) {
    return (cwd / name).string();  // an absolute name replaces cwd
  }
  const char* env_path = ::getenv("PATH");
  std::istringstream dirs(env_path != nullptr ? env_path : "/bin:/usr/bin");
  for (std::string dir; std::getline(dirs, dir, ':');) {
    const fs::path candidate = cwd / (dir.empty() ? "." : dir) / name;
    std::error_code ec;
    if (fs::is_regular_file(candidate, ec) && ::access(candidate.c_str(), X_OK) == 0) {
      return candidate.string();
    }
  }
  return "";
}

// True when `argv0`, resolved like execvp from `cwd`, can idle in the
// interposer's serve loop: a dynamically linked ELF64 (it has a PT_INTERP,
// so ld.so loads the LD_PRELOAD interposer) without set-id bits or file
// capabilities (secure-execution mode drops the preload). Anything else —
// a static binary, a script, a set-id program — would run its main as the
// "server", so it is spawned afresh per run instead.
bool ServesFromForkserver(const std::string& argv0, const std::string& cwd) {
  const std::string path = ResolveLikeExecvp(argv0, cwd);
  const int fd = path.empty() ? -1 : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  struct stat st;
  Elf64_Ehdr header;
  bool interp = false;
  if (::fstat(fd, &st) == 0 && (st.st_mode & (S_ISUID | S_ISGID)) == 0 &&
      ::fgetxattr(fd, "security.capability", nullptr, 0) < 0 &&
      ::pread(fd, &header, sizeof(header), 0) == static_cast<ssize_t>(sizeof(header)) &&
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) == 0 &&
      header.e_ident[EI_CLASS] == ELFCLASS64 && header.e_phentsize == sizeof(Elf64_Phdr)) {
    for (Elf64_Half i = 0; i < header.e_phnum && !interp; ++i) {
      Elf64_Phdr phdr;
      const off_t at = static_cast<off_t>(header.e_phoff + i * sizeof(phdr));
      if (::pread(fd, &phdr, sizeof(phdr), at) != static_cast<ssize_t>(sizeof(phdr))) {
        break;
      }
      interp = phdr.p_type == PT_INTERP;
    }
  }
  ::close(fd);
  return interp;
}

// How one test's process terminated, normalized across the three exec
// modes so the outcome translation below is written once.
struct RawRun {
  bool started = false;
  bool exited = false;
  int exit_code = -1;
  int term_signal = 0;
  bool timed_out = false;
  bool kill_escalated = false;
  std::string output;
  std::string start_error;  // why started == false
};

}  // namespace

std::vector<std::string> InterposableFunctions() {
  std::vector<std::string> names;
  for (const FunctionErrorProfile& f : LibcProfile::Default().functions()) {
    if (InterposedSlot(f.function.c_str()) >= 0) {
      names.push_back(f.function);
    }
  }
  return names;
}

static_assert(kEdgeBlockBase >= kMaxInterposedFunctions,
              "edge block ids must sit above every possible proxy slot id");

RealTargetHarness::RealTargetHarness(RealTargetConfig config)
    : config_(std::move(config)),
      // Edge mode starts with just the offset as a placeholder universe;
      // the first feedback block carrying edge_total resizes it to the
      // target's real region length.
      coverage_(config_.use_edges ? kEdgeBlockBase : kInterposedFunctionCount,
                /*recovery_base=*/0) {
  if (config_.functions.empty()) {
    config_.functions = InterposableFunctions();
  }
  // The child runs inside the per-run sandbox, so caller-relative paths
  // must be pinned down now. A bare command name (no '/') keeps execvp
  // PATH-lookup semantics.
  std::error_code ec;
  if (!config_.target_argv.empty() &&
      config_.target_argv[0].find('/') != std::string::npos) {
    config_.target_argv[0] = fs::absolute(config_.target_argv[0], ec).string();
  }
  if (!config_.interposer_path.empty()) {
    config_.interposer_path = fs::absolute(config_.interposer_path, ec).string();
  }
  if (!config_.target_argv.empty()) {
    target_name_ = Basename(config_.target_argv[0]);
  }
  if (config_.work_root.empty()) {
    std::string pattern =
        (fs::temp_directory_path() / "afex_real_XXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) {
      work_root_.assign(buf.data());
      own_work_root_ = true;
    } else {
      work_root_ = ".";
    }
  } else {
    work_root_ = config_.work_root;
    std::error_code ec2;
    fs::create_directories(work_root_, ec2);
  }
  // Recycled per-harness scratch: mkdtemp keeps --jobs nodes that share an
  // explicit work root out of each other's sandboxes.
  {
    std::string pattern = (fs::path(work_root_) / "wXXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    instance_dir_ = ::mkdtemp(buf.data()) != nullptr ? std::string(buf.data())
                                                     : work_root_;
  }
  sandbox_dir_ = (fs::path(instance_dir_) / "sandbox").string();
  plan_path_ = (fs::path(instance_dir_) / "plan.afex").string();
  feedback_path_ = (fs::path(instance_dir_) / "feedback.afexfb").string();
  fs::create_directories(sandbox_dir_, ec);
}

RealTargetHarness::~RealTargetHarness() {
  // Stop the servers before their working directory disappears.
  forkserver_.reset();
  recovery_server_.reset();
  verify_server_.reset();
  std::error_code ec;
  if (own_work_root_ && !config_.keep_scratch) {
    fs::remove_all(work_root_, ec);
  } else if (!config_.keep_scratch && instance_dir_ != work_root_) {
    fs::remove_all(instance_dir_, ec);
  }
}

void RealTargetHarness::set_metrics_sink(obs::MetricsSink* sink) {
  metrics_ = sink;
  for (ForkserverClient* client :
       {forkserver_.get(), recovery_server_.get(), verify_server_.get()}) {
    if (client != nullptr) {
      client->set_metrics_sink(sink);
    }
  }
}

bool RealTargetHarness::EnsureForkserver(std::string& why) {
  if (forkserver_ != nullptr) {
    return true;
  }
  // The server maps the feedback file once, in its constructor: the file
  // must exist (and keeps its identity across every test and respawn).
  if (!CreateFeedbackFile(feedback_path_.c_str())) {
    why = "exec: cannot create feedback file " + feedback_path_;
    return false;
  }
  ForkserverOptions opts;
  opts.argv = config_.target_argv;
  bool has_placeholder = false;
  for (const std::string& arg : opts.argv) {
    if (arg.find("{test}") != std::string::npos) {
      has_placeholder = true;
      break;
    }
  }
  if (!has_placeholder) {
    opts.argv.emplace_back("{test}");
  }
  opts.working_dir = sandbox_dir_;
  opts.preload = config_.interposer_path;
  opts.env = {{"AFEX_FEEDBACK", feedback_path_}};
  opts.persistent = config_.exec_mode == ExecMode::kPersistent;
  opts.timeout_ms = config_.timeout_ms;
  opts.max_output_bytes = config_.max_output_bytes;
  // Recovery and verify get forkservers of their own, so each phase run is
  // a pipe round trip plus a fork from an exec'd, linked process. A phase
  // server only ever receives empty plans and maps no feedback file (its
  // block stays process-local), so the interposer is loaded in the phase
  // but never armed, and never touches the workload's block.
  auto phase_server = [&opts, this](const std::vector<std::string>& argv) {
    std::unique_ptr<ForkserverClient> client;
    if (!argv.empty() && ServesFromForkserver(argv[0], sandbox_dir_)) {
      ForkserverOptions phase = opts;
      phase.argv = argv;
      phase.env = {{"AFEX_FEEDBACK", ""}};
      phase.persistent = false;
      client = std::make_unique<ForkserverClient>(std::move(phase));
      client->set_metrics_sink(metrics_);
    }
    return client;
  };
  recovery_server_ = phase_server(config_.recovery_argv);
  verify_server_ = phase_server(config_.verify_argv);
  forkserver_ = std::make_unique<ForkserverClient>(std::move(opts));
  forkserver_->set_metrics_sink(metrics_);
  // Start all servers at once; each handshake completes on first use.
  for (ForkserverClient* client :
       {forkserver_.get(), recovery_server_.get(), verify_server_.get()}) {
    if (client != nullptr) {
      client->Launch();
    }
  }
  return true;
}

FaultSpace RealTargetHarness::MakeSpace(size_t max_call, bool include_zero_call) const {
  std::vector<Axis> axes;
  axes.push_back(Axis::MakeInterval("test", 1, static_cast<int64_t>(config_.num_tests)));
  axes.push_back(Axis::MakeSet("function", config_.functions));
  axes.push_back(
      Axis::MakeInterval("call", include_zero_call ? 0 : 1, static_cast<int64_t>(max_call)));
  return FaultSpace(std::move(axes), "real:" + target_name_);
}

TestOutcome RealTargetHarness::RunFault(const FaultSpace& space, const Fault& fault) {
  auto count = [this](const char* name) {
    if (metrics_ != nullptr) {
      metrics_->AddCounter(name, 1);
    }
  };
  InjectionPlan plan = decoder_.Decode(space, fault);
  TestOutcome outcome;
  ++tests_run_;

  std::vector<FaultSpec> specs;
  if (plan.spec.has_value()) {
    if (InterposedSlot(plan.spec->function.c_str()) < 0) {
      // A custom space can name profile functions the interposer does not
      // wrap; surface it rather than silently running without injection.
      outcome.test_failed = true;
      outcome.detail = "exec: function not interposable: " + plan.spec->function;
      return outcome;
    }
    if (!FaultKindAppliesTo(plan.spec->kind, plan.spec->function)) {
      // A mode axis crossed with the function axis necessarily produces
      // points whose kind cannot mean anything on that function
      // (short_write × read). They run fault-free — the campaign's
      // baseline observations — and are counted, not failed.
      count("real.kind_incompatible");
    } else {
      specs.push_back(*plan.spec);
    }
  }

  const std::string test_label = std::to_string(plan.test_id + 1);
  std::string feedback_path = feedback_path_;
  std::string phase_sandbox = sandbox_dir_;  // where recovery/verify run
  RawRun run;
  uint32_t expect_seq = 0;
  std::error_code ec;

  if (config_.exec_mode == ExecMode::kSpawn) {
    // ---- spawn: control files + one process per test ----
    obs::PhaseTimer plan_timer(metrics_, obs::Phase::kRealPlanWrite);
    fs::path run_dir(instance_dir_);
    fs::path sandbox(sandbox_dir_);
    std::string plan_path = plan_path_;
    if (config_.keep_scratch) {
      // Debugging layout: everything for run N stays under run_N/.
      run_dir = fs::path(work_root_) / ("run_" + std::to_string(tests_run_));
      sandbox = run_dir / "sandbox";
      plan_path = (run_dir / "plan.afex").string();
      feedback_path = (run_dir / "feedback.afexfb").string();
      phase_sandbox = sandbox.string();
    }
    fs::create_directories(sandbox, ec);
    if (ec) {
      outcome.test_failed = true;
      outcome.detail = "exec: cannot create sandbox " + sandbox.string();
      return outcome;
    }
    if (!WriteFaultPlan(plan_path, specs) || !CreateFeedbackFile(feedback_path.c_str())) {
      outcome.test_failed = true;
      outcome.detail = "exec: cannot write control files under " + run_dir.string();
      return outcome;
    }
    plan_timer.Finish();

    ProcessRequest request;
    bool substituted = false;
    for (const std::string& arg : config_.target_argv) {
      std::string expanded = arg;
      size_t pos;
      while ((pos = expanded.find("{test}")) != std::string::npos) {
        expanded.replace(pos, 6, test_label);
        substituted = true;
      }
      request.argv.push_back(std::move(expanded));
    }
    if (!substituted) {
      request.argv.push_back(test_label);
    }
    request.working_dir = sandbox.string();
    request.preload = config_.interposer_path;
    request.env = {{"AFEX_PLAN", plan_path}, {"AFEX_FEEDBACK", feedback_path}};
    request.timeout_ms = config_.timeout_ms;
    request.max_output_bytes = config_.max_output_bytes;

    ProcessResult pr = RunProcess(request);
    if (metrics_ != nullptr) {
      // The runner stamps spawn/wait on the obs::NowNs timebase so the two
      // sub-phases line up with everything else in the trace.
      metrics_->RecordPhase(obs::Phase::kRealForkExec, pr.spawn_start_ns, pr.spawn_ns);
      if (pr.started) {
        metrics_->RecordPhase(obs::Phase::kRealChildWait,
                              pr.spawn_start_ns + pr.spawn_ns, pr.wait_ns);
      }
    }
    run.started = pr.started;
    run.exited = pr.exited;
    run.exit_code = pr.exit_code;
    run.term_signal = pr.term_signal;
    run.timed_out = pr.timed_out;
    run.kill_escalated = pr.kill_escalated;
    run.output = std::move(pr.output);
    if (!run.started) {
      run.start_error = "exec: failed to start " +
                        (request.argv.empty() ? std::string("<empty>") : request.argv[0]) +
                        ": " + pr.start_error;
    }
  } else {
    // ---- forkserver / persistent: one pipe round-trip per test ----
    std::string why;
    if (!EnsureForkserver(why)) {
      outcome.test_failed = true;
      outcome.detail = why;
      return outcome;
    }
    expect_seq = ++next_seq_;
    obs::PhaseTimer roundtrip(metrics_, obs::Phase::kRealFsRoundtrip);
    ForkserverTestResult fr = forkserver_->RunTest(
        static_cast<uint32_t>(plan.test_id + 1), specs, expect_seq);
    roundtrip.Finish();
    run.started = fr.ran;
    run.exited = fr.exited;
    run.exit_code = fr.exit_code;
    run.term_signal = fr.term_signal;
    run.timed_out = fr.timed_out;
    run.kill_escalated = fr.kill_escalated;
    run.output = std::move(fr.output);
    if (!run.started) {
      run.start_error = "exec: " + fr.error;
    }
  }

  // ---- translate the observation (identical across exec modes) ----
  outcome.hung = run.timed_out;
  outcome.crashed = IsCrashSignal(run.term_signal);
  outcome.exit_code = run.exited ? run.exit_code : 128 + run.term_signal;
  outcome.test_failed =
      !run.started || outcome.exit_code != 0 || outcome.crashed || outcome.hung;

  // Outcome breakdown: every run lands in exactly one of the first six
  // counters; escalation and feedback health are tracked on top.
  if (!run.started) {
    count("real.start_failed");
  } else if (outcome.hung) {
    count("real.hang");
  } else if (outcome.crashed) {
    count("real.crash_signal");
  } else if (run.term_signal != 0) {
    count("real.signal_exit");
  } else if (run.exit_code != 0) {
    count("real.exit_nonzero");
  } else {
    count("real.exit_clean");
  }
  if (run.kill_escalated) {
    count("real.kill_escalated");
  }

  obs::PhaseTimer feedback_timer(metrics_, obs::Phase::kRealFeedbackRead);
  FeedbackBlock block;
  FeedbackReadStatus feedback_status = ReadFeedbackBlockStatus(feedback_path.c_str(), block);
  switch (feedback_status) {
    case FeedbackReadStatus::kOk:
      count("real.feedback_ok");
      break;
    case FeedbackReadStatus::kMissing:
      count("real.feedback_missing");
      break;
    case FeedbackReadStatus::kShort:
      count("real.feedback_short");
      break;
    case FeedbackReadStatus::kBadMagic:
      count("real.feedback_bad_magic");
      break;
    case FeedbackReadStatus::kVersionSkew:
      count("real.feedback_version");
      break;
  }
  // In fs modes the server stamps test_seq before every fork/iteration; a
  // mismatch means the block was never re-armed for this test (server died
  // between reset and run) and its counts belong to an earlier test —
  // attributing them here would fabricate coverage/trigger signal.
  const bool feedback_stale = feedback_status == FeedbackReadStatus::kOk &&
                              expect_seq != 0 && block.test_seq != expect_seq;
  if (feedback_stale) {
    count("real.feedback_stale");
  }
  if (feedback_status == FeedbackReadStatus::kOk && !feedback_stale) {
    CoverageSet touched;
    if (!config_.use_edges) {
      // Each profiled libc function the run touched is one black-box
      // "coverage block": the call profile is the only structural signal a
      // black-box run emits, and it feeds the impact metric's coverage
      // term exactly like basic blocks do for the sim backend.
      uint32_t slots = std::min(block.function_count, kMaxInterposedFunctions);
      for (uint32_t slot = 0; slot < slots; ++slot) {
        if (block.calls[slot] > 0) {
          touched.Hit(slot);
        }
      }
    } else if (block.edges_supported == 0) {
      // Edge signal requested but this run's process never registered a
      // counter region — uninstrumented target, or the preload didn't
      // take. Surfaced per test: a campaign with this counter at its test
      // count is exploring with no coverage signal at all.
      count("real.edges_missing");
    } else {
      // Edge ids become coverage blocks above kEdgeBlockBase. The block
      // is hostile input (a crashed child wrote it): entry count and ids
      // are clamped to the interposer's own caps, which also bounds the
      // accumulator's bitmap growth.
      obs::PhaseTimer merge_timer(metrics_, obs::Phase::kRealEdgeMerge);
      if (!edge_total_known_ && block.edge_total > 0) {
        edge_total_known_ = true;
        coverage_.set_total_blocks(
            kEdgeBlockBase + static_cast<uint32_t>(std::min<uint64_t>(
                                 block.edge_total, kMaxSancovEdges)));
      }
      uint64_t entries = std::min<uint64_t>(block.edge_hit_count, kMaxEdgeHits);
      for (uint64_t i = 0; i < entries; ++i) {
        uint32_t id = block.edge_hits[i];
        if (id < kMaxSancovEdges) {
          touched.Hit(kEdgeBlockBase + id);
        }
      }
      if (block.edge_overflow > 0) {
        // The per-test new-edge list saturated; dropped edges re-surface
        // on later tests, so discovery ordering (not totals) degrades.
        count("real.edge_overflow");
      }
      merge_timer.Finish();
    }
    outcome.new_blocks_covered = coverage_.MergeCollect(touched, outcome.new_block_ids);
    std::sort(outcome.new_block_ids.begin(), outcome.new_block_ids.end());
    if (config_.use_edges) {
      uint64_t edges_new = 0;
      for (uint32_t id : outcome.new_block_ids) {
        if (id >= kEdgeBlockBase) {
          ++edges_new;
        }
      }
      edges_total_ += edges_new;
      if (metrics_ != nullptr) {
        if (edges_new > 0) {
          metrics_->AddCounter("real.edges_new", edges_new);
        }
        metrics_->SetGauge("real.edges_total", edges_total_);
      }
    }
    outcome.fault_triggered = block.injected_total > 0;
    if (outcome.fault_triggered && block.first_injected_slot < kInterposedFunctionCount) {
      // Synthetic stack for redundancy clustering: target, test, injected
      // function, and the call ordinal that actually fired.
      outcome.injection_stack = {
          target_name_, "test" + test_label,
          kInterposedFunctions[block.first_injected_slot],
          "call" + std::to_string(block.first_injected_call)};
    }
  } else if (feedback_status != FeedbackReadStatus::kOk &&
             !config_.interposer_path.empty()) {
    AFEX_LOG(kWarn) << "no feedback block from " << feedback_path
                    << " (interposer did not attach?)";
  }
  feedback_timer.Finish();

  if (!run.started) {
    outcome.detail = run.start_error;
  } else if (outcome.hung) {
    outcome.detail = "timeout after " + std::to_string(config_.timeout_ms) + "ms";
    if (run.kill_escalated) {
      outcome.detail += " (SIGKILL escalation)";
    }
  } else if (run.term_signal != 0) {
    outcome.detail = std::string("signal ") + strsignal(run.term_signal);
  } else if (outcome.test_failed) {
    outcome.detail = FirstLine(run.output);
  }

  // ---- two-phase crash→recover→verify ----
  // Runs after every test (not just crashed ones: silent corruption is
  // invisible until the verifier looks), in the same sandbox the workload
  // ran in, strictly before any recycling — the crash state on disk IS the
  // input to these phases. No fault plan: recovery and verification are
  // observed, never faulted. In fs modes a phase runs through its own
  // forkserver when it has one, else (and in spawn mode) as a fresh spawn
  // with no interposer.
  if (run.started &&
      (!config_.recovery_argv.empty() || !config_.verify_argv.empty())) {
    auto fold_detail = [&outcome](const std::string& tag, const std::string& line) {
      if (!outcome.detail.empty()) {
        outcome.detail += "; ";
      }
      outcome.detail += tag;
      if (!line.empty()) {
        outcome.detail += ": " + line;
      }
    };
    auto run_phase = [&](const std::vector<std::string>& argv, ForkserverClient* server,
                         std::string& first_line) {
      if (server != nullptr) {
        ForkserverTestResult r =
            server->RunTest(static_cast<uint32_t>(plan.test_id + 1), {}, expect_seq);
        first_line = FirstLine(r.output);
        return r.ran && r.exited && !r.timed_out && r.term_signal == 0 && r.exit_code == 0;
      }
      count("real.phase_spawned");
      ProcessRequest req;
      for (const std::string& arg : argv) {
        std::string expanded = arg;
        size_t pos;
        while ((pos = expanded.find("{test}")) != std::string::npos) {
          expanded.replace(pos, 6, test_label);
        }
        req.argv.push_back(std::move(expanded));
      }
      req.working_dir = phase_sandbox;
      req.timeout_ms = config_.timeout_ms;
      req.max_output_bytes = config_.max_output_bytes;
      ProcessResult r = RunProcess(req);
      first_line = FirstLine(r.output);
      return r.started && r.exited && !r.timed_out && r.term_signal == 0 &&
             r.exit_code == 0;
    };
    if (!config_.recovery_argv.empty()) {
      obs::PhaseTimer recovery_timer(metrics_, obs::Phase::kRealRecoveryRun);
      std::string line;
      if (!run_phase(config_.recovery_argv, recovery_server_.get(), line)) {
        outcome.recovery_failed = true;
        count("real.recovery_failed");
        fold_detail("recovery failed", line);
      }
      recovery_timer.Finish();
    }
    // A store that never came back up has nothing to verify.
    if (!outcome.recovery_failed && !config_.verify_argv.empty()) {
      obs::PhaseTimer verify_timer(metrics_, obs::Phase::kRealVerify);
      std::string line;
      if (!run_phase(config_.verify_argv, verify_server_.get(), line)) {
        outcome.invariant_violated = true;
        count("real.invariant_violated");
        fold_detail("invariant violated", line);
      }
      verify_timer.Finish();
    }
    if (outcome.recovery_failed || outcome.invariant_violated) {
      outcome.test_failed = true;
    }
  }

  if (!config_.keep_scratch && !config_.preserve_sandbox) {
    // Recycle, don't recreate: drop the test's droppings, keep the sandbox.
    obs::PhaseTimer cleanup_timer(metrics_, obs::Phase::kRealScratchCleanup);
    CleanDirInPlace(sandbox_dir_);
    // The recycled/preserved invariant: after recycling, nothing of this
    // test may survive into the next one. A leak here means tests stopped
    // being independent — surfaced, not silently tolerated.
    std::error_code inv_ec;
    if (fs::directory_iterator(sandbox_dir_, inv_ec) != fs::directory_iterator() &&
        !inv_ec) {
      count("real.recycle_leak");
      AFEX_LOG(kWarn) << "sandbox not empty after recycle: " << sandbox_dir_;
    }
  }
  return outcome;
}

ExplorationSession::Runner RealTargetHarness::MakeRunner(const FaultSpace& space) {
  return [this, &space](const Fault& fault) { return RunFault(space, fault); };
}

}  // namespace exec
}  // namespace afex
