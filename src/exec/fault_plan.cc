#include "exec/fault_plan.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exec/feedback_block.h"
#include "util/strings.h"

namespace afex {
namespace exec {

namespace {

// Shared validity check for every codec in this file: the interposer must
// wrap the function, the ordinal window must be sane, and the kind must
// apply to the function (a drop_sync on read() could never mean anything).
bool ValidSpec(const FaultSpec& spec) {
  if (InterposedSlot(spec.function.c_str()) < 0 || spec.call_lo < 1 ||
      spec.call_hi < spec.call_lo) {
    return false;
  }
  if (!FaultKindAppliesTo(spec.kind, spec.function)) {
    return false;
  }
  if (spec.kind == FaultKind::kShortWrite && spec.param < 0) {
    return false;
  }
  return true;
}

}  // namespace

bool WriteFaultPlan(const std::string& path, const std::vector<FaultSpec>& specs) {
  std::string text = "afexplan " + std::to_string(kPlanFormatVersion) + "\n";
  for (const FaultSpec& spec : specs) {
    if (!ValidSpec(spec)) {
      return false;
    }
    text += "inject ";
    text += spec.function;
    text += ' ';
    text += std::to_string(spec.call_lo);
    text += ' ';
    text += std::to_string(spec.call_hi);
    text += ' ';
    text += std::to_string(spec.retval);
    text += ' ';
    text += std::to_string(spec.errno_value);
    if (spec.kind != FaultKind::kErrno) {
      text += ' ';
      text += FaultKindName(spec.kind);
      if (spec.kind == FaultKind::kShortWrite) {
        text += ' ';
        text += std::to_string(spec.param);
      }
    }
    text += '\n';
  }
  // One pwrite(2) over the old plan, then cut what is left of it. No
  // O_TRUNC: on ext4 a file truncated to zero and rewritten is flushed at
  // close (auto_da_alloc), which made each plan cost ~40 us, not ~4.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) {
    return false;
  }
  const bool written =
      ::pwrite(fd, text.data(), text.size(), 0) == static_cast<ssize_t>(text.size()) &&
      ::ftruncate(fd, static_cast<off_t>(text.size())) == 0;
  return ::close(fd) == 0 && written;
}

bool ParseFaultPlanFile(const std::string& path, std::vector<FaultSpec>& out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  out.clear();
  std::string line;
  if (!std::getline(in, line)) {
    return false;
  }
  int version = 0;
  {
    std::istringstream header(line);
    std::string tag;
    if (!(header >> tag >> version) || tag != "afexplan" || version < 1 ||
        version > kPlanFormatVersion) {
      return false;
    }
  }
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) {
      continue;
    }
    std::istringstream fields{std::string(trimmed)};
    std::string directive;
    FaultSpec spec;
    if (!(fields >> directive >> spec.function >> spec.call_lo >> spec.call_hi >>
          spec.retval >> spec.errno_value) ||
        directive != "inject") {
      return false;
    }
    std::string mode_word;
    if (fields >> mode_word) {
      if (version < 2) {
        return false;  // v1 plans have no mode fields
      }
      auto kind = FaultKindFromName(mode_word);
      if (!kind.has_value()) {
        return false;
      }
      spec.kind = *kind;
      if (spec.kind == FaultKind::kShortWrite) {
        if (!(fields >> spec.param)) {
          return false;  // short_write requires K
        }
      }
    }
    std::string extra;
    if (fields >> extra) {
      return false;
    }
    if (!ValidSpec(spec)) {
      return false;
    }
    out.push_back(std::move(spec));
  }
  return true;
}

bool EncodePlanEntries(const std::vector<FaultSpec>& specs,
                       std::vector<FsPlanEntry>& out) {
  if (specs.size() > kFsMaxPlans) {
    return false;
  }
  out.clear();
  out.reserve(specs.size());
  for (const FaultSpec& spec : specs) {
    if (!ValidSpec(spec)) {
      return false;
    }
    FsPlanEntry entry;
    entry.slot = InterposedSlot(spec.function.c_str());
    entry.errno_value = spec.errno_value;
    entry.call_lo = static_cast<uint64_t>(spec.call_lo);
    entry.call_hi = static_cast<uint64_t>(spec.call_hi);
    entry.retval = spec.retval;
    entry.kind = static_cast<int32_t>(spec.kind);
    entry.param = spec.param;
    out.push_back(entry);
  }
  return true;
}

bool DecodePlanEntries(const std::vector<FsPlanEntry>& entries,
                       std::vector<FaultSpec>& out) {
  if (entries.size() > kFsMaxPlans) {
    return false;
  }
  out.clear();
  out.reserve(entries.size());
  for (const FsPlanEntry& entry : entries) {
    if (entry.slot < 0 ||
        entry.slot >= static_cast<int32_t>(kInterposedFunctionCount) ||
        entry.call_lo < 1 || entry.call_hi < entry.call_lo ||
        entry.kind < static_cast<int32_t>(FaultKind::kErrno) ||
        entry.kind > static_cast<int32_t>(FaultKind::kCrashAfterRename)) {
      return false;
    }
    FaultSpec spec;
    spec.function = kInterposedFunctions[entry.slot];
    spec.call_lo = static_cast<int>(entry.call_lo);
    spec.call_hi = static_cast<int>(entry.call_hi);
    spec.retval = entry.retval;
    spec.errno_value = entry.errno_value;
    spec.kind = static_cast<FaultKind>(entry.kind);
    spec.param = entry.param;
    if (!ValidSpec(spec)) {
      return false;
    }
    out.push_back(spec);
  }
  return true;
}

}  // namespace exec
}  // namespace afex
