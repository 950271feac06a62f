#include "campaign/serde.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <vector>

namespace afex {
namespace {

bool IsPlainByte(unsigned char c) {
  if (c <= 0x20 || c >= 0x7f) {
    return false;  // whitespace, control bytes, non-ASCII
  }
  switch (c) {
    case '%':
    case '|':
    case '=':
    case ':':
    case ',':
      return false;
    default:
      return true;
  }
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

// Parses all of `s` as a decimal T (or a double in from_chars' general
// form): no '+', no leading whitespace, no base prefix, nothing left over,
// nothing out of range. Unsigned types take no sign at all.
template <typename T>
bool ParseNumber(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

template <typename T>
void AppendNumber(std::string& out, T v) {
  char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendDouble(std::string& out, double v) {
  char buf[32];  // the longest %.17g rendering, "-1.7976931348623157e+308", is 24
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17).ptr);
}

void AppendBool(std::string& out, bool v) { out += v ? '1' : '0'; }

void AppendEscaped(std::string& out, std::string_view raw) {
  static const char* kHex = "0123456789ABCDEF";
  for (unsigned char c : raw) {
    if (IsPlainByte(c)) {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
}

void AppendFault(std::string& out, const Fault& fault) {
  if (fault.dimensions() == 0) {
    out += '-';
    return;
  }
  for (size_t i = 0; i < fault.dimensions(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendNumber(out, fault[i]);
  }
}

bool ParseHex16(std::string_view s, uint64_t& out) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t value = 0;
  for (char c : s) {
    int digit = HexValue(c);
    if (digit < 0) {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  out = value;
  return true;
}

bool ParseBool(std::string_view s, bool& out) {
  if (s == "0") {
    out = false;
    return true;
  }
  if (s == "1") {
    out = true;
    return true;
  }
  return false;
}

// Calls fn(part) for every `delim`-separated part of `s`, empty parts
// included (so "" is one empty part), stopping at the first false. Parts
// are a few bytes long, so a plain scan beats a memchr call per part.
template <typename Fn>
bool ForEachPart(std::string_view s, char delim, Fn&& fn) {
  size_t begin = 0;
  for (size_t i = 0;; ++i) {
    if (i == s.size() || s[i] == delim) {
      if (!fn(s.substr(begin, i - begin))) {
        return false;
      }
      if (i == s.size()) {
        return true;
      }
      begin = i + 1;
    }
  }
}

// Calls fn(key, value) for every space-separated key=value field of a
// serialized line (the key ends at the field's first '='), skipping empty
// fields. Returns false on a field without '=' or when fn does.
template <typename Fn>
bool ForEachField(std::string_view line, Fn&& fn) {
  const size_t n = line.size();
  size_t i = 0;
  while (i < n) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    const size_t key = i;
    while (i < n && line[i] != '=' && line[i] != ' ') {
      ++i;
    }
    if (i == n || line[i] != '=') {
      return false;
    }
    // Values (block-id lists above all) run longer than keys: memchr.
    const size_t value = ++i;
    const void* space = std::memchr(line.data() + i, ' ', n - i);
    i = space != nullptr ? static_cast<size_t>(static_cast<const char*>(space) - line.data()) : n;
    if (!fn(line.substr(key, value - 1 - key), line.substr(value, i - value))) {
      return false;
    }
  }
  return true;
}

// Lists are count-prefixed ("2:a|b", "1:", "0:") so that empty lists,
// single empty items, and items containing the separator (escaped) all
// stay distinguishable. Splits off the count; a count larger than the body
// could hold is rejected here, so callers may reserve it.
bool ParseCountPrefix(std::string_view s, size_t& count, std::string_view& body) {
  size_t colon = s.find(':');
  if (colon == std::string_view::npos || !ParseNumber(s.substr(0, colon), count)) {
    return false;
  }
  body = s.substr(colon + 1);
  return count <= body.size() + 1;
}

// Parses a count-prefixed list whose items parse_item appends to `out`.
template <typename T, typename ParseItem>
bool ParseList(std::string_view s, std::vector<T>& out, ParseItem&& parse_item) {
  size_t count = 0;
  std::string_view body;
  if (!ParseCountPrefix(s, count, body)) {
    return false;
  }
  out.clear();
  if (count == 0) {
    return body.empty();
  }
  out.reserve(count);
  return ForEachPart(body, '|', [&](std::string_view item) { return parse_item(item, out); }) &&
         out.size() == count;
}

bool ParseStringList(std::string_view s, std::vector<std::string>& out) {
  return ParseList(s, out, [](std::string_view item, std::vector<std::string>& items) {
    return UnescapeField(item, items.emplace_back());
  });
}

bool ParseBlockIds(std::string_view s, std::vector<uint32_t>& out) {
  return ParseList(s, out, [](std::string_view item, std::vector<uint32_t>& ids) {
    return ParseNumber(item, ids.emplace_back());
  });
}

void AppendOutcome(std::string& out, const TestOutcome& outcome) {
  out += "failed=";
  AppendBool(out, outcome.test_failed);
  out += " crashed=";
  AppendBool(out, outcome.crashed);
  out += " hung=";
  AppendBool(out, outcome.hung);
  out += " exit=";
  AppendNumber(out, outcome.exit_code);
  out += " newblk=";
  AppendNumber(out, outcome.new_blocks_covered);
  out += " blocks=";
  AppendNumber(out, outcome.new_block_ids.size());
  out += ':';
  for (size_t i = 0; i < outcome.new_block_ids.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    AppendNumber(out, outcome.new_block_ids[i]);
  }
  out += " trig=";
  AppendBool(out, outcome.fault_triggered);
  out += " stack=";
  AppendNumber(out, outcome.injection_stack.size());
  out += ':';
  for (size_t i = 0; i < outcome.injection_stack.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    AppendEscaped(out, outcome.injection_stack[i]);
  }
  out += " recfail=";
  AppendBool(out, outcome.recovery_failed);
  out += " inv=";
  AppendBool(out, outcome.invariant_violated);
  out += " detail=";
  AppendEscaped(out, outcome.detail);
}

// Record fields, one bit each in the `seen` mask ParseRecord keeps.
enum RecordField : uint32_t {
  kFailed = 1u << 0,
  kCrashed = 1u << 1,
  kHung = 1u << 2,
  kExit = 1u << 3,
  kNewBlocks = 1u << 4,
  kBlocks = 1u << 5,
  kTriggered = 1u << 6,
  kStack = 1u << 7,
  kDetail = 1u << 8,
  kFault = 1u << 9,
  kImpact = 1u << 10,
  kFitness = 1u << 11,
  kCluster = 1u << 12,
  // Crash-recovery facets, serialized from format v3 on. Optional on parse
  // (record lines carry no version; pre-v3 journals simply lack them and
  // both facets default to false), so they are not in kRequiredFields.
  kRecoveryFailed = 1u << 13,
  kInvariantViolated = 1u << 14,
};
constexpr uint32_t kRequiredFields = (1u << 13) - 1;

// Parses one key=value field into `out`; false on an unknown key or a
// malformed value. Dispatches on the key's first byte, so each field costs
// one or two key comparisons.
bool ApplyRecordField(std::string_view key, std::string_view value, SessionRecord& out,
                      uint32_t& seen) {
  TestOutcome& outcome = out.outcome;
  uint32_t field = 0;
  bool ok = false;
  switch (key.empty() ? '\0' : key.front()) {
    case 'f':
      if (key == "f") {
        field = kFault;
        ok = ParseFault(value, out.fault);
      } else if (key == "failed") {
        field = kFailed;
        ok = ParseBool(value, outcome.test_failed);
      } else if (key == "fitness") {
        field = kFitness;
        ok = ParseDoubleField(value, out.fitness);
      }
      break;
    case 'i':
      if (key == "impact") {
        field = kImpact;
        ok = ParseDoubleField(value, out.impact);
      } else if (key == "inv") {
        field = kInvariantViolated;
        ok = ParseBool(value, outcome.invariant_violated);
      }
      break;
    case 'c':
      if (key == "cluster") {
        field = kCluster;
        ok = ParseNumber(value, out.cluster_id);
      } else if (key == "crashed") {
        field = kCrashed;
        ok = ParseBool(value, outcome.crashed);
      }
      break;
    case 'h':
      field = kHung;
      ok = key == "hung" && ParseBool(value, outcome.hung);
      break;
    case 'e':
      field = kExit;
      ok = key == "exit" && ParseNumber(value, outcome.exit_code);
      break;
    case 'n':
      field = kNewBlocks;
      ok = key == "newblk" && ParseNumber(value, outcome.new_blocks_covered);
      break;
    case 'b':
      field = kBlocks;
      ok = key == "blocks" && ParseBlockIds(value, outcome.new_block_ids);
      break;
    case 't':
      field = kTriggered;
      ok = key == "trig" && ParseBool(value, outcome.fault_triggered);
      break;
    case 's':
      field = kStack;
      ok = key == "stack" && ParseStringList(value, outcome.injection_stack);
      break;
    case 'r':
      field = kRecoveryFailed;
      ok = key == "recfail" && ParseBool(value, outcome.recovery_failed);
      break;
    case 'd':
      field = kDetail;
      ok = key == "detail" && UnescapeField(value, outcome.detail);
      break;
    default:
      break;
  }
  seen |= field;
  return ok;
}

}  // namespace

std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(out, raw);
  return out;
}

bool UnescapeField(std::string_view field, std::string& out) {
  out.clear();
  while (true) {
    // Plain runs between escapes are copied whole.
    size_t escape = field.find('%');
    out.append(field.substr(0, escape));
    if (escape == std::string_view::npos) {
      return true;
    }
    if (escape + 2 >= field.size()) {
      return false;
    }
    int hi = HexValue(field[escape + 1]);
    int lo = HexValue(field[escape + 2]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out += static_cast<char>((hi << 4) | lo);
    field.remove_prefix(escape + 3);
  }
}

std::string FormatDouble(double v) {
  std::string out;
  AppendDouble(out, v);
  return out;
}

bool ParseDoubleField(std::string_view s, double& out) { return ParseNumber(s, out); }

std::string SerializeFault(const Fault& fault) {
  std::string out;
  AppendFault(out, fault);
  return out;
}

bool ParseFault(std::string_view s, Fault& out) {
  out = Fault();
  if (s == "-") {
    return true;
  }
  return ForEachPart(s, ',', [&out](std::string_view part) {
    size_t v = 0;
    if (!ParseNumber(part, v)) {
      return false;
    }
    out.Append(v);
    return true;
  });
}

void AppendRecord(std::string& out, const SessionRecord& record) {
  out += "f=";
  AppendFault(out, record.fault);
  out += " impact=";
  AppendDouble(out, record.impact);
  out += " fitness=";
  AppendDouble(out, record.fitness);
  out += " cluster=";
  AppendNumber(out, record.cluster_id);
  out += ' ';
  AppendOutcome(out, record.outcome);
}

std::string SerializeRecord(const SessionRecord& record) {
  std::string out;
  AppendRecord(out, record);
  return out;
}

bool ParseRecord(std::string_view s, SessionRecord& out) {
  out = SessionRecord{};
  uint32_t seen = 0;
  bool ok = ForEachField(s, [&](std::string_view key, std::string_view value) {
    return ApplyRecordField(key, value, out, seen);
  });
  return ok && (seen & kRequiredFields) == kRequiredFields;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

std::string SerializeMeta(const CampaignMeta& meta) {
  std::string out;
  out += "v=" + std::to_string(meta.version);
  out += " target=" + EscapeField(meta.target);
  out += " strategy=" + EscapeField(meta.strategy);
  out += " seed=" + std::to_string(meta.seed);
  out += " space=" + FingerprintHex(meta.space_fingerprint);
  out += " jobs=" + std::to_string(meta.jobs);
  out += " feedback=" + std::string(meta.feedback ? "1" : "0");
  out += " warm=" + FingerprintHex(meta.warm_fingerprint);
  if (meta.version >= 2) {
    out += " analysis=" + FingerprintHex(meta.analysis_fingerprint);
  }
  return out;
}

bool ParseMeta(std::string_view s, CampaignMeta& out) {
  out = CampaignMeta{};
  uint32_t seen = 0;
  bool ok = ForEachField(s, [&](std::string_view key, std::string_view value) {
    uint32_t field = 0;
    bool parsed = false;
    if (key == "v") {
      field = 1u << 0;
      parsed = ParseNumber(value, out.version) && out.version > 0;
    } else if (key == "target") {
      field = 1u << 1;
      parsed = UnescapeField(value, out.target);
    } else if (key == "strategy") {
      field = 1u << 2;
      parsed = UnescapeField(value, out.strategy);
    } else if (key == "seed") {
      field = 1u << 3;
      parsed = ParseNumber(value, out.seed);
    } else if (key == "space") {
      field = 1u << 4;
      parsed = ParseHex16(value, out.space_fingerprint);
    } else if (key == "jobs") {
      field = 1u << 5;
      parsed = ParseNumber(value, out.jobs) && out.jobs > 0;
    } else if (key == "feedback") {
      field = 1u << 6;
      parsed = ParseBool(value, out.feedback);
    } else if (key == "warm") {
      field = 1u << 7;
      parsed = ParseHex16(value, out.warm_fingerprint);
    } else if (key == "analysis") {
      field = 1u << 8;
      parsed = ParseHex16(value, out.analysis_fingerprint);
    }
    seen |= field;
    return parsed;
  });
  // `analysis=` exists exactly from v2 on: a v1 line carrying it, or a v2
  // line missing it, is malformed — strictness keeps hand-edited journals
  // detectable.
  uint32_t required = out.version >= 2 ? (1u << 9) - 1 : (1u << 8) - 1;
  return ok && seen == required;
}

uint64_t FaultSpaceFingerprint(const FaultSpace& space) {
  Fnv1aHasher hasher;
  hasher.Mix(space.name());
  for (const Axis& axis : space.axes()) {
    switch (axis.kind()) {
      case AxisKind::kSet:
        hasher.Mix("set");
        break;
      case AxisKind::kInterval:
        hasher.Mix("interval");
        break;
      case AxisKind::kSubInterval:
        hasher.Mix("subinterval");
        break;
    }
    hasher.Mix(axis.name());
    if (axis.kind() == AxisKind::kSet) {
      for (const std::string& label : axis.labels()) {
        hasher.Mix(label);
      }
    } else {
      hasher.Mix(std::to_string(axis.lo()));
      hasher.Mix(std::to_string(axis.hi()));
    }
  }
  return hasher.value();
}

bool PeekMetaVersion(std::string_view s, int& version) {
  bool found = false;
  bool valid = false;
  bool well_formed = ForEachField(s, [&](std::string_view key, std::string_view value) {
    if (!found && key == "v") {
      found = true;
      valid = ParseNumber(value, version) && version > 0;
    }
    return true;
  });
  return well_formed && found && valid;
}

}  // namespace afex
