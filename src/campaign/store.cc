#include "campaign/store.h"

#include <algorithm>

#include "util/strings.h"

namespace afex {
namespace {

constexpr std::string_view kHeaderMagic = "AFEXJ ";
constexpr std::string_view kRecordTag = "R ";

std::string HeaderLine(const CampaignMeta& meta) {
  return std::string(kHeaderMagic) + SerializeMeta(meta);
}

}  // namespace

CampaignStore CampaignStore::Create(const std::string& path, const CampaignMeta& meta) {
  CampaignStore store(path, meta);
  std::string header = HeaderLine(meta);
  store.journal_ = Journal::Create(path, header);
  store.ends_.push_back(header.size() + 1);
  return store;
}

CampaignStore CampaignStore::Open(const std::string& path) {
  Journal::LoadResult loaded = Journal::Load(path);
  std::string_view header = loaded.line(0);
  if (!StartsWith(header, kHeaderMagic)) {
    throw CampaignError("'" + path + "' is not an AFEX campaign journal");
  }
  std::string_view meta_line = header.substr(kHeaderMagic.size());
  // Check the version before the strict full parse, so a newer journal
  // with extra header fields gets the version diagnostic, not "malformed".
  int version = 0;
  if (PeekMetaVersion(meta_line, version) && version > kCampaignFormatVersion) {
    throw CampaignError("journal '" + path + "' has format version " +
                        std::to_string(version) + "; this build reads up to " +
                        std::to_string(kCampaignFormatVersion));
  }
  CampaignMeta meta;
  if (!ParseMeta(meta_line, meta)) {
    throw CampaignError("journal '" + path + "' has a malformed header");
  }

  CampaignStore store(path, meta);
  const size_t lines = loaded.line_ends.size();
  store.records_.reserve(lines - 1);
  for (size_t i = 1; i < lines; ++i) {
    std::string_view line = loaded.line(i);
    SessionRecord& record = store.records_.emplace_back();
    if (StartsWith(line, kRecordTag) && ParseRecord(line.substr(kRecordTag.size()), record)) {
      continue;
    }
    store.records_.pop_back();
    if (i + 1 == lines) {
      // A malformed final line is treated like a torn write and dropped;
      // anything earlier means real corruption.
      break;
    }
    throw CampaignError("journal '" + path + "' is corrupt at record " + std::to_string(i));
  }
  loaded.line_ends.resize(store.records_.size() + 1);
  store.ends_ = std::move(loaded.line_ends);
  return store;
}

CampaignStore CampaignStore::Open(const std::string& path, const CampaignMeta& expected) {
  CampaignStore store = Open(path);
  const CampaignMeta& meta = store.meta_;
  std::string mismatches;
  auto check = [&mismatches](bool same, const std::string& field, const std::string& stored,
                             const std::string& current) {
    if (!same) {
      mismatches += "\n  " + field + ": journal has " + stored + ", campaign has " + current;
    }
  };
  check(meta.target == expected.target, "target", meta.target, expected.target);
  check(meta.strategy == expected.strategy, "strategy", meta.strategy, expected.strategy);
  check(meta.seed == expected.seed, "seed", std::to_string(meta.seed),
        std::to_string(expected.seed));
  check(meta.space_fingerprint == expected.space_fingerprint, "space fingerprint",
        FingerprintHex(meta.space_fingerprint), FingerprintHex(expected.space_fingerprint));
  check(meta.jobs == expected.jobs, "jobs", std::to_string(meta.jobs),
        std::to_string(expected.jobs));
  check(meta.feedback == expected.feedback, "feedback", meta.feedback ? "on" : "off",
        expected.feedback ? "on" : "off");
  check(meta.warm_fingerprint == expected.warm_fingerprint, "warm-start",
        meta.warm_fingerprint == 0 ? "none" : FingerprintHex(meta.warm_fingerprint),
        expected.warm_fingerprint == 0 ? "none" : FingerprintHex(expected.warm_fingerprint));
  // A differing target-profile fingerprint means the target binary was
  // rebuilt with a different libc boundary since the journal was written —
  // replaying its faults against the new binary is not a resume.
  check(meta.analysis_fingerprint == expected.analysis_fingerprint,
        "target binary profile (static analysis)",
        meta.analysis_fingerprint == 0 ? "none" : FingerprintHex(meta.analysis_fingerprint),
        expected.analysis_fingerprint == 0 ? "none"
                                           : FingerprintHex(expected.analysis_fingerprint));
  if (!mismatches.empty()) {
    throw CampaignError("refusing to resume from '" + path +
                        "': campaign configuration mismatch" + mismatches);
  }
  return store;
}

void CampaignStore::CommitResume(size_t n) {
  if (n > records_.size()) {
    throw CampaignError("CommitResume(" + std::to_string(n) + ") exceeds " +
                        std::to_string(records_.size()) + " loaded records");
  }
  records_.resize(n);
  ends_.resize(n + 1);
  journal_ = Journal::OpenTruncated(path_, ends_[n]);
  journal_.set_metrics_sink(metrics_);
}

void CampaignStore::Append(const SessionRecord& record) {
  if (!journal_.is_open()) {
    throw CampaignError("campaign journal '" + path_ +
                        "' is not open for appending (resume not committed)");
  }
  // Only the serialized line is persisted; records_ deliberately does not
  // grow here — the session already owns an identical copy of every
  // executed record, and doubling that for a multi-hour campaign would be
  // pure overhead.
  journal_.AppendWith([&record](std::string& line) {
    line += kRecordTag;
    AppendRecord(line, record);
  });
}

std::function<void(const SessionRecord&)> CampaignStore::MakeObserver() {
  return [this](const SessionRecord& record) { Append(record); };
}

std::vector<uint32_t> CampaignStore::CoverageIdsForNode(size_t node) const {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (i % meta_.jobs != node) {
      continue;
    }
    const auto& fresh = records_[i].outcome.new_block_ids;
    ids.insert(ids.end(), fresh.begin(), fresh.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

namespace {

bool WarmStartEligible(const FaultSpace& space, const SessionRecord& record) {
  return record.fitness > 0.0 && record.fault.dimensions() == space.dimensions() &&
         space.InBounds(record.fault) && space.IsValid(record.fault);
}

}  // namespace

size_t WarmStartFromRecords(FitnessExplorer& explorer,
                            const std::vector<SessionRecord>& records) {
  const FaultSpace& space = explorer.space();
  size_t seeded = 0;
  for (const SessionRecord& record : records) {
    if (!WarmStartEligible(space, record)) {
      continue;
    }
    explorer.WarmStart(record.fault, record.fitness);
    ++seeded;
  }
  return seeded;
}

uint64_t WarmStartFingerprint(const FaultSpace& space,
                              const std::vector<SessionRecord>& records) {
  Fnv1aHasher hasher;
  for (const SessionRecord& record : records) {
    if (!WarmStartEligible(space, record)) {
      continue;
    }
    hasher.Mix(SerializeFault(record.fault));
    hasher.Mix(FormatDouble(record.fitness));
  }
  return hasher.value();
}

}  // namespace afex
