// Append-only, crash-tolerant line journal — the durability primitive of
// the campaign store. One header line identifies the campaign; every
// subsequent line is one record. Append serializes the line into one
// reused buffer and hands it to the OS with a single write(2) before it
// returns, so every record reaches the kernel before the next test starts
// and a killed process loses at most the line being written. Loading
// tolerates exactly that failure mode: a final line with no terminating
// newline is dropped as a torn write. A resume truncates the journal in
// place (one ftruncate(2) to the end of the last record it keeps) and
// appends from there: nothing is rewritten and there is no temp file or
// rename, so a process killed at any point leaves either the old file (the
// next resume drops the same tail) or the truncated one. (Durability is
// against process death; no fsync is issued, so power loss may
// additionally lose whatever the kernel had not yet written back.)
#ifndef AFEX_CAMPAIGN_JOURNAL_H_
#define AFEX_CAMPAIGN_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace afex {

class Journal {
 public:
  struct LoadResult {
    std::string bytes;              // the whole file as read
    std::vector<size_t> line_ends;  // offset just past each complete line's '\n'
                                    // ([0] ends the header); a torn tail has none

    // Line i without its newline (0 is the header); aliases `bytes`.
    std::string_view line(size_t i) const {
      size_t begin = i == 0 ? 0 : line_ends[i - 1];
      return std::string_view(bytes).substr(begin, line_ends[i] - 1 - begin);
    }
  };

  // Reads a journal with a read(2) loop, so FIFOs and other unseekable
  // sources work; never opens it for writing. Throws CampaignError when
  // the file is unreadable or has no complete header line.
  static LoadResult Load(const std::string& path);

  // Creates a journal with the given header, open for appending. Refuses
  // an existing path (O_EXCL, so two concurrent creators cannot both
  // win). Throws CampaignError on an existing path or I/O failure.
  static Journal Create(const std::string& path, const std::string& header);

  // Reopens an existing journal for appending after truncating it in
  // place to its first `length` bytes — the end of the last line a resume
  // keeps. Throws CampaignError on I/O failure.
  static Journal OpenTruncated(const std::string& path, uint64_t length);

  Journal() = default;

  bool is_open() const { return fd_.get() >= 0; }
  const std::string& path() const { return path_; }

  // Appends one line (`line` carries no newline). Throws on I/O failure —
  // a campaign must not keep burning tests it cannot record.
  void Append(std::string_view line) {
    AppendWith([line](std::string& out) { out += line; });
  }

  // As Append, with the line serialized by `serialize(buffer)` straight
  // into the journal's reused buffer, so appending allocates nothing once
  // the buffer has grown to the longest line.
  template <typename Serialize>
  void AppendWith(Serialize&& serialize) {
    obs::PhaseTimer append_timer(metrics_, obs::Phase::kJournalAppend);
    line_.clear();
    serialize(line_);
    line_ += '\n';
    append_timer.Finish();
    WriteLine();
  }

  // Telemetry: times the serialization into the buffer (journal.append)
  // and the write(2) (journal.flush) separately, keeps a
  // journal.flush_last_ns gauge, and counts journal.records. Null
  // detaches. Survives move-assignment of the Journal itself only if
  // re-applied — CampaignStore handles that.
  void set_metrics_sink(obs::MetricsSink* sink) { metrics_ = sink; }

 private:
  // Owns a descriptor: closed on destruction; a move leaves -1 behind
  // (move-assignment hands the old descriptor to the source to close).
  class Fd {
   public:
    explicit Fd(int fd = -1) : fd_(fd) {}
    Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
    Fd& operator=(Fd&& other) noexcept {
      std::swap(fd_, other.fd_);
      return *this;
    }
    ~Fd();
    int get() const { return fd_; }

   private:
    int fd_;
  };

  Journal(std::string path, Fd fd) : path_(std::move(path)), fd_(std::move(fd)) {}

  // Hands line_ to the OS: one write(2), retried on EINTR and short writes.
  void WriteLine();

  std::string path_;
  Fd fd_;
  std::string line_;
  obs::MetricsSink* metrics_ = nullptr;
};

}  // namespace afex

#endif  // AFEX_CAMPAIGN_JOURNAL_H_
