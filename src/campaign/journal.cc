#include "campaign/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "campaign/serde.h"

namespace afex {
namespace {

std::string ErrnoText(int err = errno) { return std::strerror(err); }

// Writes all of `bytes`, retrying on EINTR and short writes.
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

Journal::Fd::~Fd() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Journal::LoadResult Journal::Load(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    throw CampaignError("cannot open journal '" + path + "': " + ErrnoText());
  }
  LoadResult result;
  std::string& bytes = result.bytes;
  // A regular file is read into a buffer one byte larger than it, so the
  // read that sees end-of-file needs no regrowth; a FIFO starts small and
  // grows geometrically.
  struct stat st {};
  bool regular = ::fstat(fd.get(), &st) == 0 && S_ISREG(st.st_mode);
  bytes.resize(regular ? static_cast<size_t>(st.st_size) + 1 : 4096);
  size_t used = 0;
  while (true) {
    if (used == bytes.size()) {
      bytes.resize(2 * bytes.size());
    }
    ssize_t n = ::read(fd.get(), bytes.data() + used, bytes.size() - used);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      throw CampaignError("error reading journal '" + path + "': " + ErrnoText());
    }
    if (n == 0) {
      break;
    }
    used += static_cast<size_t>(n);
  }
  bytes.resize(used);

  // Only complete lines count. A final line without its newline is a torn
  // write — the process died mid-line; everything before it is intact.
  for (size_t nl = bytes.find('\n'); nl != std::string::npos; nl = bytes.find('\n', nl + 1)) {
    result.line_ends.push_back(nl + 1);
  }
  if (result.line_ends.empty()) {
    throw CampaignError("journal '" + path + "' has no complete header line");
  }
  return result;
}

Journal Journal::Create(const std::string& path, const std::string& header) {
  Fd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0666));
  if (fd.get() < 0) {
    if (errno == EEXIST) {
      throw CampaignError("journal '" + path +
                          "' already exists; resume it with --resume or delete it first");
    }
    throw CampaignError("cannot create journal '" + path + "': " + ErrnoText());
  }
  if (!WriteAll(fd.get(), header + '\n')) {
    throw CampaignError("cannot write journal header to '" + path + "': " + ErrnoText());
  }
  return Journal(path, std::move(fd));
}

Journal Journal::OpenTruncated(const std::string& path, uint64_t length) {
  Fd fd(::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC));
  if (fd.get() < 0) {
    throw CampaignError("cannot reopen journal '" + path + "' for append: " + ErrnoText());
  }
  int rc;
  do {
    rc = ::ftruncate(fd.get(), static_cast<off_t>(length));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    throw CampaignError("cannot truncate journal '" + path + "': " + ErrnoText());
  }
  return Journal(path, std::move(fd));
}

void Journal::WriteLine() {
  uint64_t flush_start = metrics_ != nullptr ? obs::NowNs() : 0;
  bool written = WriteAll(fd_.get(), line_);
  int err = errno;
  if (metrics_ != nullptr) {
    uint64_t flush_ns = obs::NowNs() - flush_start;
    metrics_->RecordPhase(obs::Phase::kJournalFlush, flush_start, flush_ns);
    metrics_->SetGauge("journal.flush_last_ns", static_cast<double>(flush_ns));
    metrics_->AddCounter("journal.records", 1);
  }
  if (!written) {
    throw CampaignError("failed to append to journal '" + path_ + "': " + ErrnoText(err));
  }
}

}  // namespace afex
