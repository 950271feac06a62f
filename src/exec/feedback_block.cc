#include "exec/feedback_block.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace afex {
namespace exec {

bool CreateFeedbackFile(const char* path) {
  // Truncate, then extend: the kernel zero-fills the hole, so the 16 KB
  // block is never copied through a write.
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return false;
  }
  const bool sized = ::ftruncate(fd, sizeof(FeedbackBlock)) == 0;
  return ::close(fd) == 0 && sized;
}

FeedbackReadStatus ReadFeedbackBlockStatus(const char* path, FeedbackBlock& out) {
  FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return FeedbackReadStatus::kMissing;
  }
  // Byte-count read: a version-1 block (older interposer, or a feedback
  // file the interposer never grew) is shorter than sizeof(FeedbackBlock),
  // so the block is decoded by how many bytes are actually present.
  size_t bytes = std::fread(&out, 1, sizeof(out), f);
  std::fclose(f);
  if (bytes < kFeedbackBlockV1Size) {
    return FeedbackReadStatus::kShort;
  }
  if (out.magic != kFeedbackMagic) {
    return FeedbackReadStatus::kBadMagic;
  }
  if (out.version == 1) {
    // Legacy layout: no edge region. Zero it so callers see a clean
    // "edges unsupported" block and fall back to the libc proxy.
    std::memset(reinterpret_cast<char*>(&out) + kFeedbackBlockV1Size, 0,
                sizeof(out) - kFeedbackBlockV1Size);
    return FeedbackReadStatus::kOk;
  }
  if (out.version != kFeedbackVersion) {
    return FeedbackReadStatus::kVersionSkew;
  }
  if (bytes < sizeof(out)) {
    return FeedbackReadStatus::kShort;
  }
  return FeedbackReadStatus::kOk;
}

bool ReadFeedbackBlock(const char* path, FeedbackBlock& out) {
  return ReadFeedbackBlockStatus(path, out) == FeedbackReadStatus::kOk;
}

}  // namespace exec
}  // namespace afex
