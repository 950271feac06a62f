// A statically linked two-phase (recovery/verify) command for exec_test:
// appends its second argument, as one line, to the file named by its first.
// A static binary ignores LD_PRELOAD, so the harness must spawn it once per
// run; served from a forkserver, its main would also run as the "server"
// and append a stray line.
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

int main(int argc, char** argv) {
  if (argc != 3) {
    return 2;
  }
  char line[256];
  const size_t n = strnlen(argv[2], sizeof(line) - 1);
  memcpy(line, argv[2], n);
  line[n] = '\n';
  const int fd = open(argv[1], O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return 1;
  }
  const bool written = write(fd, line, n + 1) == static_cast<ssize_t>(n + 1);
  return close(fd) == 0 && written ? 0 : 1;
}
