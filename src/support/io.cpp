#include "support/io.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace pareval::support {

namespace {

/// Full-buffer write() with EINTR retry. Returns false on any failure or
/// short write.
bool write_all(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory containing `path`, so a rename/create inside it is
/// durable — without this a crash right after rename can resurface the
/// old (or no) directory entry on some filesystems. Best-effort on
/// platforms where directories cannot be opened for fsync.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool atomic_write_file(const std::string& path,
                       const std::string& content) {
  static std::atomic<unsigned> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // Data must be durable BEFORE the rename publishes the name: rename is
  // atomic for readers, but only fsync orders the content ahead of the
  // directory update across a crash.
  bool ok = write_all(fd, content);
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

bool append_file(const std::string& path, std::string_view data) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, data);
  // Journal appends promise the record is on disk when we return — the
  // torn-tail recovery handles a crash mid-write, but a record we
  // acknowledged must survive one.
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Size the buffer from fstat and read straight into it; the loop still
  // runs to EOF, so a file that is not regular or changes size while it
  // is read comes back whole.
  struct stat st {};
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  std::string out(hint + 1, '\0');
  std::size_t len = 0;
  while (true) {
    if (len == out.size()) out.resize(out.size() * 2);
    const ssize_t n = ::read(fd, out.data() + len, out.size() - len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    len += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(len);
  return out;
}

std::size_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(n);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return false;
  return std::filesystem::is_directory(path, ec);
}

FileLock::FileLock(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return;
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    ::close(fd_);
    fd_ = -1;
    return;
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

}  // namespace pareval::support
