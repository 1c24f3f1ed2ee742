#pragma once
// Small file-I/O helpers shared by the on-disk cache/artifact writers and
// the journaled cache::Store: atomic whole-file publication, O_APPEND
// appends, and an advisory file lock for the multi-writer journal
// protocol.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace pareval::support {

/// Atomically AND durably publish `content` at `path`: write to a
/// pid+counter-unique temp file in the same directory, fsync it, then
/// rename() over the target and fsync the directory entry — so neither a
/// concurrent reader nor a crash right after the rename can observe a
/// torn, empty, or stale file. Concurrent writers sharing one path race
/// benignly (last rename wins with a complete file). Returns false on
/// any I/O failure, leaving no temp file behind.
bool atomic_write_file(const std::string& path, const std::string& content);

/// Append `data` to `path` (creating it if absent) through one O_APPEND
/// write() call, fsync'd before returning — an acknowledged record
/// survives a crash. Returns false on any I/O failure or a short write.
/// Callers that need multi-writer atomicity should serialize through a
/// FileLock — O_APPEND alone only guarantees the kernel picks the offset,
/// not that a large record lands in one piece on every filesystem.
bool append_file(const std::string& path, std::string_view data);

/// The whole file as bytes; nullopt when it cannot be opened or read (a
/// missing file is the common, non-error case for cold journals).
std::optional<std::string> read_file(const std::string& path);

/// Size of `path` in bytes; 0 when it does not exist.
std::size_t file_size(const std::string& path);

/// mkdir -p. Returns false when the directory cannot be created.
bool make_dirs(const std::string& path);

/// RAII advisory file lock (flock) on `path`, created if absent: blocks
/// until acquired, released on destruction. Each lock opens its own file
/// descriptor, so two FileLocks exclude each other both across processes
/// and across threads of one process (flock is per open file
/// description). Used by cache::Store to serialize journal appends and
/// compactions among N writers sharing one cache directory.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// False when the lock file could not be opened or flock failed; the
  /// caller should treat the protected operation as failed rather than
  /// proceed unserialized.
  bool locked() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace pareval::support
