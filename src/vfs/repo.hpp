#pragma once
// In-memory source repositories. Every benchmark application, every
// translation output, and every build is expressed as a `Repo`: an ordered
// map from repository-relative path to file contents. Nothing in the
// evaluation pipeline touches the real filesystem.
//
// Each stored file carries the stable hashes of its path and content,
// computed once when it is written and copied with the repo, so content
// keys (buildsim::repo_content_hash, the TU manifests) never rehash bytes
// that did not change. A file's bytes are shared immutable content: a
// repo copy copies pointers, and a write replaces the content instead of
// editing it, so a copy never sees another copy's writes.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pareval::vfs {

/// One file inside a virtual repository.
struct File {
  std::string path;     ///< repo-relative, '/'-separated, normalised
  std::string content;  ///< full text
};

/// Normalise a repo-relative path: collapse "./", resolve "a/../", drop
/// leading "/". Throws std::invalid_argument if the path escapes the root.
std::string normalize_path(std::string_view path);

/// Directory part of a path ("src/a.cpp" -> "src", "a.cpp" -> "").
std::string dirname(std::string_view path);
/// Final component ("src/a.cpp" -> "a.cpp").
std::string basename(std::string_view path);
/// Extension including the dot ("a.cpp" -> ".cpp", "Makefile" -> "").
std::string extension(std::string_view path);
/// Join two path fragments and normalise.
std::string join_path(std::string_view a, std::string_view b);

/// An in-memory repository of text files.
class Repo {
 public:
  Repo() = default;
  explicit Repo(std::vector<File> files);

  /// Insert or overwrite. An overwrite keeps the stored path hash.
  void write(std::string_view path, std::string content);
  /// Insert or overwrite every file of `other`, sharing its bytes and
  /// stored hashes: the repo that writing each of its files would give,
  /// without copying or rehashing a byte.
  void overlay(const Repo& other);
  /// Remove a file; returns false if absent.
  bool remove(std::string_view path);
  bool exists(std::string_view path) const;
  /// nullopt when the file is absent.
  std::optional<std::string> read(std::string_view path) const;
  /// Throws std::out_of_range when absent.
  const std::string& at(std::string_view path) const;
  /// support::stable_hash of the file's content, stored by write();
  /// nullopt when absent.
  std::optional<std::uint64_t> content_hash(std::string_view path) const;

  std::size_t file_count() const { return files_.size(); }
  bool empty() const { return files_.empty(); }

  /// Paths in lexicographic order.
  std::vector<std::string> paths() const;
  /// Files in lexicographic path order.
  std::vector<File> files() const;

  /// Visit each file's stored (stable_hash(path), stable_hash(content))
  /// in lexicographic path order.
  template <class Fn>
  void for_each_hash(Fn&& fn) const {
    for (const auto& [path, f] : files_) fn(f.path_hash, f.content_hash);
  }

  /// Render the "|--"/"+--" file tree used in translation prompts
  /// (Listing 1 of the paper).
  std::string render_tree() const;

  bool operator==(const Repo&) const = default;

 private:
  struct Stored {
    std::shared_ptr<const std::string> content;
    std::uint64_t path_hash = 0;
    std::uint64_t content_hash = 0;
    bool operator==(const Stored& o) const {
      return path_hash == o.path_hash && content_hash == o.content_hash &&
             (content == o.content || *content == *o.content);
    }
  };
  using Files = std::map<std::string, Stored, std::less<>>;

  /// The entry at normalize_path(path), or files_.end(); an already
  /// normal path is looked up without building a key.
  Files::const_iterator find(std::string_view path) const;
  Files::iterator find(std::string_view path);

  Files files_;
};

}  // namespace pareval::vfs
