#include "vfs/repo.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::vfs {

namespace {

/// True when `path` is what normalize_path returns for it: no empty, "."
/// or ".." component, so no leading, trailing or doubled '/'.
bool is_normal(std::string_view path) {
  std::size_t len = 0;     // length of the current component
  bool dots_only = true;   // the component so far is all '.'
  for (const char c : path) {
    if (c == '/') {
      if (len == 0 || (dots_only && len <= 2)) return false;
      len = 0;
      dots_only = true;
    } else {
      ++len;
      dots_only = dots_only && c == '.';
    }
  }
  return len > 0 && !(dots_only && len <= 2);
}

}  // namespace

std::string normalize_path(std::string_view path) {
  if (is_normal(path)) return std::string(path);
  std::vector<std::string> out;
  for (const auto& part : support::split(path, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (out.empty()) {
        throw std::invalid_argument("path escapes repository root: " +
                                    std::string(path));
      }
      out.pop_back();
    } else {
      out.push_back(part);
    }
  }
  return support::join(out, "/");
}

std::string dirname(std::string_view path) {
  const auto pos = path.rfind('/');
  return pos == std::string_view::npos ? std::string()
                                       : std::string(path.substr(0, pos));
}

std::string basename(std::string_view path) {
  const auto pos = path.rfind('/');
  return std::string(pos == std::string_view::npos ? path
                                                   : path.substr(pos + 1));
}

std::string extension(std::string_view path) {
  const std::string base = basename(path);
  const auto pos = base.rfind('.');
  if (pos == std::string::npos || pos == 0) return "";
  return base.substr(pos);
}

std::string join_path(std::string_view a, std::string_view b) {
  if (a.empty()) return normalize_path(b);
  return normalize_path(std::string(a) + "/" + std::string(b));
}

Repo::Repo(std::vector<File> files) {
  for (auto& f : files) write(f.path, std::move(f.content));
}

Repo::Files::const_iterator Repo::find(std::string_view path) const {
  return is_normal(path) ? files_.find(path)
                         : files_.find(normalize_path(path));
}

Repo::Files::iterator Repo::find(std::string_view path) {
  return is_normal(path) ? files_.find(path)
                         : files_.find(normalize_path(path));
}

void Repo::write(std::string_view path, std::string content) {
  const std::uint64_t content_hash = support::stable_hash(content);
  auto shared = std::make_shared<const std::string>(std::move(content));
  const auto it = find(path);
  if (it != files_.end()) {
    it->second.content = std::move(shared);
    it->second.content_hash = content_hash;
    return;
  }
  std::string key = normalize_path(path);
  const std::uint64_t path_hash = support::stable_hash(key);
  files_.emplace(std::move(key),
                 Stored{std::move(shared), path_hash, content_hash});
}

void Repo::overlay(const Repo& other) {
  for (const auto& [path, f] : other.files_) files_.insert_or_assign(path, f);
}

bool Repo::remove(std::string_view path) {
  const auto it = find(path);
  if (it == files_.end()) return false;
  files_.erase(it);
  return true;
}

bool Repo::exists(std::string_view path) const {
  return find(path) != files_.end();
}

std::optional<std::string> Repo::read(std::string_view path) const {
  const auto it = find(path);
  if (it == files_.end()) return std::nullopt;
  return *it->second.content;
}

const std::string& Repo::at(std::string_view path) const {
  const auto it = find(path);
  if (it == files_.end()) {
    throw std::out_of_range("no such file in repo: " + std::string(path));
  }
  return *it->second.content;
}

std::optional<std::uint64_t> Repo::content_hash(std::string_view path) const {
  const auto it = find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.content_hash;
}

std::vector<std::string> Repo::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [p, _] : files_) out.push_back(p);
  return out;
}

std::vector<File> Repo::files() const {
  std::vector<File> out;
  out.reserve(files_.size());
  for (const auto& [p, f] : files_) out.push_back({p, *f.content});
  return out;
}

namespace {

// A lightweight directory tree assembled from the sorted path list.
struct TreeNode {
  std::map<std::string, TreeNode> dirs;
  std::set<std::string> files;
};

void render_node(const TreeNode& node, const std::string& indent,
                 std::string& out) {
  // Files first, then subdirectories, matching the paper's sample tree
  // (Makefile and README.md before src/).
  std::size_t remaining = node.files.size() + node.dirs.size();
  for (const auto& f : node.files) {
    --remaining;
    out += indent + (remaining == 0 ? "+-- " : "|-- ") + f + "\n";
  }
  for (const auto& [name, child] : node.dirs) {
    --remaining;
    out += indent + (remaining == 0 ? "+-- " : "|-- ") + name + "/\n";
    render_node(child, indent + (remaining == 0 ? "    " : "|   "), out);
  }
}

}  // namespace

std::string Repo::render_tree() const {
  TreeNode root;
  for (const auto& [path, _] : files_) {
    TreeNode* cur = &root;
    const auto parts = support::split(path, '/');
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      cur = &cur->dirs[parts[i]];
    }
    cur->files.insert(parts.back());
  }
  std::string out;
  render_node(root, "", out);
  return out;
}

}  // namespace pareval::vfs
