#include "support/cachestore.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "support/io.hpp"
#include "support/strings.hpp"

namespace pareval::cache {

using support::Json;

namespace {

constexpr const char* kIndexFormat = "pareval-cachestore-v1";
constexpr std::string_view kFrameMagic = "PVJ1 ";
// "PVJ1 " + 8-hex length + " " + 8-hex crc + "\n"
constexpr std::size_t kHeaderSize = 5 + 8 + 1 + 8 + 1;

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is
// the classic bytewise table, row k advances a byte through k further
// zero bytes, so one 8-byte step folds eight lookups into the CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

std::string u32_to_hex(std::uint32_t v) {
  return support::strfmt("%08x", static_cast<unsigned>(v));
}

bool u32_from_hex(std::string_view hex, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (hex.size() != 8 || !support::u64_from_hex(hex, &v)) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const CrcTables t = make_crc_tables();
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xffffffffu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p, 8);
      const std::uint32_t lo = static_cast<std::uint32_t>(word) ^ c;
      const std::uint32_t hi = static_cast<std::uint32_t>(word >> 32);
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string frame_record(std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size() + 1);
  out += kFrameMagic;
  out += u32_to_hex(static_cast<std::uint32_t>(payload.size()));
  out += ' ';
  out += u32_to_hex(crc32(payload));
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

Store::Store(std::string dir) : dir_(std::move(dir)) {
  static std::atomic<std::uint64_t> next_instance{1};
  instance_ = next_instance.fetch_add(1, std::memory_order_relaxed);
}

bool Store::open() { return support::make_dirs(dir_); }

std::string Store::path(const std::string& name) const {
  return dir_ + "/" + name;
}

std::optional<Store::Index> Store::read_index(
    const std::string& stream, const std::uint64_t* version) const {
  const auto text = support::read_file(path(stream + ".idx"));
  if (!text) return std::nullopt;
  const auto root = Json::parse(*text);
  if (!root || (*root)["format"].as_string() != kIndexFormat ||
      (*root)["stream"].as_string() != stream) {
    return std::nullopt;
  }
  if (version != nullptr &&
      (*root)["pipeline"].as_string() != support::u64_to_hex(*version)) {
    return std::nullopt;  // stale: written by a different pipeline
  }
  Index index;
  index.generation =
      static_cast<std::uint64_t>((*root)["generation"].as_int());
  index.snapshot = (*root)["snapshot"].as_string();
  return index;
}

bool Store::write_index(const std::string& stream, std::uint64_t version,
                        const Index& index) const {
  Json root = Json::object();
  root.set("format", kIndexFormat);
  root.set("stream", stream);
  root.set("pipeline", support::u64_to_hex(version));
  root.set("generation", static_cast<long long>(index.generation));
  root.set("snapshot", index.snapshot);
  return support::atomic_write_file(path(stream + ".idx"),
                                    root.dump() + '\n');
}

bool Store::reset_stream_locked(const std::string& stream,
                                std::uint64_t version) const {
  // Drop every snapshot of the stream (the previous index may be
  // malformed, so the current snapshot name is not trustworthy).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stream + ".", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".snap") == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  std::filesystem::remove(path(stream + ".journal"), ec);
  return write_index(stream, version, Index{});
}

void Store::scan_frames(
    std::string_view buf, bool count_replayed, StreamStats& stats,
    const std::function<void(std::string_view)>& fn) const {
  std::size_t pos = 0;
  while (pos < buf.size()) {
    // A frame shorter than its header, a header that does not parse, or
    // a payload cut off mid-record are all the signature of a writer
    // that died mid-append: drop the tail, land on what came before.
    if (buf.size() - pos < kHeaderSize) {
      ++stats.torn_records_dropped;
      return;
    }
    std::uint32_t len = 0, crc = 0;
    if (buf.substr(pos, kFrameMagic.size()) != kFrameMagic ||
        !u32_from_hex(buf.substr(pos + 5, 8), &len) ||
        buf[pos + 13] != ' ' ||
        !u32_from_hex(buf.substr(pos + 14, 8), &crc) ||
        buf[pos + 22] != '\n') {
      ++stats.torn_records_dropped;
      return;
    }
    const std::size_t frame_end = pos + kHeaderSize + len + 1;
    if (frame_end > buf.size() || buf[frame_end - 1] != '\n') {
      ++stats.torn_records_dropped;
      return;
    }
    const std::string_view payload = buf.substr(pos + kHeaderSize, len);
    pos = frame_end;
    if (crc32(payload) != crc) {
      // A *complete* frame whose checksum fails is bit rot or injected
      // garbage, not a crash: the length field still delimits it, so
      // skip just this record and keep the ones after it.
      ++stats.crc_records_dropped;
      continue;
    }
    if (count_replayed) ++stats.records_replayed;
    fn(payload);
  }
}

StreamStats& Store::stats_locked(const std::string& stream) const {
  return stats_[stream];
}

bool Store::append(const std::string& stream, std::uint64_t version,
                   const Json& record) {
  return append_batch(stream, version, {record});
}

bool Store::append_batch(const std::string& stream, std::uint64_t version,
                         const std::vector<Json>& records) {
  // An empty batch appends nothing but still (re)initializes the index:
  // a layer's first flush seeds the stream under its pipeline version
  // even when it computed nothing, so the next attach() is warm.
  support::FileLock lock(path(stream + ".lock"));
  if (!lock.locked()) return false;
  auto index = read_index(stream, &version);
  if (!index) {
    // Absent, malformed, or written under a different pipeline version:
    // start the stream over.
    if (!reset_stream_locked(stream, version)) return false;
    index = Index{};
  }
  std::string batch;
  for (const Json& record : records) batch += frame_record(record.dump());
  if (!support::append_file(path(stream + ".journal"), batch)) return false;
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  StreamStats& stats = stats_locked(stream);
  stats.records_appended += records.size();
  stats.generation = index->generation;
  stats.journal_bytes = support::file_size(path(stream + ".journal"));
  return true;
}

bool Store::replay(const std::string& stream, std::uint64_t version,
                   const std::function<void(const Json&)>& fn) {
  support::FileLock lock(path(stream + ".lock"));
  if (!lock.locked()) return false;
  const auto index = read_index(stream, &version);
  if (!index) return false;  // absent or stale: nothing to yield

  StreamStats scan{};
  auto yield = [&fn, &scan](std::string_view payload) {
    const auto record = Json::parse(payload);
    if (!record) {
      // A CRC-intact frame that is not JSON: treat like a rejected
      // record rather than poisoning the whole stream.
      --scan.records_replayed;
      ++scan.crc_records_dropped;
      return;
    }
    fn(*record);
  };
  if (index->generation > 0 && !index->snapshot.empty()) {
    if (const auto snap = support::read_file(path(index->snapshot))) {
      scan_frames(*snap, /*count_replayed=*/true, scan, yield);
    }
  }
  if (const auto journal =
          support::read_file(path(stream + ".journal"))) {
    scan_frames(*journal, /*count_replayed=*/true, scan, yield);
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  StreamStats& stats = stats_locked(stream);
  stats.records_replayed += scan.records_replayed;
  stats.torn_records_dropped += scan.torn_records_dropped;
  stats.crc_records_dropped += scan.crc_records_dropped;
  stats.generation = index->generation;
  stats.journal_bytes = support::file_size(path(stream + ".journal"));
  return true;
}

bool Store::compact(const std::string& stream, std::uint64_t version) {
  support::FileLock lock(path(stream + ".lock"));
  if (!lock.locked()) return false;
  const auto index = read_index(stream, &version);
  if (!index) return false;
  return compact_locked(stream, version, *index);
}

bool Store::compact_locked(const std::string& stream,
                           std::uint64_t version, const Index& index) {
  const std::string journal_path = path(stream + ".journal");
  const std::size_t bytes_before = support::file_size(journal_path);

  // Fold snapshot + journal into the next generation's snapshot at the
  // record level: no codec, no layer knowledge — every intact record
  // survives, exact byte duplicates (N workers scoring the same key
  // produce identical records) collapse to their first occurrence, and
  // replay order is preserved, so the replayed state is byte-stable.
  std::string folded;
  std::unordered_set<std::string> seen;
  StreamStats scan{};
  auto keep = [&folded, &seen](std::string_view payload) {
    if (seen.emplace(payload).second) folded += frame_record(payload);
  };
  if (index.generation > 0 && !index.snapshot.empty()) {
    if (const auto snap = support::read_file(path(index.snapshot))) {
      scan_frames(*snap, /*count_replayed=*/false, scan, keep);
    }
  }
  if (const auto journal = support::read_file(journal_path)) {
    scan_frames(*journal, /*count_replayed=*/false, scan, keep);
  }

  Index next;
  next.generation = index.generation + 1;
  next.snapshot =
      stream + "." + std::to_string(next.generation) + ".snap";
  if (!support::atomic_write_file(path(next.snapshot), folded)) {
    return false;
  }
  if (!write_index(stream, version, next)) return false;
  // The folded records are now owned by the new snapshot: reset the
  // journal and drop the superseded snapshot. A crash between the index
  // publish and these cleanups only leaves duplicate records behind,
  // which replay-level insert-if-absent (and the next compaction's
  // dedupe) absorbs.
  {
    std::ofstream trunc(journal_path,
                        std::ios::binary | std::ios::trunc);
  }
  if (!index.snapshot.empty() && index.snapshot != next.snapshot) {
    std::error_code ec;
    std::filesystem::remove(path(index.snapshot), ec);
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  StreamStats& stats = stats_locked(stream);
  ++stats.compactions;
  stats.generation = next.generation;
  stats.journal_bytes_before_compact = bytes_before;
  stats.journal_bytes_after_compact =
      support::file_size(journal_path);
  stats.journal_bytes = stats.journal_bytes_after_compact;
  stats.torn_records_dropped += scan.torn_records_dropped;
  stats.crc_records_dropped += scan.crc_records_dropped;
  return true;
}

bool Store::maybe_compact(const std::string& stream,
                          std::uint64_t version) {
  if (journal_bytes(stream) <= compact_threshold_) return true;
  return compact(stream, version);
}

std::size_t Store::journal_bytes(const std::string& stream) const {
  return support::file_size(path(stream + ".journal"));
}

StreamStats Store::stats(const std::string& stream) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  StreamStats out = stats_locked(stream);
  out.journal_bytes = support::file_size(path(stream + ".journal"));
  return out;
}

Json Store::stats_json(const std::string& stream) const {
  const StreamStats s = stats(stream);
  Json j = Json::object();
  j.set("generation", static_cast<long long>(s.generation));
  j.set("records_appended", static_cast<long long>(s.records_appended));
  j.set("records_replayed", static_cast<long long>(s.records_replayed));
  j.set("torn_records_dropped",
        static_cast<long long>(s.torn_records_dropped));
  j.set("crc_records_dropped",
        static_cast<long long>(s.crc_records_dropped));
  j.set("compactions", static_cast<long long>(s.compactions));
  j.set("journal_bytes", static_cast<long long>(s.journal_bytes));
  j.set("journal_bytes_before_compact",
        static_cast<long long>(s.journal_bytes_before_compact));
  j.set("journal_bytes_after_compact",
        static_cast<long long>(s.journal_bytes_after_compact));
  return j;
}

}  // namespace pareval::cache
