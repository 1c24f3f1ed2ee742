#pragma once
// cache::Store — one multi-writer persistence API for every cache layer.
//
// A shared cache *directory* of append-only journals, so N sweep_worker
// processes (and sweep_server) can share one warm cache with no merge
// step at all. Whole-file rewrite would be atomic but last-writer-wins:
// only one publisher could own a cache path.
//
// Layout, per typed record stream `<s>` inside the store directory:
//
//   <s>.idx        generation-stamped index: format tag, pipeline version,
//                  current generation G, and the snapshot file name —
//                  published atomically (temp + rename)
//   <s>.<G>.snap   the compacted snapshot of generation G: every record
//                  up to the last compaction, in one framed file
//   <s>.journal    the live tail: records appended since generation G
//   <s>.lock       flock() target serializing appends/compactions among
//                  writers (processes AND threads — see support::FileLock)
//
// Records are single JSON documents framed as
//
//   "PVJ1 " <8-hex payload length> " " <8-hex CRC-32 of payload> "\n"
//   <payload> "\n"
//
// so a reader can always recover from a crashed writer: a torn tail
// record (incomplete header or short payload) is dropped along with
// everything after it, and recovery lands on the snapshot of the last
// good generation plus the intact journal prefix. A complete frame whose
// CRC does not match its payload (bit rot, garbage injection) is skipped
// individually — the length field still delimits it, so later records
// survive. Appends take the stream's file lock and issue one write(), so
// concurrent appenders interleave whole records, never bytes.
//
// Compaction is record-level and codec-free: when the journal exceeds a
// byte threshold, the snapshot and journal are folded into a new snapshot
// (exact byte-duplicate records deduplicated, first occurrence kept, so
// the replayed state is byte-stable), the index is stamped with the next
// generation, and the journal is reset — all under the stream lock, so a
// concurrent appender can never have its records dropped.
//
// Streams are versioned: the index carries the pipeline hash, a replay
// under a different version yields nothing (stale), and an append under a
// different version resets the stream.
//
// The layers (eval::ScoreCache, buildsim::TuCompileCache, LinkCache) sit
// on top via per-layer codecs: attach(store) replays their streams into
// memory and flush() appends what they computed since. Each layer keeps
// its store in a Binding (below), which makes a repeated attach a no-op.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace pareval::cache {

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes` — the record
/// frame checksum.
std::uint32_t crc32(std::string_view bytes);

/// Per-stream observability counters. Replay/append/torn/crc/compaction
/// counts are per-Store-instance (what THIS process observed/did);
/// generation and journal_bytes reflect the shared on-disk state as of
/// the last operation.
struct StreamStats {
  std::uint64_t generation = 0;
  std::size_t records_appended = 0;
  std::size_t records_replayed = 0;
  std::size_t torn_records_dropped = 0;
  std::size_t crc_records_dropped = 0;
  std::size_t compactions = 0;
  std::size_t journal_bytes = 0;
  std::size_t journal_bytes_before_compact = 0;
  std::size_t journal_bytes_after_compact = 0;

  bool operator==(const StreamStats&) const = default;
};

class Store {
 public:
  explicit Store(std::string dir);

  const std::string& dir() const noexcept { return dir_; }

  /// Process-unique id of this Store object, never reused — how a
  /// Binding tells "the store I am bound to" from a new Store that
  /// happens to occupy the same address.
  std::uint64_t instance() const noexcept { return instance_; }

  /// Create the store directory (mkdir -p). Every other operation
  /// assumes it exists; returns false when it cannot be created.
  bool open();

  /// Append one record to `stream` under `version`. Takes the stream
  /// lock, (re)initializes or resets the index as needed, and issues one
  /// framed write. Returns false on I/O failure.
  bool append(const std::string& stream, std::uint64_t version,
              const support::Json& record);

  /// Append many records under ONE lock acquisition and one write() —
  /// what the layers' flush() uses, so a worker's end-of-run publish is
  /// a single atomic batch from any reader's point of view.
  bool append_batch(const std::string& stream, std::uint64_t version,
                    const std::vector<support::Json>& records);

  /// Replay every record of `stream` — snapshot of the current
  /// generation first, then the journal tail — in append order, invoking
  /// `fn` per record. Torn tail records and CRC-rejected frames are
  /// dropped (counted in stats). Returns false when the stream does not
  /// exist or was written under a different `version` (stale: nothing is
  /// yielded), true otherwise.
  bool replay(const std::string& stream, std::uint64_t version,
              const std::function<void(const support::Json&)>& fn);

  /// Fold the journal into a new snapshot (next generation) and reset
  /// the journal. Record-level and codec-free: every intact record
  /// survives (exact byte duplicates collapse to their first
  /// occurrence), so the replayed state is byte-for-byte stable across
  /// compactions. Runs under the stream lock — concurrent appenders
  /// never lose records. Returns false on I/O failure or a version
  /// mismatch (a stale stream is reset by the next append, not here).
  bool compact(const std::string& stream, std::uint64_t version);

  /// compact() iff the journal exceeds the byte threshold. Returns true
  /// when no compaction was needed or it succeeded.
  bool maybe_compact(const std::string& stream, std::uint64_t version);

  /// Journal bytes currently on disk for `stream`.
  std::size_t journal_bytes(const std::string& stream) const;

  /// The compaction threshold maybe_compact applies (default 1 MiB).
  void set_compact_threshold(std::size_t bytes) noexcept {
    compact_threshold_ = bytes;
  }

  StreamStats stats(const std::string& stream) const;

  /// The stats as a JSON object with a pinned key order (generation,
  /// records_appended, records_replayed, torn_records_dropped,
  /// crc_records_dropped, compactions, journal_bytes,
  /// journal_bytes_before_compact, journal_bytes_after_compact) — the
  /// per-layer journal block CACHE_stats.json embeds.
  support::Json stats_json(const std::string& stream) const;

 private:
  struct Index {
    std::uint64_t generation = 0;
    std::string snapshot;  // file name within dir_; "" for generation 0
  };

  std::string path(const std::string& name) const;
  /// Read `stream`'s index. nullopt: absent/malformed/foreign format or,
  /// when `version` is non-null, a pipeline-version mismatch.
  std::optional<Index> read_index(const std::string& stream,
                                  const std::uint64_t* version) const;
  bool write_index(const std::string& stream, std::uint64_t version,
                   const Index& index) const;
  /// Reset `stream` to an empty generation-0 state under `version`.
  /// Caller holds the stream lock.
  bool reset_stream_locked(const std::string& stream,
                           std::uint64_t version) const;
  /// Scan one framed buffer, invoking `fn` per intact payload.
  void scan_frames(std::string_view buf, bool count_replayed,
                   StreamStats& stats,
                   const std::function<void(std::string_view)>& fn) const;
  bool compact_locked(const std::string& stream, std::uint64_t version,
                      const Index& index);
  StreamStats& stats_locked(const std::string& stream) const;

  std::string dir_;
  std::uint64_t instance_;
  std::size_t compact_threshold_ = 1 << 20;
  mutable std::mutex stats_mu_;
  mutable std::map<std::string, StreamStats> stats_;
};

/// A cache layer's binding to a Store: the store and pipeline version
/// its flush() appends under, plus the result of the attach that bound
/// them. Re-attaching the store a layer is already bound to, under the
/// same version, replays nothing and returns the first attach's result —
/// so a caller that attaches a whole cache stack and then one of its
/// layers never replays a stream twice. reset() (a layer's clear()) makes
/// the next attach replay again.
class Binding {
 public:
  /// Bind to (`store`, `version`) and run `replay`, unless already bound
  /// to exactly that pair since the last reset().
  template <class Replay>
  bool attach(Store& store, std::uint64_t version, Replay&& replay) {
    if (instance_ == store.instance() && version_ == version &&
        warm_.has_value()) {
      return *warm_;
    }
    store_ = &store;
    instance_ = store.instance();
    version_ = version;
    warm_ = replay();
    return *warm_;
  }
  void reset() noexcept { warm_.reset(); }

  Store* store() const noexcept { return store_; }
  std::uint64_t version() const noexcept { return version_; }

 private:
  Store* store_ = nullptr;
  std::uint64_t instance_ = 0;
  std::uint64_t version_ = 0;
  std::optional<bool> warm_;
};

/// One framed record as journal bytes (header + payload + newline) —
/// exposed for tests that need to craft or corrupt frames precisely.
std::string frame_record(std::string_view payload);

}  // namespace pareval::cache
