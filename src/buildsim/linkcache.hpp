#pragma once
// Content-addressed link cache: the warm-object layer's top tier. A link
// outcome is keyed by the *content* keys of its translation units (primary
// TU key folded with the dependency-manifest digest — see
// TuCompileCache::compile's obj_key_out) plus the build's capability bits,
// so a hit certifies that every input of the original link is
// byte-identical. The hit hands back a ready Executable: the link tables
// (functions/structs/globals) are reconstructed from persisted
// (tu_index, item_index) references into the live TUs — link_units never
// runs — and every function body arrives as a pre-compiled bytecode Chunk
// in the executable's shared ChunkPack, so a fully-warm start performs no
// builds, no TU compiles, no parses, and no links.
//
// The key folds the TU keys in *command order*, not as a sorted set: the
// order of LinkedProgram::globals (and therefore global initialization) is
// the TU order of the link line, so two links of the same TUs in different
// orders are different programs.
//
// Only successful links are recorded — failed links re-run so their
// diagnostics come from the real linker path. Payloads are serialized
// lazily at flush() (magic "PVL1" + format version + content hash; chunk
// bodies via minic's chunk codec) into the journaled store's "lnk1"
// stream, written under minic::obj_stream_version so a codec bump
// cold-starts it together with "obj1".

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "execsim/driver.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"

namespace pareval::buildsim {

class LinkCache {
 public:
  LinkCache();
  ~LinkCache();
  LinkCache(const LinkCache&) = delete;
  LinkCache& operator=(const LinkCache&) = delete;

  /// The link key: capability bits + the ordered TU content keys,
  /// length-delimited. Callers must only use it when every TU of the link
  /// carried a nonzero content key.
  static std::uint64_t link_key(const std::vector<std::uint64_t>& tu_keys,
                                const minic::Capabilities& caps);

  /// The executable of the link `key`. `tus` are the link's inputs in
  /// command order (already compiled — the TU layer sits below this one)
  /// and `caps` the build's capability union; both must be the ones folded
  /// into `key`. An in-memory hit shares the recorded program outright; a
  /// persisted hit decodes the replayed payload against `tus` and upgrades
  /// the entry; otherwise — including on a corrupt or version-bumped
  /// payload — `cold_link` runs and a successful result is recorded.
  /// Lookup, decode, cold link, and record run inside one single-flight
  /// section per key, so racing builds never decode or link one key twice.
  execsim::Executable link(
      std::uint64_t key,
      const std::vector<std::shared_ptr<minic::TranslationUnit>>& tus,
      const minic::Capabilities& caps,
      const std::function<execsim::Executable()>& cold_link);

  /// Counters, mirroring the TU layer: hits() in-memory, persisted_hits()
  /// payload decodes, misses() cold links through this cache (one per key
  /// for successful links; failed links are not recorded and count on
  /// every call).
  std::size_t hits() const noexcept;
  std::size_t persisted_hits() const noexcept;
  std::size_t misses() const noexcept;
  std::size_t lookups() const noexcept;

  std::size_t size() const;
  void clear();
  void set_capacity(std::size_t max_entries);

  /// Journaled-store stream ("lnk1"), written under
  /// minic::obj_stream_version(version) like the TU layer's "obj1".
  static constexpr const char* kStream = "lnk1";

  /// Bind to a shared store and replay its "lnk1" stream (payloads stay
  /// serialized until a lookup needs them). Same contract as the TU
  /// layer's attach: false iff the stream is absent or stale.
  bool attach(cache::Store& store, std::uint64_t version);
  /// Replay without binding — imported records flush() forward.
  bool import_store(cache::Store& store, std::uint64_t version);
  /// Serialize every recorded link the attached store has not seen (all
  /// function chunks are compiled first, so a warm hit starts fully
  /// compiled) and append them as one locked batch. An entry that cannot
  /// be encoded is skipped, never half-written.
  std::size_t flush();
  /// Pinned-key counters object: hits, persisted_hits, misses, lookups,
  /// entries.
  support::Json stats() const;

 private:
  struct Impl;
  bool load_records(cache::Store& store, std::uint64_t version,
                    bool published);
  std::unique_ptr<Impl> impl_;
};

}  // namespace pareval::buildsim
