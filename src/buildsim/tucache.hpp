#pragma once
// Content-addressed TU compile cache: ccache/sccache for the simulated
// toolchain, sitting *under* the build-artifact layer. The build layer is
// keyed by whole-repo content, so two candidate artifacts that differ only
// in their build file (the dominant build-failure defect class) recompile
// every identical translation unit; this cache memoizes execsim::compile_tu
// itself, so those builds share every TU compile.
//
// The key is exact, not heuristic: the preprocessor reports the repo files
// it actually opened (TranslationUnit::resolved_files) and the repo paths
// it probed but found absent (::missing_probes), so an entry is valid for a
// repo iff the main source, capabilities, defines, and toolchain match AND
// every resolved dependency has the same content AND every missing probe is
// still absent. Editing a transitively-included header therefore
// invalidates exactly the TUs that include it; creating a file a quoted
// include previously fell past invalidates exactly the TUs that probed it.
//
// The cache persists through the journaled cache::Store: TU *outcomes*
// (diagnostics, system headers, dependency manifest — not the AST, which
// is a live program) plus a per-build plan outcome keyed by (repo
// content, make target). A failed build carries no executable, so its
// outcome is fully serializable: on a warm start, build_repo reconstructs
// the whole failed BuildResult from the persisted plan without compiling
// anything, and failed-TU entries reconstruct their TranslationUnit from
// diagnostics alone.
//
// Successful compiles additionally persist a *warm object* — the full
// post-sema AST, serialized by minic/objcodec — in the store's "obj1"
// stream. On a warm store start a successful entry deserializes its
// object instead of re-running the preprocessor/parser/sema, revalidated
// by the same dependency manifest; a corrupt or version-bumped payload is
// a clean miss that just recompiles.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buildsim/builder.hpp"
#include "minic/ast.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"
#include "vfs/repo.hpp"

namespace pareval::buildsim {

/// Predefined macros of one compiler invocation (-DNAME=VALUE, in command
/// order — order is semantic: a later define wins in the preprocessor).
using TuDefines = std::vector<std::pair<std::string, std::string>>;

/// Stable 64-bit content hash of a repository (paths + contents,
/// length-delimited by construction: each (path, content) pair is folded
/// through SplitMix64), folded from the hashes vfs::Repo stores at
/// write(). eval::repo_content_hash forwards here; the algorithm is pinned
/// by the golden scoring-pipeline-hash test.
std::uint64_t repo_content_hash(const vfs::Repo& repo);

/// Primary TU cache key: (source path, source content hash, capabilities,
/// defines, toolchain id). The header dependencies cannot be part of the
/// primary key — they are only known after preprocessing — so entries
/// under one primary key carry a dependency manifest that is re-validated
/// against the repo on every lookup (the ccache "manifest" scheme, exact
/// here because the toolchain is simulated and pure).
std::uint64_t tu_primary_key(const std::string& source,
                             const std::string& source_content,
                             const minic::Capabilities& caps,
                             const TuDefines& defines,
                             std::string_view toolchain_id);

/// Key of one whole-build plan: (repo content hash, make target) —
/// everything build_repo's outcome depends on. Callers pass a hash they
/// already computed (the scoring pipeline computes it for the
/// build-artifact key just before building — hashing the whole repo twice
/// per build would double the hot cold-sweep hashing cost).
std::uint64_t build_plan_key(std::uint64_t repo_hash,
                             const std::string& make_target);

/// Thread-safe memoization of execsim::compile_tu on a
/// support::ShardedCache of manifest groups (one group per primary key,
/// LRU-bounded by group), plus the persisted per-build plan outcomes
/// described above. Values are shared TranslationUnits: immutable after
/// sema, so concurrent builds link the same TU objects (exactly as the
/// build-artifact layer shares whole BuildResults). Compiles are
/// single-flight per primary key, so misses() equals the number of
/// distinct (primary key, manifest) pairs compiled.
class TuCompileCache {
 public:
  TuCompileCache();
  ~TuCompileCache();
  TuCompileCache(const TuCompileCache&) = delete;
  TuCompileCache& operator=(const TuCompileCache&) = delete;

  /// compile_tu with memoization. In-memory hits share the originally
  /// compiled TU (full fidelity). A persisted-hit reconstruction of a
  /// *failed* TU carries the identical diagnostics, resolved files, and
  /// system headers — everything a failed build reads before stopping —
  /// but NOT the partially-parsed
  /// AST (functions/globals are empty); downstream BuildResults are
  /// bit-identical because a failed TU always stops the build before
  /// link. Callers inspecting the AST of failed TUs should not rely on
  /// it surviving a warm start.
  ///
  /// `obj_key_out` (optional) receives the TU's *content* key — the
  /// primary key folded with the validated dependency manifest's digest,
  /// so it changes whenever any input of the compile changes. This is
  /// what the link cache keys on (the primary key alone does not pin
  /// header contents). 0 for the uncacheable missing-source path.
  std::shared_ptr<minic::TranslationUnit> compile(
      const vfs::Repo& repo, const std::string& source,
      const minic::Capabilities& caps, const TuDefines& defines,
      std::string_view toolchain_id, std::uint64_t* obj_key_out = nullptr);

  /// When this cache holds the persisted outcome of a build of exactly
  /// this plan AND that build failed, reconstruct its BuildResult (failed
  /// builds have no executable, so the outcome round-trips completely)
  /// and return true: the caller skips the entire build. Successful plans
  /// return false — their executables are live programs that must be
  /// re-linked.
  bool lookup_failed_plan(std::uint64_t plan_key, BuildResult* out);

  /// Record a finished build's outcome. Successful compiles persist on
  /// their own, as serialized objects in the "obj1" stream keyed per TU
  /// (see kObjStream).
  void record_plan(std::uint64_t plan_key, const BuildResult& result);

  /// Counters. misses() counts TU compiles actually performed;
  /// hits() live in-memory hits; persisted_hits() TU reconstructions
  /// from persisted state (failed-TU outcomes and warm-object decodes —
  /// obj_hits() counts the warm-object subset); plan_hits() whole failed
  /// builds reconstructed without compiling. lookups() = hits +
  /// persisted_hits + misses, so the dedupe ratio is
  /// (lookups - misses) / lookups.
  std::size_t hits() const noexcept;
  std::size_t persisted_hits() const noexcept;
  std::size_t obj_hits() const noexcept;
  std::size_t misses() const noexcept;
  std::size_t lookups() const noexcept;
  std::size_t plan_hits() const noexcept;

  /// TU entry count / recorded plan count.
  std::size_t size() const;
  std::size_t plan_count() const;
  void clear();
  /// Bound the number of primary keys (manifest groups) and the plan
  /// count, each to at least one per shard.
  void set_capacity(std::size_t max_entries);

  /// Toggle the warm-object layer (default on): when on, flush() appends
  /// each successful TU's serialized AST to the "obj1" stream and a warm
  /// start deserializes it instead of recompiling. Off restores the
  /// outcome-only behaviour — successful persisted entries recompile —
  /// which is what the bench's TU-warm pass measures against.
  void set_object_layer(bool on) noexcept;
  bool object_layer() const noexcept;

  /// Journaled-store streams: TU outcomes and plan outcomes live in
  /// separate streams, each record without a discriminator field.
  static constexpr const char* kTuStream = "tu";
  static constexpr const char* kPlanStream = "tuplan";
  /// Warm objects: serialized post-sema TUs for successful compiles,
  /// keyed by (primary key, manifest digest). A third stream, written
  /// under minic::obj_stream_version(version), so a codec format bump
  /// cold-starts exactly this stream.
  static constexpr const char* kObjStream = "obj1";

  /// Bind this cache to a shared cache::Store and replay its "tu",
  /// "tuplan" and "obj1" streams into memory (entries already here win —
  /// outcomes are pure). flush() appends to the attached store from then
  /// on. Returns false iff the store's streams are absent or stale (the
  /// cache still works; flush() will seed them). Re-attaching the store
  /// this cache is already bound to, under the same version and with no
  /// clear() in between, replays nothing and returns the first result.
  bool attach(cache::Store& store, std::uint64_t version);
  /// Replay another store's streams into memory WITHOUT binding to it:
  /// imported records are not marked as published in the attached store,
  /// so a later flush() forwards them — the fan-in merge primitive.
  bool import_store(cache::Store& store, std::uint64_t version);
  /// Append every TU outcome and plan the attached store has not seen
  /// (compiled/recorded here, or folded in via import_store), as one
  /// locked batch per stream, then compact if past the byte threshold.
  /// Returns the number of records appended (0 when detached).
  std::size_t flush();
  /// Counters as a JSON object with pinned key order (hits,
  /// persisted_hits, obj_hits, misses, lookups, plan_hits, entries,
  /// plans, dedupe_ratio = (lookups - misses) / lookups), plus — when a
  /// store is attached — the journal blocks of its streams: "journal"
  /// (tu), "plan_journal" (tuplan) and "obj_journal" (obj1). The "tu"
  /// block of eval::ScoreCache::stats().
  support::Json stats() const;

 private:
  struct Impl;

  bool load_records(cache::Store& store, std::uint64_t version,
                    bool published);

  std::unique_ptr<Impl> impl_;
};

}  // namespace pareval::buildsim
