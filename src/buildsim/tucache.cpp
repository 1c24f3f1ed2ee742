#include "buildsim/tucache.hpp"

#include <algorithm>
#include <atomic>

#include "execsim/driver.hpp"
#include "minic/objcodec.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/sharded_cache.hpp"
#include "support/strings.hpp"

namespace pareval::buildsim {

using minic::Capabilities;
using minic::Diag;
using minic::DiagBag;
using minic::Severity;
using minic::TranslationUnit;
using support::Json;

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return support::SplitMix64(h ^ v).next();
}

long long caps_to_bits(const Capabilities& caps) {
  return (caps.cuda ? 1 : 0) | (caps.openmp ? 2 : 0) |
         (caps.offload ? 4 : 0) | (caps.kokkos ? 8 : 0) |
         (caps.curand ? 16 : 0);
}

Capabilities caps_from_bits(long long bits) {
  Capabilities caps;
  caps.cuda = (bits & 1) != 0;
  caps.openmp = (bits & 2) != 0;
  caps.offload = (bits & 4) != 0;
  caps.kokkos = (bits & 8) != 0;
  caps.curand = (bits & 16) != 0;
  return caps;
}

Json diags_to_json(const DiagBag& bag) {
  Json arr = Json::array();
  for (const Diag& d : bag.all()) {
    Json j = Json::object();
    j.set("category", minic::diag_category_key(d.category));
    j.set("severity", d.severity == Severity::Error ? "error" : "warning");
    j.set("message", d.message);
    if (!d.file.empty()) j.set("file", d.file);
    if (d.line != 0) j.set("line", d.line);
    arr.push_back(std::move(j));
  }
  return arr;
}

bool diags_from_json(const Json& arr, DiagBag* out) {
  if (!arr.is_array()) return false;
  for (const Json& j : arr.items()) {
    Diag d;
    if (!j.is_object() ||
        !minic::diag_category_from_key(j["category"].as_string(),
                                       &d.category)) {
      return false;
    }
    const std::string& sev = j["severity"].as_string();
    if (sev == "error") {
      d.severity = Severity::Error;
    } else if (sev == "warning") {
      d.severity = Severity::Warning;
    } else {
      return false;
    }
    if (!j["message"].is_string()) return false;
    d.message = j["message"].as_string();
    d.file = j["file"].as_string();
    d.line = static_cast<int>(j["line"].as_int());
    out->add(std::move(d));
  }
  return true;
}

}  // namespace

std::uint64_t repo_content_hash(const vfs::Repo& repo) {
  // Fold each file's (path, content) hash pair through SplitMix64 so that
  // "ab"+"c" vs "a"+"bc" and file-boundary shuffles cannot collide
  // structurally. (64-bit accidental collisions are ~1e-13 at 1e6 repos.)
  // The exact algorithm is pinned by the golden scoring-pipeline-hash test
  // (eval::repo_content_hash forwards here).
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, for an asymmetric start
  repo.for_each_hash([&h](std::uint64_t path_hash,
                          std::uint64_t content_hash) {
    h = fold(h, path_hash);
    h = fold(h, content_hash);
  });
  return h;
}

std::uint64_t tu_primary_key(const std::string& source,
                             const std::string& source_content,
                             const Capabilities& caps,
                             const TuDefines& defines,
                             std::string_view toolchain_id) {
  std::uint64_t h = support::stable_hash(std::string("pareval-tu-key-v1"));
  h = fold(h, support::stable_hash(source));
  h = fold(h, support::stable_hash(source_content));
  h = fold(h, static_cast<std::uint64_t>(caps_to_bits(caps)));
  // Length-delimit the define list so (A,B)+(C) cannot alias (A)+(B,C).
  h = fold(h, static_cast<std::uint64_t>(defines.size()));
  for (const auto& [name, value] : defines) {
    h = fold(h, support::stable_hash(name));
    h = fold(h, support::stable_hash(value));
  }
  h = fold(h, support::stable_hash(
                  std::span<const char>(toolchain_id.data(),
                                        toolchain_id.size())));
  return h;
}

std::uint64_t build_plan_key(std::uint64_t repo_hash,
                             const std::string& make_target) {
  std::uint64_t h =
      fold(support::stable_hash(std::string("pareval-tu-plan-v1")),
           repo_hash);
  return fold(h, support::stable_hash(make_target));
}

// --- Impl -------------------------------------------------------------------

struct TuCompileCache::Impl {
  struct Dep {
    std::string path;
    std::uint64_t hash = 0;

    bool operator==(const Dep&) const = default;
  };

  /// The repo input set one cached compile depends on. Immutable once
  /// built and shared by pointer, so lookups can snapshot candidates
  /// under the shard lock and validate them outside it.
  struct Manifest {
    std::vector<Dep> deps;             // resolved repo files, include order
    std::vector<std::string> missing;  // probed-but-absent repo paths

    bool operator==(const Manifest&) const = default;
  };

  struct Entry {
    std::shared_ptr<const Manifest> manifest;
    /// The live value. nullptr for an outcome-only entry replayed from a
    /// store: its diags/system_headers below are the payload, and a
    /// failed one reconstructs a TU on demand (a successful one needs its
    /// warm object, or its compile re-runs and upgrades it).
    std::shared_ptr<TranslationUnit> tu;
    bool ok = true;
    DiagBag diags;
    std::vector<std::string> system_headers;
    /// Serialized post-sema TU (minic::encode_tu) for a successful
    /// compile — empty until flush() encodes the live TU, or filled by
    /// replaying an "obj1" record.
    std::string obj;
    bool published = false;  // already in the attached store's journal
    bool obj_published = false;  // obj payload already in the "obj1" stream
  };

  /// Every cached compile of one primary key: one entry per distinct
  /// dependency manifest. The unit of the LRU bound and of single-flight.
  using Group = std::vector<Entry>;

  struct Plan {
    bool ok = false;
    std::string build_system;
    Capabilities caps;
    std::string log;
    DiagBag diags;
    bool published = false;
  };

  /// Does `manifest` describe this repo's exact input set? Runs OUTSIDE
  /// the shard lock (manifests are immutable and pointer-shared) and
  /// compares the content hashes the repo stored at write().
  static bool manifest_valid(const vfs::Repo& repo,
                             const Manifest& manifest) {
    for (const Dep& dep : manifest.deps) {
      if (repo.content_hash(dep.path) != dep.hash) return false;
    }
    for (const std::string& path : manifest.missing) {
      if (repo.exists(path)) return false;
    }
    return true;
  }

  /// Exactly the `order` string entry_json emits — the manifest's
  /// serialized identity (and sort tiebreaker for entries sharing a key).
  static std::string manifest_order(const Manifest& manifest) {
    std::string order;
    for (const Dep& dep : manifest.deps) {
      order += dep.path + "\x01" + support::u64_to_hex(dep.hash) + "\x01";
    }
    for (const std::string& m : manifest.missing) order += "\x02" + m;
    return order;
  }

  /// The manifest's identity hash in the persisted format, so "obj1"
  /// records can name the (key, manifest) entry their payload extends
  /// without repeating the dependency list.
  static std::uint64_t manifest_digest(const Manifest& manifest) {
    return support::stable_hash(manifest_order(manifest));
  }

  /// The TU layer's record codec in the journaled store. `order_out`
  /// (optional) receives the manifest tiebreaker string used to sort
  /// entries sharing a key.
  static Json entry_json(std::uint64_t key, const Entry& entry,
                         std::string* order_out) {
    Json j = Json::object();
    j.set("key", support::u64_to_hex(key));
    const bool ok =
        entry.tu != nullptr ? !entry.tu->diags.has_errors() : entry.ok;
    j.set("ok", ok);
    Json deps = Json::array();
    std::string order;
    for (const Dep& dep : entry.manifest->deps) {
      Json d = Json::object();
      d.set("path", dep.path);
      d.set("hash", support::u64_to_hex(dep.hash));
      deps.push_back(std::move(d));
      order += dep.path + "\x01" + support::u64_to_hex(dep.hash) + "\x01";
    }
    j.set("deps", std::move(deps));
    Json missing = Json::array();
    for (const std::string& m : entry.manifest->missing) {
      missing.push_back(m);
      order += "\x02" + m;
    }
    j.set("missing", std::move(missing));
    Json headers = Json::array();
    const auto& system_headers = entry.tu != nullptr
                                     ? entry.tu->system_headers
                                     : entry.system_headers;
    for (const std::string& h : system_headers) headers.push_back(h);
    j.set("system_headers", std::move(headers));
    j.set("diags", diags_to_json(entry.tu != nullptr ? entry.tu->diags
                                                     : entry.diags));
    if (order_out != nullptr) *order_out = std::move(order);
    return j;
  }

  /// Parse one TU record into an outcome-only entry (tu == nullptr).
  /// false on any malformed field: the record is skipped whole.
  static bool parse_entry(const Json& j, std::uint64_t* key, Entry* out) {
    if (!support::u64_from_hex(j["key"].as_string(), key)) return false;
    if (!j["ok"].is_bool()) return false;
    Entry entry;
    entry.ok = j["ok"].as_bool();
    auto manifest = std::make_shared<Manifest>();
    for (const Json& d : j["deps"].items()) {
      std::uint64_t hash = 0;
      if (!d["path"].is_string() ||
          !support::u64_from_hex(d["hash"].as_string(), &hash)) {
        return false;
      }
      manifest->deps.push_back({d["path"].as_string(), hash});
    }
    for (const Json& m : j["missing"].items()) {
      if (!m.is_string()) return false;
      manifest->missing.push_back(m.as_string());
    }
    for (const Json& h : j["system_headers"].items()) {
      if (!h.is_string()) return false;
      entry.system_headers.push_back(h.as_string());
    }
    if (!diags_from_json(j["diags"], &entry.diags)) return false;
    entry.manifest = std::move(manifest);
    *out = std::move(entry);
    return true;
  }

  static Json plan_json(std::uint64_t key, const Plan& plan) {
    Json j = Json::object();
    j.set("key", support::u64_to_hex(key));
    j.set("ok", plan.ok);
    j.set("build_system", plan.build_system);
    j.set("caps", caps_to_bits(plan.caps));
    j.set("log", plan.log);
    j.set("diags", diags_to_json(plan.diags));
    return j;
  }

  static bool parse_plan(const Json& j, std::uint64_t* key, Plan* out) {
    if (!support::u64_from_hex(j["key"].as_string(), key)) return false;
    if (!j["ok"].is_bool() || !j["build_system"].is_string() ||
        !j["caps"].is_number() || !j["log"].is_string()) {
      return false;
    }
    Plan plan;
    plan.ok = j["ok"].as_bool();
    plan.build_system = j["build_system"].as_string();
    plan.caps = caps_from_bits(j["caps"].as_int());
    plan.log = j["log"].as_string();
    if (!diags_from_json(j["diags"], &plan.diags)) return false;
    *out = std::move(plan);
    return true;
  }

  /// The landed entry of `key` whose manifest matches this repo, as a TU:
  /// a live hit, a failed outcome reconstructed from its diagnostics, or a
  /// decoded warm object. nullptr when no entry serves the repo — the
  /// caller compiles. Counts the hit it returns.
  std::shared_ptr<TranslationUnit> resolve(const vfs::Repo& repo,
                                           const std::string& source,
                                           std::uint64_t key,
                                           std::uint64_t* obj_key_out) {
    // Snapshot the candidate manifests under the lock (cheap pointer
    // copies — manifests are immutable and shared).
    std::vector<std::shared_ptr<const Manifest>> candidates;
    tus.visit(key, [&candidates](Group* group) {
      if (group == nullptr) return;
      candidates.reserve(group->size());
      for (const Entry& entry : *group) candidates.push_back(entry.manifest);
    });

    // Validate outside the lock, so concurrent builds never wait on a
    // shard mutex while manifests are checked.
    std::shared_ptr<const Manifest> valid;
    for (const auto& manifest : candidates) {
      if (manifest_valid(repo, *manifest)) {
        valid = manifest;
        break;
      }
    }
    if (valid == nullptr) return nullptr;

    // Resolve the validated entry (it may have been evicted while
    // unlocked — then it is simply a miss).
    return tus.visit(key, [&](Group* group)
                              -> std::shared_ptr<TranslationUnit> {
      if (group == nullptr) return nullptr;
      const auto it = std::find_if(
          group->begin(), group->end(),
          [&valid](const Entry& e) { return e.manifest == valid; });
      if (it == group->end()) return nullptr;
      Entry& entry = *it;
      if (obj_key_out != nullptr) {
        *obj_key_out = fold(key, manifest_digest(*entry.manifest));
      }
      if (entry.tu != nullptr) {
        hits.fetch_add(1, std::memory_order_relaxed);
        return entry.tu;
      }
      if (!entry.ok) {
        // A persisted *failed* compile: the build stops on its
        // diagnostics before ever linking, so a TU carrying exactly the
        // persisted diagnostics is bit-identical downstream — no
        // recompile needed.
        auto tu = std::make_shared<TranslationUnit>();
        tu->path = source;
        tu->diags = entry.diags;
        tu->system_headers = entry.system_headers;
        tu->resolved_files.reserve(entry.manifest->deps.size());
        for (const Dep& dep : entry.manifest->deps) {
          tu->resolved_files.push_back(dep.path);
        }
        tu->missing_probes = entry.manifest->missing;
        entry.tu = tu;  // upgrade: later lookups are plain hits
        persisted_hits.fetch_add(1, std::memory_order_relaxed);
        return tu;
      }
      // A persisted *successful* compile: deserialize its warm object if
      // the store replayed one — the decoded TU is the full post-sema
      // AST, so nothing re-runs. A corrupt, truncated, or version-bumped
      // payload decodes to nullptr and falls through to a plain
      // recompile (which upgrades the entry in place), as does an entry
      // persisted before the object layer existed.
      if (object_layer.load(std::memory_order_relaxed) &&
          !entry.obj.empty()) {
        if (auto tu = minic::decode_tu(entry.obj)) {
          entry.tu = tu;
          persisted_hits.fetch_add(1, std::memory_order_relaxed);
          obj_hits.fetch_add(1, std::memory_order_relaxed);
          return tu;
        }
      }
      return nullptr;
    });
  }

  /// Compile `source` and land the outcome under `key`. The caller owns
  /// the key's flight, so no other thread compiles this key meanwhile.
  std::shared_ptr<TranslationUnit> compile_and_insert(
      const vfs::Repo& repo, const std::string& source,
      const Capabilities& caps, const TuDefines& defines, std::uint64_t key,
      std::uint64_t* obj_key_out) {
    auto tu = execsim::compile_tu(repo, source, caps, defines);
    misses.fetch_add(1, std::memory_order_relaxed);

    auto manifest = std::make_shared<Manifest>();
    manifest->deps.reserve(tu->resolved_files.size());
    for (const std::string& path : tu->resolved_files) {
      // Every resolved file was just read by the preprocessor, so it
      // exists.
      manifest->deps.push_back({path, repo.content_hash(path).value()});
    }
    manifest->missing = tu->missing_probes;
    if (obj_key_out != nullptr) {
      *obj_key_out = fold(key, manifest_digest(*manifest));
    }

    tus.upsert(key, [&](Group& group) {
      for (Entry& existing : group) {
        if (*existing.manifest == *manifest) {
          // The upgrade of a replayed outcome-only entry: install the
          // live TU and keep its publish flags — its outcome is already
          // in the store.
          existing.tu = tu;
          return;
        }
      }
      Entry entry;
      entry.manifest = std::move(manifest);
      entry.tu = tu;
      group.push_back(std::move(entry));
    });
    return tu;
  }

  support::ShardedCache<std::uint64_t, Group> tus{1 << 14};
  support::ShardedCache<std::uint64_t, Plan> plans{1 << 14};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> persisted_hits{0};
  std::atomic<std::size_t> obj_hits{0};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> plan_hits{0};
  std::atomic<bool> object_layer{true};
  cache::Binding binding;  // attached journal store (optional)
};

TuCompileCache::TuCompileCache() : impl_(new Impl) {}
TuCompileCache::~TuCompileCache() = default;

std::shared_ptr<TranslationUnit> TuCompileCache::compile(
    const vfs::Repo& repo, const std::string& source,
    const Capabilities& caps, const TuDefines& defines,
    std::string_view toolchain_id, std::uint64_t* obj_key_out) {
  if (!repo.exists(source)) {
    // The builder checks existence before compiling; keep the degenerate
    // path uncached rather than keying on an absent file.
    if (obj_key_out != nullptr) *obj_key_out = 0;
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return execsim::compile_tu(repo, source, caps, defines);
  }
  const std::uint64_t key =
      tu_primary_key(source, repo.at(source), caps, defines, toolchain_id);

  // One compile per key at a time: a thread that misses while another
  // compiles the key waits and looks again, so a repo matching the
  // manifest that lands is a hit, and only a repo that fails every
  // landed manifest compiles (under its own flight).
  for (;;) {
    if (auto tu = impl_->resolve(repo, source, key, obj_key_out)) return tu;
    const auto flight = impl_->tus.claim(key);
    if (!flight) continue;
    // The entry may have landed between the lookup and the claim.
    if (auto tu = impl_->resolve(repo, source, key, obj_key_out)) return tu;
    return impl_->compile_and_insert(repo, source, caps, defines, key,
                                     obj_key_out);
  }
}
bool TuCompileCache::lookup_failed_plan(std::uint64_t plan_key,
                                        BuildResult* out) {
  const bool hit = impl_->plans.visit(plan_key, [out](Impl::Plan* plan) {
    if (plan == nullptr || plan->ok) return false;  // ok: relink required
    BuildResult result;
    result.ok = false;
    result.diags = plan->diags;
    result.log = plan->log;
    result.caps = plan->caps;
    result.build_system = plan->build_system;
    *out = std::move(result);
    return true;
  });
  if (hit) impl_->plan_hits.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void TuCompileCache::record_plan(std::uint64_t plan_key,
                                 const BuildResult& result) {
  if (!result.ok && result.exe.has_value()) {
    // A multi-target build can fail *after* linking an earlier target's
    // executable. Reconstructing it from a plan would drop that live
    // executable and break build_repo's cold/warm bit-identity, so such
    // builds are never recorded — they just rebuild (their TU compiles
    // still dedupe).
    return;
  }
  Impl::Plan plan;
  plan.ok = result.ok;
  plan.build_system = result.build_system;
  plan.caps = result.caps;
  plan.log = result.log;
  plan.diags = result.diags;
  // Builds are pure: a re-recorded plan is identical, so an existing
  // entry (and its publish flag) stays.
  impl_->plans.insert(plan_key, std::move(plan));
}

std::size_t TuCompileCache::hits() const noexcept {
  return impl_->hits.load();
}
std::size_t TuCompileCache::persisted_hits() const noexcept {
  return impl_->persisted_hits.load();
}
std::size_t TuCompileCache::obj_hits() const noexcept {
  return impl_->obj_hits.load();
}
std::size_t TuCompileCache::misses() const noexcept {
  return impl_->misses.load();
}
std::size_t TuCompileCache::lookups() const noexcept {
  return hits() + persisted_hits() + misses();
}
std::size_t TuCompileCache::plan_hits() const noexcept {
  return impl_->plan_hits.load();
}

std::size_t TuCompileCache::size() const {
  std::size_t n = 0;
  impl_->tus.for_each(
      [&n](std::uint64_t, const Impl::Group& group) { n += group.size(); });
  return n;
}

std::size_t TuCompileCache::plan_count() const {
  return impl_->plans.size();
}

void TuCompileCache::clear() {
  impl_->tus.clear();
  impl_->plans.clear();
  impl_->hits.store(0);
  impl_->persisted_hits.store(0);
  impl_->obj_hits.store(0);
  impl_->misses.store(0);
  impl_->plan_hits.store(0);
  impl_->binding.reset();
}

void TuCompileCache::set_capacity(std::size_t max_entries) {
  impl_->tus.set_capacity(max_entries);
  impl_->plans.set_capacity(max_entries);
}

void TuCompileCache::set_object_layer(bool on) noexcept {
  impl_->object_layer.store(on, std::memory_order_relaxed);
}
bool TuCompileCache::object_layer() const noexcept {
  return impl_->object_layer.load(std::memory_order_relaxed);
}

// --- persistence ------------------------------------------------------------

bool TuCompileCache::load_records(cache::Store& store,
                                  std::uint64_t version, bool published) {
  const bool tu_ok =
      store.replay(kTuStream, version, [this, published](const Json& j) {
        std::uint64_t key = 0;
        Impl::Entry entry;
        if (!Impl::parse_entry(j, &key, &entry)) return;
        entry.published = published;
        // An entry already present for the same (key, manifest) wins —
        // compiles are pure, so it holds the same outcome (and possibly
        // a live TU).
        impl_->tus.upsert(key, [&entry](Impl::Group& group) {
          for (const Impl::Entry& existing : group) {
            if (*existing.manifest == *entry.manifest) return;
          }
          group.push_back(std::move(entry));
        });
      });
  const bool plan_ok =
      store.replay(kPlanStream, version, [this, published](const Json& j) {
        std::uint64_t key = 0;
        Impl::Plan plan;
        if (!Impl::parse_plan(j, &key, &plan)) return;
        plan.published = published;
        impl_->plans.insert(key, std::move(plan));
      });
  // Warm objects replay after the TU stream they extend: each record
  // names its entry by (key, manifest digest) and attaches the payload
  // to it. The payload stays serialized until the entry actually hits —
  // validation against the repo happens through the manifest exactly as
  // before, and decode failures degrade to a recompile.
  const bool obj_ok = store.replay(
      kObjStream, minic::obj_stream_version(version),
      [this, published](const Json& j) {
        std::uint64_t key = 0;
        std::uint64_t digest = 0;
        if (!support::u64_from_hex(j["key"].as_string(), &key)) return;
        if (!support::u64_from_hex(j["mf"].as_string(), &digest)) return;
        std::string payload;
        if (!j["payload"].is_string() ||
            !support::base64_decode(j["payload"].as_string(), &payload)) {
          return;
        }
        impl_->tus.visit(key, [&](Impl::Group* group) {
          if (group == nullptr) return;
          for (Impl::Entry& entry : *group) {
            if (Impl::manifest_digest(*entry.manifest) != digest) continue;
            entry.obj = std::move(payload);  // journal replay: last wins
            // An import never unpublishes what the store already holds.
            entry.obj_published = entry.obj_published || published;
            break;
          }
        });
      });
  return tu_ok && plan_ok && obj_ok;
}

bool TuCompileCache::attach(cache::Store& store, std::uint64_t version) {
  return impl_->binding.attach(store, version, [&] {
    return load_records(store, version, /*published=*/true);
  });
}

bool TuCompileCache::import_store(cache::Store& store,
                                  std::uint64_t version) {
  return load_records(store, version, /*published=*/false);
}

std::size_t TuCompileCache::flush() {
  Impl& impl = *impl_;
  cache::Store* const store = impl.binding.store();
  if (store == nullptr) return 0;
  const std::uint64_t version = impl.binding.version();
  // Everything the attached store has not seen, in a deterministic
  // order: key, then manifest. The manifest pointer identifies each entry
  // again after the append (manifests are never replaced, only evicted).
  struct Pending {
    std::uint64_t key = 0;
    std::string order;
    Json json;
    std::shared_ptr<const Impl::Manifest> manifest;
  };
  std::vector<Pending> tus;
  impl.tus.for_each([&tus](std::uint64_t key, const Impl::Group& group) {
    for (const Impl::Entry& entry : group) {
      if (entry.published) continue;
      std::string order;
      Json j = Impl::entry_json(key, entry, &order);
      tus.push_back({key, std::move(order), std::move(j), entry.manifest});
    }
  });
  std::sort(tus.begin(), tus.end(), [](const Pending& a, const Pending& b) {
    return a.key != b.key ? a.key < b.key : a.order < b.order;
  });

  std::vector<std::pair<std::uint64_t, Json>> plans;
  impl.plans.for_each([&plans](std::uint64_t key, const Impl::Plan& plan) {
    if (!plan.published) plans.emplace_back(key, Impl::plan_json(key, plan));
  });
  std::sort(plans.begin(), plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Warm objects for successful TUs the "obj1" stream has not seen:
  // compiled live here, or replayed from another store via import_store
  // (their payload forwards verbatim). Serialization runs outside the
  // shard locks — TUs are immutable after sema.
  struct PendingObj {
    std::uint64_t key = 0;
    std::string order;
    std::string payload;                       // pre-serialized, if any
    std::shared_ptr<const TranslationUnit> tu;  // encode this otherwise
    std::shared_ptr<const Impl::Manifest> manifest;
  };
  std::vector<PendingObj> objs;
  impl.tus.for_each([&objs](std::uint64_t key, const Impl::Group& group) {
    for (const Impl::Entry& entry : group) {
      if (entry.obj_published) continue;
      const bool live_ok =
          entry.tu != nullptr && !entry.tu->diags.has_errors();
      if (entry.obj.empty() && !live_ok) continue;
      PendingObj p;
      p.key = key;
      p.order = Impl::manifest_order(*entry.manifest);
      p.payload = entry.obj;
      if (p.payload.empty()) p.tu = entry.tu;
      p.manifest = entry.manifest;
      objs.push_back(std::move(p));
    }
  });
  std::sort(objs.begin(), objs.end(),
            [](const PendingObj& a, const PendingObj& b) {
              return a.key != b.key ? a.key < b.key : a.order < b.order;
            });
  std::vector<Json> obj_records;
  obj_records.reserve(objs.size());
  for (PendingObj& p : objs) {
    if (p.payload.empty()) p.payload = minic::encode_tu(*p.tu);
    Json j = Json::object();
    j.set("key", support::u64_to_hex(p.key));
    j.set("mf", support::u64_to_hex(support::stable_hash(p.order)));
    j.set("payload", support::base64_encode(p.payload));
    obj_records.push_back(std::move(j));
  }

  std::vector<Json> tu_records;
  tu_records.reserve(tus.size());
  for (auto& p : tus) tu_records.push_back(std::move(p.json));
  std::vector<Json> plan_records;
  plan_records.reserve(plans.size());
  for (auto& [key, j] : plans) plan_records.push_back(std::move(j));

  // Empty batches still stamp the stream index, so a first flush seeds
  // the store under the right pipeline version either way.
  if (!store->append_batch(kTuStream, version, tu_records)) return 0;
  if (!store->append_batch(kPlanStream, version, plan_records)) return 0;
  const std::uint64_t obj_version = minic::obj_stream_version(version);
  if (!store->append_batch(kObjStream, obj_version, obj_records)) {
    return 0;
  }

  // Mark what was appended. Entries evicted meanwhile are simply gone.
  auto mark = [&impl](std::uint64_t key,
                      const std::shared_ptr<const Impl::Manifest>& manifest,
                      bool Impl::Entry::*flag) {
    impl.tus.visit(key, [&](Impl::Group* group) {
      if (group == nullptr) return;
      for (Impl::Entry& entry : *group) {
        if (entry.manifest == manifest) entry.*flag = true;
      }
    });
  };
  for (const Pending& p : tus) mark(p.key, p.manifest, &Impl::Entry::published);
  for (const auto& [key, j] : plans) {
    impl.plans.visit(key, [](Impl::Plan* plan) {
      if (plan != nullptr) plan->published = true;
    });
  }
  for (const PendingObj& p : objs) {
    mark(p.key, p.manifest, &Impl::Entry::obj_published);
  }

  store->maybe_compact(kTuStream, version);
  store->maybe_compact(kPlanStream, version);
  store->maybe_compact(kObjStream, obj_version);
  return tus.size() + plans.size() + objs.size();
}

Json TuCompileCache::stats() const {
  Json j = Json::object();
  j.set("hits", static_cast<long long>(hits()));
  j.set("persisted_hits", static_cast<long long>(persisted_hits()));
  j.set("obj_hits", static_cast<long long>(obj_hits()));
  j.set("misses", static_cast<long long>(misses()));
  j.set("lookups", static_cast<long long>(lookups()));
  j.set("plan_hits", static_cast<long long>(plan_hits()));
  j.set("entries", static_cast<long long>(size()));
  j.set("plans", static_cast<long long>(plan_count()));
  const std::size_t n = lookups();
  j.set("dedupe_ratio", n == 0 ? 0.0
                                : static_cast<double>(n - misses()) /
                                      static_cast<double>(n));
  if (const cache::Store* store = impl_->binding.store()) {
    j.set("journal", store->stats_json(kTuStream));
    j.set("plan_journal", store->stats_json(kPlanStream));
    j.set("obj_journal", store->stats_json(kObjStream));
  }
  return j;
}

}  // namespace pareval::buildsim
