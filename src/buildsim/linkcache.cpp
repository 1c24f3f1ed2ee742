#include "buildsim/linkcache.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <utility>

#include "minic/bytecode.hpp"
#include "minic/objcodec.hpp"
#include "support/rng.hpp"
#include "support/sharded_cache.hpp"
#include "support/strings.hpp"

namespace pareval::buildsim {

using minic::Capabilities;
using minic::Diag;
using minic::Severity;
using minic::TranslationUnit;
using support::Json;

namespace {

// "PVL1", little-endian, followed by the codec format version and a
// content hash over the body — the same sealing scheme as encode_tu.
constexpr std::uint32_t kLinkMagic = 0x314c5650u;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return support::SplitMix64(h ^ v).next();
}

std::uint64_t caps_bits(const Capabilities& caps) {
  return (caps.cuda ? 1u : 0u) | (caps.openmp ? 2u : 0u) |
         (caps.offload ? 4u : 0u) | (caps.kokkos ? 8u : 0u) |
         (caps.curand ? 16u : 0u);
}

void encode_diag(const Diag& d, minic::BinWriter& w) {
  w.str(minic::diag_category_key(d.category));
  w.u8(d.severity == Severity::Error ? 1 : 0);
  w.str(d.message);
  w.str(d.file);
  w.i32(d.line);
}

bool decode_diag(minic::BinReader& r, Diag* out) {
  if (!minic::diag_category_from_key(r.str(), &out->category)) return false;
  const std::uint8_t sev = r.u8();
  if (sev > 1) return false;
  out->severity = sev == 1 ? Severity::Error : Severity::Warning;
  out->message = r.str();
  out->file = r.str();
  out->line = r.i32();
  return r.ok();
}

/// Append the (TU index, declaration index) of `item` within the TUs'
/// `member` lists; false when no TU declares it.
template <typename T>
bool encode_ref(const std::vector<std::shared_ptr<TranslationUnit>>& tus,
                std::vector<T> TranslationUnit::*member, const T* item,
                minic::BinWriter& w) {
  for (std::size_t i = 0; i < tus.size(); ++i) {
    const std::vector<T>& items = (*tus[i]).*member;
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (&items[j] == item) {
        w.u32(static_cast<std::uint32_t>(i));
        w.u32(static_cast<std::uint32_t>(j));
        return true;
      }
    }
  }
  return false;
}

/// The declaration an encode_ref reference names in the live TUs; nullptr
/// when either index is out of range.
template <typename T>
const T* decode_ref(const std::vector<std::shared_ptr<TranslationUnit>>& tus,
                    std::vector<T> TranslationUnit::*member,
                    minic::BinReader& r) {
  const std::uint32_t tu_idx = r.u32();
  const std::uint32_t idx = r.u32();
  if (!r.ok() || tu_idx >= tus.size()) return nullptr;
  const std::vector<T>& items = (*tus[tu_idx]).*member;
  return idx < items.size() ? &items[idx] : nullptr;
}

/// Serialize a recorded link outcome: the function, struct, and global
/// tables as references into the link's TUs, plus the link step's own
/// diagnostics. No bytecode is persisted. Empty string when a table entry
/// names no TU declaration — the caller skips the entry.
std::string encode_link(const execsim::Executable& exe) {
  const minic::LinkedProgram& prog = exe.program;
  const auto& tus = prog.tus;

  minic::BinWriter w;
  w.u32(static_cast<std::uint32_t>(tus.size()));

  w.u32(static_cast<std::uint32_t>(prog.functions.size()));
  for (const auto& [name, fn] : prog.functions) {
    w.str(name);
    if (!encode_ref(tus, &TranslationUnit::functions, fn, w)) return {};
  }
  w.u32(static_cast<std::uint32_t>(prog.structs.size()));
  for (const auto& [name, sd] : prog.structs) {
    w.str(name);
    if (!encode_ref(tus, &TranslationUnit::structs, sd, w)) return {};
  }
  w.u32(static_cast<std::uint32_t>(prog.globals.size()));
  for (const minic::GlobalVarDecl* gv : prog.globals) {
    if (!encode_ref(tus, &TranslationUnit::globals, gv, w)) return {};
  }

  // The executable's diagnostics are the TU diagnostics merged in TU
  // order followed by what link_units itself emitted; only that suffix
  // needs persisting (the prefix reconstructs from the live TUs).
  std::size_t tu_diags = 0;
  for (const auto& tu : tus) tu_diags += tu->diags.all().size();
  const auto& all = exe.diags.all();
  if (all.size() < tu_diags) return {};
  w.u32(static_cast<std::uint32_t>(all.size() - tu_diags));
  for (std::size_t i = tu_diags; i < all.size(); ++i) {
    encode_diag(all[i], w);
  }

  std::string body = w.take();
  minic::BinWriter header;
  header.u32(kLinkMagic);
  header.u32(minic::kObjFormatVersion);
  header.u64(support::stable_hash(
      std::span<const char>(body.data(), body.size())));
  std::string out = header.take();
  out += body;
  return out;
}

/// Rebuild the recorded Executable against the live link inputs, with an
/// empty ChunkPack. nullopt on any malformed field — the caller's
/// cold-link path.
std::optional<execsim::Executable> decode_link(
    std::string_view bytes,
    const std::vector<std::shared_ptr<TranslationUnit>>& tus,
    const Capabilities& caps) {
  {
    minic::BinReader header(bytes.substr(0, std::min<std::size_t>(
                                                bytes.size(), 16)));
    if (header.u32() != kLinkMagic) return std::nullopt;
    if (header.u32() != minic::kObjFormatVersion) return std::nullopt;
    const std::uint64_t hash = header.u64();
    if (!header.ok()) return std::nullopt;
    const std::string_view body = bytes.substr(16);
    if (hash != support::stable_hash(
                    std::span<const char>(body.data(), body.size()))) {
      return std::nullopt;
    }
  }
  minic::BinReader r(bytes.substr(16));

  if (r.u32() != tus.size()) return std::nullopt;

  execsim::Executable exe;
  exe.program.tus = tus;
  exe.program.caps = caps;
  exe.builtins = std::make_shared<minic::BuiltinTable>(
      execsim::make_builtin_table(caps));
  exe.chunks = std::make_shared<minic::ChunkPack>();

  const std::uint32_t nfns = r.u32();
  for (std::uint32_t i = 0; i < nfns && r.ok(); ++i) {
    std::string name = r.str();
    const auto* fn = decode_ref(tus, &TranslationUnit::functions, r);
    if (fn == nullptr) return std::nullopt;
    exe.program.functions.emplace(std::move(name), fn);
  }
  const std::uint32_t nstructs = r.u32();
  for (std::uint32_t i = 0; i < nstructs && r.ok(); ++i) {
    std::string name = r.str();
    const auto* sd = decode_ref(tus, &TranslationUnit::structs, r);
    if (sd == nullptr) return std::nullopt;
    exe.program.structs.emplace(std::move(name), sd);
  }
  const std::uint32_t nglobals = r.u32();
  for (std::uint32_t i = 0; i < nglobals && r.ok(); ++i) {
    const auto* gv = decode_ref(tus, &TranslationUnit::globals, r);
    if (gv == nullptr) return std::nullopt;
    exe.program.globals.push_back(gv);
  }

  for (const auto& tu : tus) exe.diags.merge(tu->diags);
  const std::uint32_t ndiags = r.u32();
  for (std::uint32_t i = 0; i < ndiags && r.ok(); ++i) {
    Diag d;
    if (!decode_diag(r, &d)) return std::nullopt;
    exe.diags.add(std::move(d));
  }

  if (!r.ok() || !r.at_end()) return std::nullopt;
  return exe;
}

}  // namespace

// --- Impl -------------------------------------------------------------------

struct LinkCache::Impl {
  struct Entry {
    std::optional<execsim::Executable> exe;  // live outcome (shares TUs)
    std::string payload;                     // serialized, if replayed
    bool published = false;  // record already in the attached store
  };

  /// The live executable of `key`, counted as a hit; nullopt otherwise.
  std::optional<execsim::Executable> live(std::uint64_t key) {
    return entries.visit(key, [this](Entry* entry) {
      std::optional<execsim::Executable> exe;
      if (entry != nullptr && entry->exe.has_value()) {
        hits.fetch_add(1, std::memory_order_relaxed);
        exe = entry->exe;
      }
      return exe;
    });
  }

  support::ShardedCache<std::uint64_t, Entry> entries{1 << 12};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> persisted_hits{0};
  std::atomic<std::size_t> misses{0};
  cache::Binding binding;  // attached journal store (optional)
};

LinkCache::LinkCache() : impl_(new Impl) {}
LinkCache::~LinkCache() = default;

std::uint64_t LinkCache::link_key(const std::vector<std::uint64_t>& tu_keys,
                                  const Capabilities& caps) {
  std::uint64_t h =
      support::stable_hash(std::string("pareval-link-key-v1"));
  h = fold(h, caps_bits(caps));
  h = fold(h, tu_keys.size());
  for (const std::uint64_t k : tu_keys) h = fold(h, k);
  return h;
}

execsim::Executable LinkCache::link(
    std::uint64_t key,
    const std::vector<std::shared_ptr<TranslationUnit>>& tus,
    const Capabilities& caps,
    const std::function<execsim::Executable()>& cold_link) {
  for (;;) {
    if (auto exe = impl_->live(key)) return std::move(*exe);
    const auto flight = impl_->entries.claim(key);
    if (!flight) continue;
    // Owner: the link may have landed between the lookup and the claim.
    if (auto exe = impl_->live(key)) return std::move(*exe);

    std::string payload;
    impl_->entries.visit(key, [&payload](Impl::Entry* entry) {
      if (entry != nullptr) payload = entry->payload;
    });
    // Decode outside the shard lock; the flight keeps other threads from
    // decoding it too.
    if (!payload.empty()) {
      if (auto exe = decode_link(payload, tus, caps)) {
        impl_->entries.visit(key, [&exe](Impl::Entry* entry) {
          if (entry != nullptr) entry->exe = *exe;  // later lookups: hits
        });
        impl_->persisted_hits.fetch_add(1, std::memory_order_relaxed);
        return std::move(*exe);
      }
      // Corrupt/stale payload: drop it so later lookups miss cheaply.
      impl_->entries.visit(key, [](Impl::Entry* entry) {
        if (entry != nullptr) entry->payload.clear();
      });
    }
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    execsim::Executable exe = cold_link();
    // Only successful links are recorded: failed ones re-run through the
    // real linker. The entry copy shares the TUs, builtin table, and
    // ChunkPack, so every later hit reuses the chunks a Vm run compiled.
    if (exe.ok()) {
      impl_->entries.upsert(key, [&exe](Impl::Entry& entry) {
        if (!entry.exe.has_value()) entry.exe = exe;
      });
    }
    return exe;
  }
}

std::size_t LinkCache::hits() const noexcept { return impl_->hits.load(); }
std::size_t LinkCache::persisted_hits() const noexcept {
  return impl_->persisted_hits.load();
}
std::size_t LinkCache::misses() const noexcept {
  return impl_->misses.load();
}
std::size_t LinkCache::lookups() const noexcept {
  return hits() + persisted_hits() + misses();
}

std::size_t LinkCache::size() const { return impl_->entries.size(); }

void LinkCache::clear() {
  impl_->entries.clear();
  impl_->hits.store(0);
  impl_->persisted_hits.store(0);
  impl_->misses.store(0);
  impl_->binding.reset();
}

void LinkCache::set_capacity(std::size_t max_entries) {
  impl_->entries.set_capacity(max_entries);
}

bool LinkCache::load_records(cache::Store& store, std::uint64_t version,
                             bool published) {
  return store.replay(
      kStream, minic::obj_stream_version(version),
      [this, published](const Json& j) {
        std::uint64_t key = 0;
        if (!support::u64_from_hex(j["key"].as_string(), &key)) return;
        std::string payload;
        if (!j["payload"].is_string() ||
            !support::base64_decode(j["payload"].as_string(), &payload)) {
          return;
        }
        impl_->entries.upsert(key, [&](Impl::Entry& entry) {
          entry.payload = std::move(payload);  // journal replay: last wins
          // An import never unpublishes what the store already holds.
          entry.published = entry.published || published;
        });
      });
}

bool LinkCache::attach(cache::Store& store, std::uint64_t version) {
  return impl_->binding.attach(store, version, [&] {
    return load_records(store, version, /*published=*/true);
  });
}

bool LinkCache::import_store(cache::Store& store, std::uint64_t version) {
  return load_records(store, version, /*published=*/false);
}

std::size_t LinkCache::flush() {
  Impl& impl = *impl_;
  cache::Store* const store = impl.binding.store();
  if (store == nullptr) return 0;
  struct Pending {
    std::uint64_t key = 0;
    std::string payload;                      // forwarded or encoded
    std::optional<execsim::Executable> exe;   // encode this if set
  };
  std::vector<Pending> pending;
  impl.entries.for_each([&pending](std::uint64_t key,
                                   const Impl::Entry& entry) {
    if (entry.published) return;
    Pending p;
    p.key = key;
    if (!entry.payload.empty()) {
      p.payload = entry.payload;
    } else if (entry.exe.has_value()) {
      p.exe = entry.exe;  // shallow shares: encode outside the lock
    } else {
      return;
    }
    pending.push_back(std::move(p));
  });
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.key < b.key; });

  std::vector<Json> records;
  std::vector<std::uint64_t> appended;
  records.reserve(pending.size());
  for (Pending& p : pending) {
    if (p.payload.empty()) {
      p.payload = encode_link(*p.exe);
      if (p.payload.empty()) continue;  // unencodable: skip, never torn
    }
    Json j = Json::object();
    j.set("key", support::u64_to_hex(p.key));
    j.set("payload", support::base64_encode(p.payload));
    records.push_back(std::move(j));
    appended.push_back(p.key);
  }

  const std::uint64_t version =
      minic::obj_stream_version(impl.binding.version());
  if (!store->append_batch(kStream, version, records)) return 0;

  for (const std::uint64_t key : appended) {
    impl.entries.visit(key, [](Impl::Entry* entry) {
      if (entry != nullptr) entry->published = true;
    });
  }
  store->maybe_compact(kStream, version);
  return appended.size();
}

Json LinkCache::stats() const {
  Json j = Json::object();
  j.set("hits", static_cast<long long>(hits()));
  j.set("persisted_hits", static_cast<long long>(persisted_hits()));
  j.set("misses", static_cast<long long>(misses()));
  j.set("lookups", static_cast<long long>(lookups()));
  j.set("entries", static_cast<long long>(size()));
  if (const cache::Store* store = impl_->binding.store()) {
    j.set("journal", store->stats_json(kStream));
  }
  return j;
}

}  // namespace pareval::buildsim
