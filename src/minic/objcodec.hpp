#pragma once
// Binary object codec for warm-start persistence: a versioned, hash-sealed
// little-endian encoding of a post-sema `TranslationUnit` (the TU compile
// cache's payload for *successful* compiles) plus the shared primitives the
// link cache (buildsim/linkcache.hpp) builds on. Bytecode is never
// persisted: the Vm compiles each executable's chunks lazily, whether its
// link was cold or object-warm.
//
// Contract: decode(encode(tu)) is behaviorally identical to the original —
// every field sema wrote (expression types, parsed OMP directives,
// called_functions, diagnostics) round-trips, so a decoded TU links and
// executes bit-identically to a freshly compiled one without re-running
// the preprocessor, parser, or sema. A payload that is truncated,
// bit-flipped, or written by a different codec version fails the embedded
// magic/version/content-hash checks and decodes to nothing — callers
// treat that as a clean cold miss, never a crash or a mis-execution.
//
// `kObjFormatVersion` is folded into the journal stream version
// (obj_stream_version), so a codec bump cold-starts the object streams
// while leaving the textual TU/score streams warm.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "minic/ast.hpp"

namespace pareval::minic {

/// Bump on ANY change to the binary layout below or in the link payload.
/// v3: link payloads carry only the link tables (functions relocate by
/// TU index and declaration index, like structs and globals) and the link
/// step's diagnostics; the chunk and lambda-chunk sections, the chunk
/// codec, and the NodeTable relocation walk are gone.
inline constexpr std::uint32_t kObjFormatVersion = 3;

/// The stream version object payload streams (`obj1`, `lnk1`) are written
/// under: the pipeline version with the codec format version folded in.
std::uint64_t obj_stream_version(std::uint64_t pipeline_version);

// --- primitives -------------------------------------------------------------

/// Little-endian fixed-width appender over a std::string.
class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  const std::string& bytes() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader. Any out-of-range read poisons the
/// reader (ok() goes false) and yields zero values from then on, so
/// decoders can parse straight-line and check ok() once per record.
class BinReader {
 public:
  explicit BinReader(std::string_view buf) : buf_(buf) {}

  bool ok() const noexcept { return ok_; }
  bool at_end() const noexcept { return pos_ == buf_.size(); }
  void fail() noexcept { ok_ = false; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();

 private:
  bool take(std::size_t n, const char** out);

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- translation units ------------------------------------------------------

/// Serialize a post-sema TU. The payload is self-contained: magic, format
/// version, and a content hash over the body.
std::string encode_tu(const TranslationUnit& tu);

/// nullptr when `bytes` is not a valid current-version payload (torn,
/// corrupted, or version-bumped) — the caller's cold-miss path.
std::shared_ptr<TranslationUnit> decode_tu(std::string_view bytes);

}  // namespace pareval::minic
