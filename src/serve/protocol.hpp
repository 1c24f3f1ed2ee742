#pragma once
// Wire protocol of the sweep service: length-prefixed, CRC-framed JSON
// messages over one ordered byte stream (Unix-domain or TCP socket).
//
// Frames reuse the cache::Store journal discipline byte-for-byte
// (cache::frame_record):
//
//   "PVJ1 " <8-hex payload length> " " <8-hex CRC-32 of payload> "\n"
//   <payload> "\n"
//
// with one semantic difference: a journal reader *skips* a CRC-rejected
// record (bit rot in one record must not poison the rest of a file), but
// a socket peer that produces a bad frame is desynchronized or hostile,
// so the FrameDecoder reports it as fatal and the connection is closed.
//
// Every payload is one JSON object with a "type" member. Client verbs:
//
//   submit   {spec, spec_hash, engine, priority, keep_logs}
//   status   {}
//   cancel   {job}
//   fold     {dir}                      import a remote worker's store
//   shutdown {}                         begin a graceful drain
//
// Server messages:
//
//   hello    {server, protocol, pipeline}   greeting on every connection
//   accepted {job, cells, units}            submit acknowledged
//   sample   {job, record}                  one streamed SampleRecord
//   done     {job, records, cancelled}      job stream terminator
//   status_reply / cancel_reply / fold_reply / shutdown_reply
//   error    {message}                      request-level failure
//
// The submit codec recomputes spec_hash over the embedded spec and
// rejects a mismatch, exactly like shard files: a job whose spec and
// hash disagree is corrupt or tampered and must not be scheduled.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "eval/shard.hpp"
#include "minic/engine.hpp"
#include "support/json.hpp"

namespace pareval::serve {

/// Protocol revision; bumped on any incompatible message change. The
/// server's hello carries it and clients refuse to speak to a different
/// revision.
constexpr long long kProtocolVersion = 2;

/// Frames larger than this are rejected as corrupt before allocation —
/// no legitimate message (even a full ci-subset sample stream frame)
/// comes near it.
constexpr std::size_t kMaxFramePayload = 64u << 20;

/// One framed message: cache::frame_record(msg.dump()).
std::string frame_message(const support::Json& msg);

/// Incremental frame extractor for a socket byte stream. Feed received
/// bytes, then poll next(): each call yields one decoded payload until
/// the buffer runs dry. A malformed header, oversized length, missing
/// trailing newline, or CRC mismatch poisons the decoder permanently
/// (corrupt() stays true) — the transport is byte-ordered, so any framing
/// damage means the stream can never be trusted again.
class FrameDecoder {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// The next complete frame's payload, parsed as JSON. nullopt when the
  /// buffer holds no complete frame (check corrupt() to distinguish
  /// "need more bytes" from "stream is broken"). A payload that is not
  /// valid JSON also marks the stream corrupt.
  std::optional<support::Json> next();

  bool corrupt() const noexcept { return corrupt_; }
  const std::string& corrupt_reason() const noexcept { return reason_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
  std::string reason_;
};

// --- message structs --------------------------------------------------------
// Each struct encodes to a tagged Json object and decodes with strict
// field checks (false = malformed; the caller drops the connection or
// replies with an error message). `message_type` dispatches.

std::string message_type(const support::Json& msg);

/// Server greeting, sent once per connection before any reply.
struct HelloMsg {
  std::string server = "pareval-sweep-server";
  long long protocol = kProtocolVersion;
  std::uint64_t pipeline = 0;  // scoring_pipeline_hash() of the server

  support::Json encode() const;
  static bool decode(const support::Json& j, HelloMsg* out);
};

struct SubmitRequest {
  eval::SweepSpec spec;
  minic::EngineKind engine = minic::EngineKind::Interp;
  bool high_priority = false;
  /// Default true: streamed outcomes carry their stage-log slices, so a
  /// client-side fold is byte-identical to the batch sweep_worker path
  /// (whose HarnessConfig default also keeps logs). Turn off to slim the
  /// stream to structured verdicts only.
  bool keep_logs = true;

  support::Json encode() const;  // embeds spec_hash(spec)
  /// Rejects a stored spec_hash that disagrees with the embedded spec.
  static bool decode(const support::Json& j, SubmitRequest* out);
};

struct SubmitAck {
  int job = 0;
  long long cells = 0;
  long long units = 0;

  support::Json encode() const;
  static bool decode(const support::Json& j, SubmitAck* out);
};

struct SampleMsg {
  int job = 0;
  eval::SampleRecord record;

  support::Json encode() const;
  static bool decode(const support::Json& j, SampleMsg* out);
};

struct JobDoneMsg {
  int job = 0;
  long long records = 0;
  bool cancelled = false;

  support::Json encode() const;
  static bool decode(const support::Json& j, JobDoneMsg* out);
};

struct StatusRequest {
  support::Json encode() const;
  static bool decode(const support::Json& j, StatusRequest* out);
};

/// The status body is an open-ended JSON report (queue depth, per-job
/// progress, per-layer cache + journal stats) — carried verbatim so new
/// server fields never need a protocol bump.
struct StatusReply {
  support::Json body;

  support::Json encode() const;
  static bool decode(const support::Json& j, StatusReply* out);
};

struct CancelRequest {
  int job = 0;

  support::Json encode() const;
  static bool decode(const support::Json& j, CancelRequest* out);
};

struct CancelReply {
  int job = 0;
  bool found = false;
  /// Units that were still queued when the cancel landed (in-flight
  /// units finish and stream; these never run).
  long long skipped_units = 0;

  support::Json encode() const;
  static bool decode(const support::Json& j, CancelReply* out);
};

struct FoldRequest {
  std::string dir;  // a cache::Store directory (e.g. a remote worker's)

  support::Json encode() const;
  static bool decode(const support::Json& j, FoldRequest* out);
};

struct FoldReply {
  bool ok = false;
  long long records = 0;  // appended to the server's store, all streams
  std::string error;

  support::Json encode() const;
  static bool decode(const support::Json& j, FoldReply* out);
};

struct ShutdownRequest {
  support::Json encode() const;
  static bool decode(const support::Json& j, ShutdownRequest* out);
};

struct ShutdownReply {
  bool draining = true;

  support::Json encode() const;
  static bool decode(const support::Json& j, ShutdownReply* out);
};

struct ErrorMsg {
  std::string message;

  support::Json encode() const;
  static bool decode(const support::Json& j, ErrorMsg* out);
};

}  // namespace pareval::serve
