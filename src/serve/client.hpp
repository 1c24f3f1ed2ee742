#pragma once
// serve::Client — the blocking client side of the sweep service: one
// connection, one request at a time, replies (and the per-sample stream
// of a submitted job) decoded off the same socket.
//
// fold_records is the batch-parity half of the design: the streamed
// SampleRecords of one job, reassembled into the 1-shard ShardResult and
// pushed through the SAME merge_shards/merged_sweep_json code path the
// batch tools use — so a merged.json written from a server stream is
// byte-identical to sweep_merge's output for the same spec (the CI smoke
// job compares them with cmp).

#include <cstdint>
#include <string>
#include <vector>

#include "eval/shard.hpp"
#include "serve/protocol.hpp"
#include "support/socket.hpp"

namespace pareval::serve {

class Client {
 public:
  struct SubmitOptions {
    minic::EngineKind engine = minic::EngineKind::Interp;
    bool high_priority = false;
    bool keep_logs = true;
  };

  /// A completed (or cancelled) job's stream, records in arrival order.
  struct JobOutcome {
    int job = 0;
    long long cells = 0;
    long long units = 0;
    bool cancelled = false;
    std::vector<eval::SampleRecord> records;
  };

  /// Connect and consume the server's hello. False + `error` on a
  /// connection failure, a malformed greeting, or a protocol-version
  /// mismatch (a client must not talk across revisions).
  bool connect(const std::string& endpoint, std::string* error);

  const HelloMsg& hello() const noexcept { return hello_; }

  /// Submit a job and block until its `done` message, collecting every
  /// streamed record into `out`. `on_sample` (optional) observes each
  /// record as it arrives — the tools' progress meters ride it. False +
  /// `error` on rejection (draining server, invalid spec) or transport
  /// failure.
  bool submit(const eval::SweepSpec& spec, const SubmitOptions& opts,
              JobOutcome* out, std::string* error,
              const eval::SampleProgressFn& on_sample = {});

  /// The status verb: the server's open-ended status document.
  bool status(support::Json* body, std::string* error);

  /// Cancel a job by id (from a second connection; a submit() on this
  /// one is still blocking).
  bool cancel(int job, CancelReply* reply, std::string* error);

  /// Ask the server to import a worker's cache::Store directory.
  bool fold(const std::string& dir, FoldReply* reply, std::string* error);

  /// Begin a graceful server drain. True once the server acknowledged.
  bool shutdown(std::string* error);

 private:
  /// Send one framed message. False + `error` on transport failure.
  bool send(const support::Json& msg, std::string* error);
  /// Block for the next complete message (any type). False + `error` on
  /// peer close, transport failure, or a corrupt frame.
  bool read_message(support::Json* out, std::string* error);

  support::Socket sock_;
  FrameDecoder decoder_;
  HelloMsg hello_;
};

/// Reassemble one job's streamed records (any arrival order) into the
/// per-cell TaskResults of the sweep, bit-identical to the batch path:
/// sorted into plan order, wrapped as the single shard of a 1-shard run,
/// and pushed through merge_shards. Throws std::runtime_error (from
/// merge_shards) when the records do not exactly cover the spec's unit
/// matrix — a cancelled job's partial stream is not a sweep.
std::vector<eval::TaskResult> fold_records(
    const eval::Suite& suite, const eval::SweepSpec& spec,
    minic::EngineKind engine, std::vector<eval::SampleRecord> records);

}  // namespace pareval::serve
