// Sweep-service tests: protocol codec round trips for every message
// type, the FrameDecoder's fatal-on-damage semantics (the socket-side
// twist on the journal frame format), the submit codec's spec-hash
// tamper rejection, the JobQueue's scheduling/cancellation contract, and
// an in-process SweepServer end to end — two concurrent clients whose
// folded streams must be bit-identical to the batch
// run_shard/merge_shards path, warm cross-job cache reuse (zero builds
// and zero TU compiles on a resubmit), and the graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.hpp"
#include "eval/shard.hpp"
#include "eval/suite.hpp"
#include "serve/client.hpp"
#include "serve/jobs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace pe = pareval::eval;
namespace pv = pareval::serve;
namespace ps = pareval::support;
using ps::Json;

namespace {

/// One-cell, two-sample spec: the smallest job that still exercises the
/// full submit -> stream -> done -> fold path.
pe::SweepSpec tiny_spec() {
  pe::SweepSpec spec;
  spec.llms = {"o4-mini"};
  spec.pairs = {"cuda->omp_offload"};
  spec.apps = {"nanoXOR"};
  spec.techniques = {"non_agentic"};
  spec.samples_per_task = 2;
  spec.seed = 0x42e;
  return spec;
}

/// A few cells' worth of units, for scheduling and concurrency tests.
pe::SweepSpec small_spec() {
  pe::SweepSpec spec = tiny_spec();
  spec.apps = {"nanoXOR", "microXOR"};
  spec.techniques = {"non_agentic", "top_down"};
  return spec;
}

std::string temp_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The batch reference a server job must match: the whole spec as the
/// single shard of a 1-shard run, merged (exactly what the sweep_client
/// fold does on its end).
std::string batch_reference_dump(const pe::SweepSpec& spec) {
  const pe::Suite& suite = pe::Suite::paper();
  const pe::ShardResult shard = pe::run_shard(suite, spec, 0, 1);
  const auto tasks = pe::merge_shards(suite, spec, {shard});
  return pe::merged_sweep_json(suite, spec, 1, tasks).dump();
}

/// Round-trip `msg` through the wire framing and return the decoded
/// payload, asserting one clean frame.
Json wire_round_trip(const Json& msg) {
  pv::FrameDecoder decoder;
  decoder.feed(pv::frame_message(msg));
  auto out = decoder.next();
  EXPECT_TRUE(out.has_value());
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_FALSE(decoder.next().has_value());  // exactly one frame
  return out.value_or(Json());
}

}  // namespace

// --- message codecs ---------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip) {
  pv::HelloMsg in;
  in.pipeline = 0xdeadbeefcafe1070ull;
  pv::HelloMsg out;
  ASSERT_TRUE(pv::HelloMsg::decode(wire_round_trip(in.encode()), &out));
  EXPECT_EQ(out.server, in.server);
  EXPECT_EQ(out.protocol, pv::kProtocolVersion);
  EXPECT_EQ(out.pipeline, in.pipeline);
}

TEST(ServeProtocol, SubmitRoundTripPreservesSpecAndKnobs) {
  pv::SubmitRequest in;
  in.spec = small_spec();
  in.engine = pareval::minic::EngineKind::Vm;
  in.high_priority = true;
  in.keep_logs = false;
  pv::SubmitRequest out;
  ASSERT_TRUE(pv::SubmitRequest::decode(wire_round_trip(in.encode()), &out));
  EXPECT_EQ(out.spec, in.spec);
  EXPECT_EQ(out.engine, in.engine);
  EXPECT_TRUE(out.high_priority);
  EXPECT_FALSE(out.keep_logs);
}

TEST(ServeProtocol, SubmitRejectsSpecHashMismatch) {
  // Exactly like shard files: a submit whose embedded hash disagrees
  // with its spec is corrupt or tampered and must not be scheduled.
  Json j = pv::SubmitRequest{tiny_spec()}.encode();
  j.set("spec_hash", ps::u64_to_hex(0x1070));
  pv::SubmitRequest out;
  EXPECT_FALSE(pv::SubmitRequest::decode(j, &out));

  // ...and a tampered spec under the original hash is equally rejected.
  Json j2 = pv::SubmitRequest{tiny_spec()}.encode();
  pe::SweepSpec reseeded = tiny_spec();
  reseeded.seed ^= 1;
  j2.set("spec", pe::to_json(reseeded));
  EXPECT_FALSE(pv::SubmitRequest::decode(j2, &out));
}

TEST(ServeProtocol, SampleAndDoneRoundTrip) {
  // A real record (run, not hand-rolled) so the embedded SampleRun codec
  // is exercised too.
  const pe::Suite& suite = pe::Suite::paper();
  const pe::ShardResult shard = pe::run_shard(suite, tiny_spec(), 0, 1);
  ASSERT_FALSE(shard.records.empty());

  pv::SampleMsg sample_in;
  sample_in.job = 7;
  sample_in.record = shard.records.front();
  pv::SampleMsg sample_out;
  ASSERT_TRUE(
      pv::SampleMsg::decode(wire_round_trip(sample_in.encode()),
                            &sample_out));
  EXPECT_EQ(sample_out.job, 7);
  EXPECT_EQ(sample_out.record, sample_in.record);

  pv::JobDoneMsg done_in;
  done_in.job = 7;
  done_in.records = 2;
  done_in.cancelled = true;
  pv::JobDoneMsg done_out;
  ASSERT_TRUE(
      pv::JobDoneMsg::decode(wire_round_trip(done_in.encode()), &done_out));
  EXPECT_EQ(done_out.job, 7);
  EXPECT_EQ(done_out.records, 2);
  EXPECT_TRUE(done_out.cancelled);
}

TEST(ServeProtocol, ControlMessagesRoundTrip) {
  pv::SubmitAck ack{3, 52, 312};
  pv::SubmitAck ack_out;
  ASSERT_TRUE(pv::SubmitAck::decode(wire_round_trip(ack.encode()),
                                    &ack_out));
  EXPECT_EQ(ack_out.job, 3);
  EXPECT_EQ(ack_out.cells, 52);
  EXPECT_EQ(ack_out.units, 312);

  pv::StatusRequest status_req;
  ASSERT_TRUE(pv::StatusRequest::decode(wire_round_trip(status_req.encode()),
                                        &status_req));
  pv::StatusReply status_in;
  status_in.body = Json::object();
  status_in.body.set("draining", false);
  pv::StatusReply status_out;
  ASSERT_TRUE(pv::StatusReply::decode(wire_round_trip(status_in.encode()),
                                      &status_out));
  EXPECT_FALSE(status_out.body["draining"].as_bool());

  pv::CancelRequest cancel_req{11};
  ASSERT_TRUE(pv::CancelRequest::decode(wire_round_trip(cancel_req.encode()),
                                        &cancel_req));
  EXPECT_EQ(cancel_req.job, 11);
  pv::CancelReply cancel_in{11, true, 40};
  pv::CancelReply cancel_out;
  ASSERT_TRUE(pv::CancelReply::decode(wire_round_trip(cancel_in.encode()),
                                      &cancel_out));
  EXPECT_TRUE(cancel_out.found);
  EXPECT_EQ(cancel_out.skipped_units, 40);

  pv::FoldRequest fold_req{"/tmp/worker-store"};
  ASSERT_TRUE(pv::FoldRequest::decode(wire_round_trip(fold_req.encode()),
                                      &fold_req));
  EXPECT_EQ(fold_req.dir, "/tmp/worker-store");
  pv::FoldReply fold_in;
  fold_in.ok = true;
  fold_in.records = 13;
  pv::FoldReply fold_out;
  ASSERT_TRUE(pv::FoldReply::decode(wire_round_trip(fold_in.encode()),
                                    &fold_out));
  EXPECT_TRUE(fold_out.ok);
  EXPECT_EQ(fold_out.records, 13);

  pv::ShutdownRequest shutdown_req;
  ASSERT_TRUE(pv::ShutdownRequest::decode(
      wire_round_trip(shutdown_req.encode()), &shutdown_req));
  pv::ShutdownReply shutdown_reply;
  ASSERT_TRUE(pv::ShutdownReply::decode(
      wire_round_trip(shutdown_reply.encode()), &shutdown_reply));
  EXPECT_TRUE(shutdown_reply.draining);

  pv::ErrorMsg error_in{"server draining"};
  pv::ErrorMsg error_out;
  ASSERT_TRUE(pv::ErrorMsg::decode(wire_round_trip(error_in.encode()),
                                   &error_out));
  EXPECT_EQ(error_out.message, "server draining");

  // Wrong-type dispatch: each decoder refuses another type's frame.
  EXPECT_FALSE(pv::CancelReply::decode(fold_in.encode(), &cancel_out));
  EXPECT_EQ(pv::message_type(fold_in.encode()), "fold_reply");
}

// --- FrameDecoder -----------------------------------------------------------

TEST(ServeFrames, SplitFeedsAcrossFrameBoundariesDecode) {
  const std::string wire = pv::frame_message(pv::StatusRequest().encode()) +
                           pv::frame_message(pv::ShutdownRequest().encode());
  pv::FrameDecoder decoder;
  // Byte-at-a-time: a truncated buffer is "need more bytes", never
  // corruption.
  std::size_t decoded = 0;
  for (const char c : wire) {
    decoder.feed(std::string_view(&c, 1));
    while (decoder.next().has_value()) {
      ++decoded;
      EXPECT_FALSE(decoder.corrupt());
    }
    EXPECT_FALSE(decoder.corrupt());
  }
  EXPECT_EQ(decoded, 2u);
}

TEST(ServeFrames, CorruptPayloadIsPermanentlyFatal) {
  std::string wire = pv::frame_message(pv::StatusRequest().encode());
  wire[wire.size() - 3] ^= 0x20;  // flip a payload byte: CRC now lies
  pv::FrameDecoder decoder;
  decoder.feed(wire);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
  EXPECT_EQ(decoder.corrupt_reason(), "frame CRC mismatch");

  // Unlike the journal reader (which skips a bad record and keeps
  // replaying), the socket decoder never recovers: feeding a pristine
  // frame after the damage still yields nothing.
  decoder.feed(pv::frame_message(pv::StatusRequest().encode()));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(ServeFrames, BadMagicAndOversizedLengthAreFatal) {
  pv::FrameDecoder bad_magic;
  std::string wire = pv::frame_message(pv::StatusRequest().encode());
  wire[0] = 'X';
  bad_magic.feed(wire);
  EXPECT_FALSE(bad_magic.next().has_value());
  EXPECT_TRUE(bad_magic.corrupt());

  pv::FrameDecoder oversized;
  // A syntactically valid header whose length exceeds the frame cap must
  // be rejected before any allocation.
  oversized.feed("PVJ1 ffffffff 00000000\n");
  EXPECT_FALSE(oversized.next().has_value());
  EXPECT_TRUE(oversized.corrupt());

  pv::FrameDecoder not_json;
  not_json.feed(pareval::cache::frame_record("not json"));
  EXPECT_FALSE(not_json.next().has_value());
  EXPECT_TRUE(not_json.corrupt());
}

// --- JobQueue ---------------------------------------------------------------

TEST(ServeJobs, StreamsEveryUnitThenFiresDoneOnce) {
  const pe::Suite& suite = pe::Suite::paper();
  pv::JobQueue queue(suite);
  const pe::SweepSpec spec = small_spec();
  const std::size_t expected_units =
      pe::sweep_cells(suite, spec).size() *
      static_cast<std::size_t>(spec.samples_per_task);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<pe::SampleRecord> streamed;
  int done_job = 0;
  int done_calls = 0;
  bool done_cancelled = true;
  std::size_t done_records = 0;
  const int id = queue.submit(
      spec, pe::HarnessConfig(), /*high_priority=*/false,
      [&](int job, const pe::SampleRecord& r) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_GT(job, 0);
        streamed.push_back(r);
      },
      [&](int job, bool cancelled, std::size_t records) {
        std::lock_guard<std::mutex> lock(mu);
        done_job = job;
        ++done_calls;
        done_cancelled = cancelled;
        done_records = records;
        cv.notify_all();
      });
  ASSERT_GT(id, 0);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done_calls > 0; });
  }
  queue.wait_idle();
  EXPECT_EQ(done_job, id);
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(done_cancelled);
  EXPECT_EQ(done_records, expected_units);
  EXPECT_EQ(streamed.size(), expected_units);

  // The streamed records ARE the 1-shard batch result, merely unordered.
  const auto tasks = pv::fold_records(suite, spec,
                                      pareval::minic::EngineKind::Interp,
                                      streamed);
  const auto reference = pe::merge_shards(
      suite, spec, {pe::run_shard(suite, spec, 0, 1)});
  EXPECT_EQ(tasks, reference);

  const auto jobs = queue.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, pv::JobState::Done);
  EXPECT_EQ(jobs[0].completed_units, expected_units);
  EXPECT_EQ(jobs[0].skipped_units, 0u);
}

TEST(ServeJobs, CancelSkipsQueuedUnitsAndSettlesTheJob) {
  const pe::Suite& suite = pe::Suite::paper();
  // One unit in flight at a time, so a prompt cancel finds nearly the
  // whole queue undispatched.
  pv::JobQueue queue(suite, /*max_inflight=*/1);
  pe::SweepSpec spec = small_spec();
  spec.samples_per_task = 6;  // 4 cells x 6 samples = 24 units

  std::mutex mu;
  std::condition_variable cv;
  bool cancel_issued = false;
  bool done_cancelled = false;
  int done_calls = 0;
  const int id = queue.submit(
      spec, pe::HarnessConfig(), /*high_priority=*/false,
      // Hold the first completed unit hostage until the cancel has been
      // issued (on_sample runs outside the queue lock, so cancel cannot
      // deadlock against it). Without this gate a fast execute stage can
      // drain all 24 units before the main thread reaches cancel().
      [&](int, const pe::SampleRecord&) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return cancel_issued; });
      },
      [&](int, bool cancelled, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        done_cancelled = cancelled;
        ++done_calls;
        cv.notify_all();
      });
  std::size_t skipped = 0;
  const bool cancel_ok = queue.cancel(id, &skipped);
  {
    std::lock_guard<std::mutex> lock(mu);
    cancel_issued = true;
  }
  cv.notify_all();
  ASSERT_TRUE(cancel_ok);
  EXPECT_GE(skipped, 1u);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done_calls > 0; });
  }
  queue.wait_idle();
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(done_cancelled);

  const auto jobs = queue.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, pv::JobState::Cancelled);
  // At least the units the cancel struck from the queue were skipped; a
  // dispatched-but-unstarted unit also skips itself when it observes the
  // cancelled state, so the job total may exceed the struck count.
  EXPECT_GE(jobs[0].skipped_units, skipped);
  EXPECT_EQ(jobs[0].completed_units + jobs[0].skipped_units,
            jobs[0].total_units);

  // A settled job cannot be cancelled again.
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(9999));
}

TEST(ServeJobs, SettledJobsLeaveABoundedHistoryOfTheNewest) {
  const pe::Suite& suite = pe::Suite::paper();
  pv::JobQueue queue(suite);
  const pe::SweepSpec spec = tiny_spec();
  const std::size_t units = static_cast<std::size_t>(spec.samples_per_task);
  const int total = static_cast<int>(pv::JobQueue::kJobHistory) + 6;

  pe::ScoreCache cache;  // every job resubmits the same spec
  pe::HarnessConfig config;
  config.score_cache = &cache;
  std::atomic<int> done_calls{0};
  std::vector<int> ids;
  for (int i = 0; i < total; ++i) {
    // One at a time, so settle order is submit order and "newest" is
    // well defined.
    ids.push_back(queue.submit(
        spec, config, /*high_priority=*/false, {},
        [&](int, bool, std::size_t) { ++done_calls; }));
    queue.wait_idle();
  }
  EXPECT_EQ(done_calls.load(), total);
  EXPECT_EQ(queue.active_jobs(), 0u);

  const auto jobs = queue.jobs();
  ASSERT_EQ(jobs.size(), pv::JobQueue::kJobHistory);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, ids[ids.size() - jobs.size() + i]);
    EXPECT_EQ(jobs[i].state, pv::JobState::Done);
    EXPECT_EQ(jobs[i].completed_units, units);
    EXPECT_EQ(jobs[i].skipped_units, 0u);
  }

  // Finished jobs cannot be cancelled, whether still in the history or
  // already aged out of it.
  EXPECT_FALSE(queue.cancel(ids.back()));
  EXPECT_FALSE(queue.cancel(ids.front()));
}

// --- SweepServer end to end -------------------------------------------------

namespace {

struct RunningServer {
  explicit RunningServer(const std::string& name,
                         const std::string& cache_dir = "") {
    pv::SweepServer::Config config;
    config.endpoint = "unix:" + temp_dir((name + ".sock").c_str());
    config.cache_dir = cache_dir;
    server = std::make_unique<pv::SweepServer>(config,
                                               pe::Suite::paper());
    std::string error;
    started = server->start(&error);
    EXPECT_TRUE(started) << error;
    endpoint = config.endpoint;
  }
  ~RunningServer() {
    if (started) server->stop();
  }

  std::unique_ptr<pv::SweepServer> server;
  std::string endpoint;
  bool started = false;
};

}  // namespace

TEST(ServeServer, TwoConcurrentClientsFoldBitIdenticalToBatch) {
  RunningServer rs("serve_e2e");
  const pe::SweepSpec spec = small_spec();
  const std::string reference = batch_reference_dump(spec);

  auto run_client = [&](std::string* dump, std::string* error) {
    pv::Client client;
    if (!client.connect(rs.endpoint, error)) return;
    EXPECT_EQ(client.hello().protocol, pv::kProtocolVersion);
    pv::Client::JobOutcome outcome;
    if (!client.submit(spec, {}, &outcome, error)) return;
    EXPECT_FALSE(outcome.cancelled);
    EXPECT_EQ(outcome.records.size(),
              static_cast<std::size_t>(outcome.units));
    const pe::Suite& suite = pe::Suite::paper();
    const auto tasks =
        pv::fold_records(suite, spec, pareval::minic::EngineKind::Interp,
                         std::move(outcome.records));
    *dump = pe::merged_sweep_json(suite, spec, 1, tasks).dump();
  };

  std::string dump_a, dump_b, error_a, error_b;
  std::thread ta([&] { run_client(&dump_a, &error_a); });
  std::thread tb([&] { run_client(&dump_b, &error_b); });
  ta.join();
  tb.join();
  ASSERT_TRUE(error_a.empty()) << error_a;
  ASSERT_TRUE(error_b.empty()) << error_b;
  // Both concurrent streams fold to the byte-identical batch document.
  EXPECT_EQ(dump_a, reference);
  EXPECT_EQ(dump_b, reference);
}

TEST(ServeServer, WarmResubmitPerformsZeroBuildsAndZeroTuCompiles) {
  RunningServer rs("serve_warm", temp_dir("serve_warm_cache"));
  const pe::SweepSpec spec = tiny_spec();

  pv::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(rs.endpoint, &error)) << error;
  pv::Client::JobOutcome first;
  ASSERT_TRUE(client.submit(spec, {}, &first, &error)) << error;

  const pe::ScoreCache& cache = rs.server->cache();
  const std::size_t builds_after_first = cache.builds().misses();
  const std::size_t tus_after_first = cache.tus().misses();
  const std::size_t scores_after_first = cache.misses();
  EXPECT_GT(builds_after_first, 0u);

  // Same spec, same connection: the resident caches must absorb all of
  // it — the daemon's whole reason to exist.
  pv::Client::JobOutcome second;
  ASSERT_TRUE(client.submit(spec, {}, &second, &error)) << error;
  EXPECT_EQ(cache.builds().misses(), builds_after_first);
  EXPECT_EQ(cache.tus().misses(), tus_after_first);
  EXPECT_EQ(cache.misses(), scores_after_first);

  // And the streams are identical run to run.
  ASSERT_EQ(first.records.size(), second.records.size());
  const pe::Suite& suite = pe::Suite::paper();
  EXPECT_EQ(pv::fold_records(suite, spec,
                             pareval::minic::EngineKind::Interp,
                             std::move(first.records)),
            pv::fold_records(suite, spec,
                             pareval::minic::EngineKind::Interp,
                             std::move(second.records)));
}

TEST(ServeServer, StatusReportsQueueJobsAndCacheLayers) {
  const std::string store_dir = temp_dir("serve_status_store");
  RunningServer rs("serve_status", store_dir);
  pv::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(rs.endpoint, &error)) << error;

  pv::Client::JobOutcome outcome;
  ASSERT_TRUE(client.submit(tiny_spec(), {}, &outcome, &error)) << error;

  Json body;
  ASSERT_TRUE(client.status(&body, &error)) << error;
  EXPECT_EQ(body["endpoint"].as_string(), rs.endpoint);
  EXPECT_FALSE(body["draining"].as_bool());
  EXPECT_EQ(body["protocol"].as_int(), pv::kProtocolVersion);
  EXPECT_EQ(body["queue"]["active_jobs"].as_int(), 0);
  ASSERT_EQ(body["jobs"].size(), 1u);
  EXPECT_EQ(body["jobs"].at(0)["state"].as_string(), "done");
  EXPECT_EQ(body["jobs"].at(0)["completed_units"].as_int(), outcome.units);
  // Every layer reports; the tiny job certainly built something.
  EXPECT_GT(body["cache"]["builds"]["misses"].as_int(), 0);
  EXPECT_GT(body["cache"]["score"]["entries"].as_int(), 0);
  EXPECT_TRUE(body["cache"]["tu"].is_object());
  // The cache block is ScoreCache::stats(): the journal blocks live in
  // their layers, and the store directory is a top-level key.
  EXPECT_TRUE(body["cache"]["tu"]["journal"].is_object());
  EXPECT_TRUE(body["cache"]["link"]["journal"].is_object());
  EXPECT_EQ(body.find("store"), nullptr);
  EXPECT_EQ(body["cache_dir"].as_string(), store_dir);
}

TEST(ServeServer, MalformedSubmitGetsErrorReplyAndConnectionSurvives) {
  RunningServer rs("serve_badsubmit");
  pv::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(rs.endpoint, &error)) << error;

  // An unknown app name passes the codec but fails suite validation;
  // the server must reply with an error, not drop the connection.
  pe::SweepSpec bogus = tiny_spec();
  bogus.apps = {"no-such-app"};
  pv::Client::JobOutcome outcome;
  EXPECT_FALSE(client.submit(bogus, {}, &outcome, &error));
  EXPECT_FALSE(error.empty());

  // The connection is still usable for a well-formed job.
  error.clear();
  EXPECT_TRUE(client.submit(tiny_spec(), {}, &outcome, &error)) << error;
}

TEST(ServeServer, ShutdownDrainsAndRejectsNewSubmits) {
  RunningServer rs("serve_drain");
  pv::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(rs.endpoint, &error)) << error;
  ASSERT_TRUE(client.shutdown(&error)) << error;
  EXPECT_TRUE(rs.server->draining());

  // A submit into a draining server is rejected with an error reply.
  pv::Client::JobOutcome outcome;
  EXPECT_FALSE(client.submit(tiny_spec(), {}, &outcome, &error));
  EXPECT_FALSE(error.empty());

  rs.server->wait();  // drain completes with no active jobs
}
