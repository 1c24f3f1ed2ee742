#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "serve/protocol.hpp"
#include "support/strings.hpp"

namespace pareval::serve {

using support::Json;

namespace {

constexpr int kPollMs = 100;  // stop-flag latency of the blocking loops

}  // namespace

SweepServer::SweepServer(Config config, const eval::Suite& suite)
    : config_(std::move(config)),
      suite_(suite),
      version_(eval::scoring_pipeline_hash(suite)) {}

SweepServer::~SweepServer() {
  if (started_ && !joined_) stop();
}

bool SweepServer::start(std::string* error) {
  auto fail = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const auto ep = support::Endpoint::parse(config_.endpoint, error);
  if (!ep.has_value()) return false;
  endpoint_ = *ep;
  if (!config_.cache_dir.empty()) {
    store_.emplace(config_.cache_dir);
    if (!store_->open()) {
      return fail("cannot create cache dir " + config_.cache_dir);
    }
    // A cold (or stale-version) stream loads nothing; the drain's flush
    // seeds it. Either way the layers are bound now.
    cache_.attach(*store_, version_);
  }
  queue_ = std::make_unique<JobQueue>(suite_, config_.max_inflight);
  if (!listener_.open(endpoint_, error)) return false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

void SweepServer::wait() {
  if (!started_ || joined_) return;
  // The accept loop exits once a stop is requested; joining it IS the
  // wait for the stop signal.
  accept_thread_.join();
  // Handlers are already rejecting new submits (draining() is true), so
  // the job population can only shrink from here.
  queue_->wait_idle();
  cache_.flush();
  // Handler threads notice the drain on their next receive timeout and
  // close their connections after their last job's `done` went out.
  for (auto& t : handlers_) t.join();
  handlers_.clear();
  conns_.clear();
  listener_.close();
  joined_ = true;
}

void SweepServer::stop() {
  request_stop();
  wait();
}

void SweepServer::accept_loop() {
  while (!draining()) {
    auto sock = listener_.accept(kPollMs);
    if (!sock.has_value()) continue;
    auto conn = std::make_shared<Conn>(std::move(*sock));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    handlers_.emplace_back([this, conn] { handle_connection(conn); });
  }
}

bool SweepServer::send_msg(Conn& conn, const Json& msg) {
  if (conn.dead.load(std::memory_order_acquire)) return false;
  const std::string bytes = frame_message(msg);
  std::lock_guard<std::mutex> lock(conn.send_mu);
  if (!conn.sock.send_all(bytes)) {
    conn.dead.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void SweepServer::drop_job(Conn& conn, int job) {
  std::lock_guard<std::mutex> lock(conn.jobs_mu);
  conn.jobs.erase(std::remove(conn.jobs.begin(), conn.jobs.end(), job),
                  conn.jobs.end());
}

void SweepServer::handle_connection(const std::shared_ptr<Conn>& conn) {
  HelloMsg hello;
  hello.pipeline = version_;
  send_msg(*conn, hello.encode());
  FrameDecoder decoder;
  std::string chunk;
  while (!conn->dead.load(std::memory_order_acquire)) {
    bool has_jobs = false;
    {
      std::lock_guard<std::mutex> lock(conn->jobs_mu);
      has_jobs = !conn->jobs.empty();
    }
    if (draining() && !has_jobs) break;  // drained: close idle connections
    chunk.clear();
    const int n = conn->sock.recv_some(&chunk, 64 * 1024, kPollMs);
    if (n == -2) continue;  // timeout: poll the drain flag again
    if (n <= 0) {
      // Peer closed (or the socket failed). Nobody is listening to the
      // streams anymore: cancel this connection's jobs — in-flight units
      // finish (and warm the cache), queued ones never run.
      std::vector<int> orphaned;
      {
        std::lock_guard<std::mutex> lock(conn->jobs_mu);
        orphaned = conn->jobs;
      }
      conn->dead.store(true, std::memory_order_release);
      for (const int job : orphaned) queue_->cancel(job);
      break;
    }
    decoder.feed(chunk);
    while (auto msg = decoder.next()) handle_message(conn, *msg);
    if (decoder.corrupt()) {
      ErrorMsg err;
      err.message = "corrupt frame: " + decoder.corrupt_reason();
      send_msg(*conn, err.encode());
      conn->dead.store(true, std::memory_order_release);
      std::vector<int> orphaned;
      {
        std::lock_guard<std::mutex> lock(conn->jobs_mu);
        orphaned = conn->jobs;
      }
      for (const int job : orphaned) queue_->cancel(job);
      break;
    }
  }
  // Close the socket as the handler exits, not when wait() collects the
  // Conn: a drained server must leave no peer blocked on a recv that
  // nobody will ever answer. Jobs may still be settling (cancel leaves
  // in-flight units running); their callbacks hold the Conn shared_ptr,
  // see `dead`, and drop their sends harmlessly.
  conn->dead.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(conn->send_mu);
  conn->sock.close();
}

void SweepServer::handle_message(const std::shared_ptr<Conn>& conn,
                                 const Json& msg) {
  const std::string type = message_type(msg);
  auto reply_error = [&](std::string text) {
    ErrorMsg err;
    err.message = std::move(text);
    send_msg(*conn, err.encode());
  };
  if (type == "submit") {
    handle_submit(conn, msg);
  } else if (type == "status") {
    StatusReply reply;
    reply.body = status_body();
    send_msg(*conn, reply.encode());
  } else if (type == "cancel") {
    CancelRequest req;
    if (!CancelRequest::decode(msg, &req)) {
      reply_error("malformed cancel request");
      return;
    }
    CancelReply reply;
    reply.job = req.job;
    std::size_t skipped = 0;
    reply.found = queue_->cancel(req.job, &skipped);
    reply.skipped_units = static_cast<long long>(skipped);
    send_msg(*conn, reply.encode());
  } else if (type == "fold") {
    FoldRequest req;
    if (!FoldRequest::decode(msg, &req)) {
      reply_error("malformed fold request");
      return;
    }
    send_msg(*conn, fold_store(req.dir));
  } else if (type == "shutdown") {
    // Flag the drain before replying: once the client sees the ack,
    // draining() must already be true (submits rejected, no new accepts).
    request_stop();
    ShutdownReply reply;
    send_msg(*conn, reply.encode());
  } else {
    reply_error("unknown message type '" + type + "'");
  }
}

void SweepServer::handle_submit(const std::shared_ptr<Conn>& conn,
                                const Json& msg) {
  SubmitRequest req;
  if (!SubmitRequest::decode(msg, &req)) {
    ErrorMsg err;
    err.message =
        "malformed submit (bad fields, or spec_hash does not match the "
        "embedded spec)";
    send_msg(*conn, err.encode());
    return;
  }
  if (draining()) {
    ErrorMsg err;
    err.message = "server is draining; submissions are closed";
    send_msg(*conn, err.encode());
    return;
  }
  const std::string invalid = req.spec.validate(suite_);
  if (!invalid.empty()) {
    ErrorMsg err;
    err.message = "invalid spec: " + invalid;
    send_msg(*conn, err.encode());
    return;
  }

  eval::HarnessConfig config;
  config.keep_logs = req.keep_logs;
  config.engine = req.engine;
  config.score_cache = &cache_;  // the warm heart of the daemon

  auto on_sample = [this, conn](int job, const eval::SampleRecord& record) {
    SampleMsg sample;
    sample.job = job;
    sample.record = record;
    send_msg(*conn, sample.encode());
  };
  auto on_done = [this, conn](int job, bool cancelled, std::size_t records) {
    JobDoneMsg done;
    done.job = job;
    done.records = static_cast<long long>(records);
    done.cancelled = cancelled;
    send_msg(*conn, done.encode());
    drop_job(*conn, job);
  };

  // Register the job on the connection BEFORE units can settle: the ack
  // and the first samples may interleave on the wire (samples of a warm
  // job can land immediately), but both carry the job id, so the client
  // attributes them either way.
  SubmitAck ack;
  {
    std::lock_guard<std::mutex> lock(conn->jobs_mu);
    conn->jobs.push_back(0);  // placeholder patched below, under the lock
    const int job = queue_->submit(req.spec, config, req.high_priority,
                                   on_sample, on_done);
    conn->jobs.back() = job;
    ack.job = job;
  }
  ack.cells =
      static_cast<long long>(eval::sweep_cells(suite_, req.spec).size());
  ack.units = ack.cells * req.spec.samples_per_task;
  send_msg(*conn, ack.encode());
}

Json SweepServer::status_body() const {
  Json body = Json::object();
  body.set("endpoint", endpoint_.describe());
  body.set("draining", draining());
  body.set("protocol", kProtocolVersion);
  body.set("pipeline", support::u64_to_hex(version_));
  body.set("cache_dir", config_.cache_dir);

  Json queue = Json::object();
  queue.set("active_jobs", static_cast<long long>(queue_->active_jobs()));
  queue.set("queued_units", static_cast<long long>(queue_->queued_units()));
  queue.set("inflight_units",
            static_cast<long long>(queue_->inflight_units()));
  body.set("queue", queue);

  Json jobs = Json::array();
  for (const JobInfo& info : queue_->jobs()) {
    Json j = Json::object();
    j.set("job", info.id);
    j.set("state", job_state_key(info.state));
    j.set("priority", info.high_priority ? "high" : "normal");
    j.set("spec_hash", support::u64_to_hex(info.spec_hash));
    j.set("cells", static_cast<long long>(info.cells));
    j.set("total_units", static_cast<long long>(info.total_units));
    j.set("completed_units", static_cast<long long>(info.completed_units));
    j.set("skipped_units", static_cast<long long>(info.skipped_units));
    jobs.push_back(j);
  }
  body.set("jobs", jobs);

  body.set("cache", cache_.stats());
  return body;
}

Json SweepServer::fold_store(const std::string& dir) {
  FoldReply reply;
  cache::Store other(dir);
  if (!cache_.import_store(other, version_)) {
    reply.ok = false;
    reply.error = "no cache streams at " + dir +
                  " (missing store, or a different pipeline version)";
    return reply.encode();
  }
  reply.ok = true;
  // flush() forwards the imported (unpublished) records into the
  // attached store — the fan-in step. Without a store the import still
  // warmed the in-memory layers; 0 records were appended anywhere.
  reply.records = static_cast<long long>(cache_.flush());
  return reply.encode();
}

}  // namespace pareval::serve
