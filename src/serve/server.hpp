#pragma once
// serve::SweepServer — the resident evaluation daemon: accepts SweepSpec
// jobs over a Unix-domain or TCP socket (serve/protocol.hpp frames),
// schedules their (cell × sample) units through one JobQueue on the
// global ThreadPool, and streams every completed SampleRecord back to the
// submitting connection as it lands.
//
// What makes the daemon worth running instead of batch sweep_worker: all
// cache layers live in ONE ScoreCache for the life of the process — its
// five journal streams attached to the --cache-dir store (warm-replayed
// on start, flushed on drain), the build-artifact layer hot in memory —
// so the second submission of a spec the server has already scored
// performs zero builds and zero TU compiles, across jobs and across
// clients.
//
// Lifecycle: start() binds and spawns the accept loop; every connection
// gets a handler thread (blocking frames over one socket, one owner).
// request_stop() is async-signal-safe (one atomic store) — the SIGTERM
// path: the listener stops accepting, handlers reject new submits with an
// error reply, in-flight jobs run to completion and finish streaming,
// caches flush to the store, and wait() returns. A client that
// disconnects mid-job cancels its remaining units (in-flight ones finish;
// nobody is listening, but results are cached for the next submitter).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.hpp"
#include "serve/jobs.hpp"
#include "support/cachestore.hpp"
#include "support/socket.hpp"

namespace pareval::serve {

class SweepServer {
 public:
  struct Config {
    /// Endpoint spelling per support::Endpoint::parse ("unix:/path",
    /// bare path, "tcp:host:port", "tcp:port").
    std::string endpoint;
    /// cache::Store directory to attach the cache stack to; "" runs
    /// memory-only (still warm across jobs, just not across restarts).
    std::string cache_dir;
    /// Concurrent units on the pool; 0 = the pool's worker count.
    unsigned max_inflight = 0;
  };

  /// `suite` must outlive the server. The server owns a private
  /// ScoreCache, so in-process tests and embedded servers get isolated
  /// cache state for free.
  explicit SweepServer(Config config, const eval::Suite& suite);

  /// stop()s if still running.
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Open the store (when configured), attach the cache layers, bind the
  /// endpoint, and spawn the accept loop. False + `error` on failure.
  bool start(std::string* error = nullptr);

  /// Block until a stop was requested AND the drain finished: all jobs
  /// settled, caches flushed, every connection closed. Call from the
  /// thread that owns the server (the tool's main), with request_stop()
  /// arriving from a signal handler or another thread.
  void wait();

  /// Begin a graceful drain. Async-signal-safe: one atomic store; the
  /// accept and handler loops poll it on their receive timeouts.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
  }

  /// request_stop() + wait().
  void stop();

  bool draining() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// The bound endpoint (valid after start()).
  const support::Endpoint& endpoint() const noexcept { return endpoint_; }

  /// The server's private cache, for embedders/tests asserting warmth.
  eval::ScoreCache& cache() noexcept { return cache_; }

 private:
  /// One client connection: the socket plus a send lock, because the
  /// handler thread writes replies while pool threads stream samples.
  struct Conn {
    explicit Conn(support::Socket s) : sock(std::move(s)) {}
    support::Socket sock;
    std::mutex send_mu;
    std::atomic<bool> dead{false};
    std::mutex jobs_mu;
    std::vector<int> jobs;  // jobs this connection is streaming
  };

  void accept_loop();
  void handle_connection(const std::shared_ptr<Conn>& conn);
  void handle_message(const std::shared_ptr<Conn>& conn,
                      const support::Json& msg);
  void handle_submit(const std::shared_ptr<Conn>& conn,
                     const support::Json& msg);
  support::Json status_body() const;
  support::Json fold_store(const std::string& dir);
  bool send_msg(Conn& conn, const support::Json& msg);
  static void drop_job(Conn& conn, int job);

  Config config_;
  const eval::Suite& suite_;
  std::uint64_t version_ = 0;  // scoring_pipeline_hash(suite_)
  support::Endpoint endpoint_;
  std::optional<cache::Store> store_;
  eval::ScoreCache cache_;
  std::unique_ptr<JobQueue> queue_;
  support::Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool joined_ = false;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> handlers_;
};

}  // namespace pareval::serve
