// sweep_server: the resident evaluation daemon. Binds a Unix-domain or
// TCP endpoint, keeps every cache layer of one ScoreCache warm in memory
// (its five journal streams attached to --cache-dir, build artifacts
// process-local), and serves sweep jobs submitted by sweep_client —
// scheduling their (cell x sample) units fair-share across concurrent
// jobs on the global work-stealing pool and streaming every completed
// sample back as it lands.
//
// SIGTERM/SIGINT begin a graceful drain: no new submissions, in-flight
// jobs finish streaming, caches flush to the store, then a clean exit —
// the lifecycle the CI smoke job exercises.
#include <csignal>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "eval/suite.hpp"
#include "serve/server.hpp"
#include "support/strings.hpp"

using namespace pareval;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen ENDPOINT [options]\n"
      "  --listen EP        endpoint to serve: 'unix:/path/to.sock' (or a\n"
      "                     bare path), 'tcp:host:port', or 'tcp:port'\n"
      "                     (127.0.0.1)\n"
      "  --cache-dir DIR    attach the cache layers to a\n"
      "                     journaled cache directory (cache::Store):\n"
      "                     warm-replayed on start, flushed on drain.\n"
      "                     Without it the caches are memory-only (still\n"
      "                     warm across jobs, not across restarts)\n"
      "  --max-inflight N   concurrent (cell, sample) units on the pool\n"
      "                     (default: the pool's worker count)\n"
      "SIGTERM/SIGINT drain gracefully: submissions close, running jobs\n"
      "finish streaming, caches flush, then the server exits 0.\n",
      argv0);
  return 2;
}

serve::SweepServer* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: request_stop is one atomic store; the accept and
  // handler loops observe it on their next poll timeout.
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  serve::SweepServer::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int parsed = 0;
    if (arg == "--listen" && i + 1 < argc) {
      config.endpoint = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      config.cache_dir = argv[++i];
    } else if (arg == "--max-inflight" && i + 1 < argc &&
               tools::parse_int(argv[++i], &parsed) && parsed > 0) {
      config.max_inflight = static_cast<unsigned>(parsed);
    } else {
      return usage(argv[0]);
    }
  }
  if (config.endpoint.empty()) return usage(argv[0]);

  serve::SweepServer server(config, eval::Suite::paper());
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "sweep_server: %s\n", error.c_str());
    return 1;
  }
  std::printf("sweep_server: serving %s (pipeline %s%s%s)\n",
              server.endpoint().describe().c_str(),
              support::u64_to_hex(eval::scoring_pipeline_hash()).c_str(),
              config.cache_dir.empty() ? "" : ", cache dir ",
              config.cache_dir.c_str());
  std::fflush(stdout);

  server.wait();

  const eval::ScoreCache& cache = server.cache();
  std::printf(
      "sweep_server: drained (score layer %zu hits / %zu misses, build "
      "layer %zu hits / %zu misses, TU layer %zu+%zu hits / %zu misses)\n",
      cache.hits(), cache.misses(), cache.builds().hits(),
      cache.builds().misses(), cache.tus().hits(),
      cache.tus().persisted_hits(), cache.tus().misses());
  return 0;
}
