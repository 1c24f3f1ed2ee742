#pragma once
// Shared flag-parsing and --cache-dir helpers for the CLI tools
// (sweep_worker, sweep_merge, bench_figures, sweep_server, sweep_client).
// Each tool used to hand-roll these — strict int parsing, the --engine
// spelling, --spec load + validation, --cache-dir open and its banner —
// with drift between the copies. Header-only because the build
// globs every tools/*.cpp into its own executable.

#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <climits>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "eval/harness.hpp"
#include "eval/spec.hpp"
#include "minic/engine.hpp"
#include "support/cachestore.hpp"

namespace pareval::tools {

/// Strict base-10 int parse: the whole token, no overflow. atoi would
/// turn a typo like "--pair cuda" into pair 0 silently. strtol alone is
/// not strict enough either — it skips leading whitespace and accepts a
/// '+' sign, so `--samples " 5"` would quietly parse; only an optional
/// '-' followed by digits is accepted here.
inline bool parse_int(const char* text, int* out) {
  if (text[0] != '-' && (text[0] < '0' || text[0] > '9')) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < INT_MIN ||
      v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Strict --seed parse: the whole token as an unsigned 64-bit value in
/// strtoull's base-0 spellings (decimal, 0x hex, leading-0 octal).
/// strtoull alone runs "abc" as seed 0, "12x" as 12 and "-1" as 2^64-1;
/// here a sign, whitespace, trailing text or overflow is rejected.
inline bool parse_seed(const char* text, std::uint64_t* out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parse an --engine value ("interp" / "vm"), printing the usage error
/// itself so every tool rejects the flag with one spelling.
inline bool parse_engine_flag(const char* tool, const char* value,
                              minic::EngineKind* out) {
  const auto kind = minic::engine_from_key(value);
  if (!kind.has_value()) {
    std::fprintf(stderr, "%s: --engine must be 'interp' or 'vm'\n", tool);
    return false;
  }
  *out = *kind;
  return true;
}

/// The --spec front door: load + parse + validate against `suite`,
/// printing the failure. False = the tool should exit nonzero.
inline bool load_spec_flag(const char* tool, const std::string& path,
                           const eval::Suite& suite, eval::SweepSpec* out) {
  std::string error;
  if (!eval::load_and_validate_spec(path, suite, out, &error)) {
    std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return false;
  }
  return true;
}

/// Open (mkdir -p) a --cache-dir store, printing the failure.
inline bool open_cache_dir(const char* tool, const std::string& dir,
                           std::optional<cache::Store>& store) {
  store.emplace(dir);
  if (!store->open()) {
    std::fprintf(stderr, "%s: cannot create cache dir %s\n", tool,
                 dir.c_str());
    store.reset();
    return false;
  }
  return true;
}

/// The --cache-dir banner: what attaching `cache` to `store` loaded.
/// `score_stream` says how the score stream went ("warm", "cold", or why
/// it was withheld).
inline void print_cache_banner(const cache::Store& store,
                               const eval::ScoreCache& cache,
                               const char* score_stream) {
  std::printf("cache dir %s: score stream %s (%zu entries); %zu TUs, %zu "
              "plans, %zu links loaded\n",
              store.dir().c_str(), score_stream, cache.size(),
              cache.tus().size(), cache.tus().plan_count(),
              cache.links().size());
}

/// Thread-safe completed/total meter for streamed sweeps, designed to
/// ride eval::SampleProgressFn / the sweep client's per-sample hook.
/// Prints to stderr (results go to stdout) every `stride` ticks and at
/// completion; stride 0 picks ~1% of the total.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::size_t total, std::size_t stride = 0)
      : total_(total),
        stride_(stride != 0 ? stride
                            : (total / 100 != 0 ? total / 100 : 1)) {}

  void tick() {
    const std::size_t done = done_.fetch_add(1) + 1;
    if (done % stride_ == 0 || done == total_) {
      std::fprintf(stderr, "\r  %zu/%zu samples", done, total_);
      if (done == total_) std::fprintf(stderr, "\n");
    }
  }

  std::size_t done() const noexcept { return done_.load(); }

 private:
  std::size_t total_;
  std::size_t stride_;
  std::atomic<std::size_t> done_{0};
};

}  // namespace pareval::tools
