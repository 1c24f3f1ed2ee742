#pragma once
// Run-level I/O shared by every execution engine: the fuel/output/memory
// limits, the observable run statistics, the run result, and their one
// JSON spelling. Both the tree-walking `Interpreter` and the bytecode
// `Vm` produce these types; keeping the definitions (and the fuel
// accounting below) in one place is what makes `RunStats` engine-
// invariant and the engines byte-comparable.

#include <string>

#include "minic/diag.hpp"
#include "support/json.hpp"

namespace pareval::minic {

struct RunLimits {
  long long max_steps = 200'000'000;      // execution fuel
  std::size_t max_output_bytes = 1 << 20; // stdout+stderr cap
  long long max_cells = 32'000'000;       // total allocated cells
};

struct RunStats {
  long long steps = 0;
  long long device_kernel_launches = 0;  // CUDA launches, target loops,
                                         // Kokkos parallel dispatches
  long long host_parallel_regions = 0;   // OpenMP CPU parallel loops
  long long target_regions = 0;          // offloaded target regions entered
  long long h2d_copies = 0;
  long long d2h_copies = 0;
  bool read_uninitialized = false;       // poisoned data reached the program

  bool operator==(const RunStats&) const = default;
};

struct RunResult {
  bool ok = false;      // ran to completion with exit code 0
  int exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
  DiagBag diags;        // runtime faults land here
  RunStats stats;
};

// ------------------------------------------------------------------ fuel --
// The single fuel-accounting definition. The interpreter charges one unit
// at every statement/expression/lvalue node entry; the VM fuses runs of
// adjacent same-line charges into one instruction prefix. Both go through
// charge_fuel so `steps` is engine-invariant, including the exhaustion
// value: the one-at-a-time accounting always ends at max_steps + 1, so a
// fused charge that crosses the budget clamps to exactly that.

inline constexpr const char* kFuelExhaustedMessage =
    "execution timed out (exceeded instruction budget)";

/// Charge `count` fuel units against `stats.steps`. Returns false when the
/// budget is exhausted; the caller must raise a RuntimeFault with
/// kFuelExhaustedMessage at the charge's source line.
inline bool charge_fuel(RunStats& stats, const RunLimits& limits,
                        long long count = 1) {
  stats.steps += count;
  if (stats.steps > limits.max_steps) {
    stats.steps = limits.max_steps + 1;
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ json --
// One serialization spelling for run artifacts (differential tests, bench
// reports). Deterministic member order; diag categories use the stable
// keys from diag_category_key.

support::Json to_json(const RunStats& stats);

support::Json to_json(const RunResult& result);

}  // namespace pareval::minic
