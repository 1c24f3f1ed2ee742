#pragma once
// The ParEval-Repo application suite (paper §5, Table 1): six scientific
// computing / AI mini-apps, each an embedded source repository per
// available programming model, plus the developer-provided validation the
// paper leverages ("we leverage the correctness validation test cases
// provided by the developers"): test cases with golden outputs computed by
// an independent native C++ reference implementation.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "vfs/repo.hpp"

namespace pareval::apps {

/// Parallel programming models of the benchmark (§5.2).
enum class Model { OmpThreads, OmpOffload, Cuda, Kokkos };

const char* model_name(Model m);        // "OpenMP Threads", ...

/// Stable machine key ("omp_threads", "omp_offload", "cuda", "kokkos") used
/// by every on-disk format (sweep specs, shard files, merged sweeps).
const char* model_key(Model m);
bool model_from_key(const std::string& key, Model* out);

/// One validation run: CLI arguments handed to the application.
struct TestCase {
  std::vector<std::string> args;
};

struct AppSpec {
  std::string name;
  std::string description;

  /// Implementations shipped with the app (green checkmarks in Table 1).
  std::vector<Model> available;
  /// Models the benchmark attempts to port to (yellow '?' in Table 1).
  std::vector<Model> ports;
  /// XSBench: a public port in the target models exists (contamination
  /// probe, §5.1).
  bool public_port_exists = false;

  /// Source repository per available model.
  std::map<Model, vfs::Repo> repos;
  /// Author-translated ground-truth build file per *target* model, used by
  /// the paper's "Code-only" scoring mode (build file swapped in).
  std::map<Model, vfs::Repo> ground_truth_builds;

  std::vector<TestCase> tests;
  /// Expected stdout for a test case (native reference implementation).
  std::function<std::string(const TestCase&)> golden;
  /// Numeric tolerance when comparing outputs (0 = exact).
  double tolerance = 0.0;

  /// Prompt addenda (§3.1): CLI contract for main files, build contract
  /// for build-system files.
  std::string cli_spec;
  std::string build_spec_make;
  std::string build_spec_cmake;

  /// Array-extent hints for the OpenMP-threads -> offload translation:
  /// "function.param" -> extent expression in terms of the function's
  /// parameters (e.g. "cellsXOR.input" -> "N*N"). This is the one semantic
  /// fact a rule-based translator cannot re-derive syntactically; an LLM
  /// infers it from context (documented in DESIGN.md §2).
  std::map<std::string, std::string> array_extents;
};

/// All six applications, in Table 1 order.
const std::vector<const AppSpec*>& all_apps();
/// Lookup by name; nullptr when unknown.
const AppSpec* find_app(const std::string& name);

/// Compare program output against a golden string: tokens must match, and
/// numeric tokens may differ by `tolerance` (relative, with 1e-12 floor).
bool outputs_match(const std::string& got, const std::string& want,
                   double tolerance);

// Per-app accessors (each defined in its own translation unit).
const AppSpec& nanoxor_app();
const AppSpec& microxorh_app();
const AppSpec& microxor_app();
const AppSpec& simplemoc_app();
const AppSpec& xsbench_app();
const AppSpec& llmc_app();

}  // namespace pareval::apps
