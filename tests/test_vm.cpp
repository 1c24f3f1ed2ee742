// Differential tests for the bytecode VM (minic/vm.hpp): the VM and the
// tree-walking interpreter must be bit-identical in every observable —
// exit code, stdout/stderr, diagnostics, and RunStats including the fuel
// (`steps`) counter — across the whole seed application corpus, targeted
// language features, and runtime-fault paths. This is the contract that
// lets the harness treat the engine as a pure speed knob (and lets the
// score cache omit it from its key).

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "eval/harness.hpp"
#include "eval/pipeline.hpp"
#include "execsim/driver.hpp"
#include "minic/engine.hpp"
#include "one_cell.hpp"
#include "support/par.hpp"

namespace pa = pareval::apps;
namespace bs = pareval::buildsim;
namespace pe = pareval::eval;
using pareval::execsim::Executable;
using pareval::execsim::compile_repo;
using pareval::minic::Capabilities;
using pareval::minic::DiagCategory;
using pareval::minic::EngineKind;
using pareval::minic::RunLimits;
using pareval::minic::RunResult;
using pareval::minic::make_engine;
using pareval::vfs::Repo;

namespace {

Capabilities cuda_caps() {
  Capabilities c;
  c.cuda = true;
  c.curand = true;
  return c;
}
Capabilities omp_caps(bool offload = true) {
  Capabilities c;
  c.openmp = true;
  c.offload = offload;
  return c;
}

Executable compile_one(const std::string& src, Capabilities caps) {
  Repo repo;
  repo.write("main.cpp", src);
  return compile_repo(repo, {"main.cpp"}, caps);
}

RunResult run_engine(const Executable& exe, EngineKind kind,
                     const std::vector<std::string>& args = {},
                     RunLimits limits = {}) {
  return make_engine(kind, exe.program, *exe.builtins, limits)->run(args);
}

/// Run under the VM and report how many tree-walk fallback instructions
/// executed (ExecEngine::tree_fallbacks): 0 = the whole run was lowered.
long long vm_fallbacks(const Executable& exe,
                       const std::vector<std::string>& args = {},
                       RunLimits limits = {}) {
  auto eng = make_engine(EngineKind::Vm, exe.program, *exe.builtins, limits);
  eng->run(args);
  return eng->tree_fallbacks();
}

/// The full observable surface of a run, via the shared JSON codec.
std::string fingerprint(const RunResult& r) {
  return pareval::minic::to_json(r).dump();
}

/// Compile `src`, run it under both engines, require byte-identical
/// results, and return the (interpreter) result for further checks.
RunResult run_both(const std::string& src, Capabilities caps,
                   std::vector<std::string> args = {},
                   RunLimits limits = {}) {
  Executable exe = compile_one(src, caps);
  EXPECT_TRUE(exe.ok()) << exe.diags.render();
  const RunResult interp = run_engine(exe, EngineKind::Interp, args, limits);
  const RunResult vm = run_engine(exe, EngineKind::Vm, args, limits);
  EXPECT_EQ(fingerprint(interp), fingerprint(vm)) << src;
  return interp;
}

bool has_runtime_fault(const pareval::minic::DiagBag& bag) {
  for (const auto& d : bag.all()) {
    if (d.category == DiagCategory::RuntimeFault &&
        d.severity == pareval::minic::Severity::Error) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ------------------------------------------------- seed app corpus ----

namespace {

struct AppModelCase {
  const pa::AppSpec* app;
  pa::Model model;
};

std::vector<AppModelCase> shipped_cases() {
  std::vector<AppModelCase> out;
  for (const pa::AppSpec* app : pa::all_apps()) {
    for (const pa::Model m : app->available) {
      out.push_back({app, m});
    }
  }
  return out;
}

std::string case_name(const testing::TestParamInfo<AppModelCase>& info) {
  std::string name =
      info.param.app->name + "_" + pa::model_name(info.param.model);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

}  // namespace

class VmDiff : public testing::TestWithParam<AppModelCase> {};

// Every shipped implementation of every app, every test case: the VM's
// RunResult (exit code, stdout, stderr, diags, stats) must be
// byte-identical to the interpreter's.
TEST_P(VmDiff, SeedCorpusBitIdentical) {
  const auto& [app, model] = GetParam();
  const auto build = bs::build_repo(app->repos.at(model));
  ASSERT_TRUE(build.ok) << build.log;
  for (const auto& tc : app->tests) {
    const RunResult interp =
        run_engine(*build.exe, EngineKind::Interp, tc.args);
    const RunResult vm = run_engine(*build.exe, EngineKind::Vm, tc.args);
    EXPECT_EQ(fingerprint(interp), fingerprint(vm))
        << app->name << " / " << pa::model_name(model);
    EXPECT_EQ(interp.stats, vm.stats);
  }
}

// The staged scoring pipeline with engine=Vm must produce the exact
// StagedScore — stage verdicts, details, and log slices — of the
// interpreter-backed pipeline.
TEST_P(VmDiff, StagedScoresBitIdentical) {
  const auto& [app, model] = GetParam();
  pe::ScoringPipeline interp_pipe;
  pe::ScoringPipeline vm_pipe;
  vm_pipe.set_engine(EngineKind::Vm);
  const pe::StagedScore a = interp_pipe.score(*app, app->repos.at(model), model);
  const pe::StagedScore b = vm_pipe.score(*app, app->repos.at(model), model);
  EXPECT_EQ(a, b) << app->name << " / " << pa::model_name(model);
}

INSTANTIATE_TEST_SUITE_P(Suite, VmDiff, testing::ValuesIn(shipped_cases()),
                         case_name);

// --------------------------------------------- language feature diffs ----

TEST(VmLang, ControlFlowAndCompoundOps) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int sum = 0;
  for (int i = 0; i < 20; i++) {
    if (i % 3 == 0) continue;
    if (i > 15) break;
    sum += i;
  }
  int j = 0;
  while (j < 10) { j += 2; }
  do { j--; } while (j > 5);
  int k = 7;
  k *= 3; k -= 4; k /= 2; k %= 6; k <<= 2; k >>= 1; k |= 8; k &= 14; k ^= 5;
  int pre = ++k, post = k++;
  printf("%d %d %d %d %d\n", sum, j, k, pre, post);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
}

TEST(VmLang, PointersAndArrays) {
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int a[5];
  for (int i = 0; i < 5; i++) a[i] = i * i;
  int* p = a;
  int* q = p + 3;
  printf("%d %d %ld %d\n", *p, *q, q - p, p < q ? 1 : 0);
  double* d = (double*)malloc(4 * sizeof(double));
  d[0] = 1.5; d[1] = d[0] * 2.0;
  int x = 41;
  int* px = &x;
  *px += 1;
  printf("%d %.1f\n", x, d[1]);
  free(d);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "0 9 3 1\n42 3.0\n");
}

TEST(VmLang, ShortCircuitAndTernary) {
  run_both(R"(
#include <stdio.h>
int calls = 0;
int bump() { calls++; return 1; }
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  int c = 1 && bump();
  printf("%d %d %d %d %d\n", a, b, c, calls, calls > 0 ? 10 : 20);
  return 0;
}
)",
           Capabilities{});
}

TEST(VmLang, RecursionAndFunctionCalls) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() { printf("%d\n", fib(18)); return 0; }
)",
                               Capabilities{});
  EXPECT_EQ(r.stdout_text, "2584\n");
}

TEST(VmLang, KokkosLambdaBodiesCompiled) {
  // Lambda bodies compile to their own chunks on first call; View
  // declarations and view-element assignments (`a(i) = ...`, an Assign
  // whose target is an ExprKind::Call lvalue) remain tree fallbacks.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 16;
    Kokkos::View<double*> a("a", n);
    Kokkos::parallel_for("fill", n, KOKKOS_LAMBDA(int i) {
      a(i) = 3.0 * i;
    });
    Kokkos::fence();
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      sum += a(i);
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "360\n");
}

TEST(VmLang, CudaKernelLaunch) {
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <cuda_runtime.h>
__global__ void scale(int* v, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) v[i] = v[i] * 2;
}
int main() {
  int h[8];
  for (int i = 0; i < 8; i++) h[i] = i;
  int* d;
  cudaMalloc(&d, 8 * sizeof(int));
  cudaMemcpy(d, h, 8 * sizeof(int), cudaMemcpyHostToDevice);
  scale<<<2, 4>>>(d, 8);
  cudaDeviceSynchronize();
  cudaMemcpy(h, d, 8 * sizeof(int), cudaMemcpyDeviceToHost);
  int sum = 0;
  for (int i = 0; i < 8; i++) sum += h[i];
  printf("%d\n", sum);
  return 0;
}
)",
                               cuda_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stats.device_kernel_launches, 1);
}

TEST(VmLang, OmpOffloadRegionCompiled) {
  // OpenMP target regions compile their structured body into a subchunk
  // (an OmpExec instruction brackets it with the data-environment
  // bookkeeping). Device-context stats must still match exactly.
  const RunResult r = run_both(R"(
#include <stdio.h>
#include <omp.h>
int main() {
  int n = 64;
  double sum = 0.0;
  double v[64];
  for (int i = 0; i < n; i++) v[i] = i * 0.5;
  #pragma omp target teams distribute parallel for reduction(+:sum) map(to: v[0:n])
  for (int i = 0; i < n; i++) sum += v[i];
  printf("%.1f\n", sum);
  return 0;
}
)",
                               omp_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_GE(r.stats.target_regions, 1);
}

// ------------------------------------------------- lambda chunk diffs ----

TEST(VmLambda, CapturesThroughNestedScopes) {
  // Capture-by-value flattens globals + every scope of the creating
  // frame; the compiled lambda chunk must resolve captured names through
  // the same environment chain as the tree walker.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
double gscale = 2.0;
int main() {
  Kokkos::initialize();
  {
    int n = 8;
    Kokkos::View<double*> out("out", n);
    double base = 10.0;
    {
      double inner = 0.5;
      {
        int deep = 3;
        Kokkos::parallel_for("fill", n, KOKKOS_LAMBDA(int i) {
          out(i) = gscale * base + inner * i + deep;
        });
      }
    }
    Kokkos::fence();
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      sum += out(i);
    }, total);
    printf("%.1f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  // 8 * (2*10 + 3) + 0.5 * (0+..+7) = 184 + 14 = 198
  EXPECT_EQ(r.stdout_text, "198.0\n");
}

TEST(VmLambda, LambdaCallsFunctionsAndRecursion) {
  // A compiled lambda chunk's CallFn dispatches through the virtual
  // call_function — recursion and nested lambda launches included.
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(6, KOKKOS_LAMBDA(int i, double& sum) {
      sum += fib(i);
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "12\n");  // 0+1+1+2+3+5
}

TEST(VmLambda, RepeatedLaunchesReuseOneChunk) {
  // Every closure over the same LambdaExpr shares one compiled chunk;
  // repeated launches across loop iterations must stay bit-identical
  // (and the fused fuel replay must hold on every re-entry).
  Capabilities caps;
  caps.kokkos = true;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    double grand = 0.0;
    for (int rep = 1; rep <= 4; rep++) {
      double total = 0.0;
      Kokkos::parallel_reduce(5, KOKKOS_LAMBDA(int i, double& sum) {
        if (i % 2 == 0) { sum += rep * i; } else { sum += 1.0; }
      }, total);
      grand += total;
    }
    printf("%.0f\n", grand);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps);
  EXPECT_TRUE(r.ok) << r.stderr_text;
  // per rep: rep*(0+2+4) + 2 = 6*rep + 2; reps 1..4 -> 60 + 8 = 68
  EXPECT_EQ(r.stdout_text, "68\n");
}

TEST(VmLambda, FuelExhaustionInsideLambdaChunk) {
  // The trap must fire after exactly max_steps + 1 charges and report the
  // same line from inside the compiled lambda chunk as from the walker
  // (run_both's fingerprint equality covers the diag byte-for-byte).
  Capabilities caps;
  caps.kokkos = true;
  RunLimits limits;
  limits.max_steps = 4000;
  const RunResult r = run_both(R"(
#include <Kokkos_Core.hpp>
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(1000000, KOKKOS_LAMBDA(int i, double& sum) {
      sum += i * 0.5;
    }, total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               caps, {}, limits);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
  EXPECT_EQ(r.stats.steps, limits.max_steps + 1);
}

// ------------------------------------------------ control-flow pins ----

namespace {

/// What one pinned run must print, exit with and count.
struct Pinned {
  std::string stdout_text;
  int exit_code = 0;
  pareval::minic::RunStats stats;
};

/// run_both, then check the agreed result against values recorded for
/// this program: agreement alone would pass if both engines drifted.
void expect_pinned(const std::string& src, Capabilities caps,
                   const Pinned& want) {
  const RunResult r = run_both(src, caps);
  EXPECT_EQ(r.stdout_text, want.stdout_text) << src;
  EXPECT_EQ(r.exit_code, want.exit_code) << src;
  EXPECT_EQ(r.stats.steps, want.stats.steps) << src;
  EXPECT_EQ(r.stats.device_kernel_launches,
            want.stats.device_kernel_launches) << src;
  EXPECT_EQ(r.stats.host_parallel_regions, want.stats.host_parallel_regions)
      << src;
  EXPECT_EQ(r.stats.target_regions, want.stats.target_regions) << src;
  EXPECT_EQ(r.stats.h2d_copies, want.stats.h2d_copies) << src;
  EXPECT_EQ(r.stats.d2h_copies, want.stats.d2h_copies) << src;
  EXPECT_EQ(r.stats.read_uninitialized, want.stats.read_uninitialized)
      << src;
}

}  // namespace

// A return, break or continue leaves nested blocks, loops, OpenMP regions
// and lambda bodies; a trap or exit() leaves a data region. Each run's
// output, exit code and RunStats are pinned, so the scope, frame and
// data-environment bookkeeping on every such exit stays as it is.
TEST(VmFlow, ReturnFromNestedLoopsAndBlocksInACallee) {
  expect_pinned(R"(
#include <stdio.h>
int find(int target) {
  for (int i = 0; i < 10; i++) {
    int j = 0;
    while (j < 10) {
      {
        int k = i * 10 + j;
        if (k == target) { return k * 2; }
      }
      j++;
    }
  }
  return -1;
}
double half_of_first_odd(int from) {
  int i = from;
  do {
    if (i % 2 == 1) { int h = i; return h / 2; }
    i++;
  } while (i < 100);
  return 0.5;
}
int main() {
  int total = 0;
  for (int t = 0; t < 5; t++) total += find(t * 17);
  printf("%d %d %.1f\n", total, find(1000), half_of_first_odd(8));
  return 0;
}
)",
                Capabilities{}, {"340 -1 4.0\n", 0, {.steps = 5435}});
}

TEST(VmFlow, ReturnFromATargetDataRegionCopiesBack) {
  expect_pinned(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
double fill(double* v, int n) {
  #pragma omp target data map(tofrom: v[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) v[i] = i * 1.5;
    for (int k = 0; k < 3; k++) {
      if (k == 1) { return n * 2.0; }
    }
  }
  return -1.0;
}
int main() {
  int n = 8;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = 0.0;
  double r = fill(v, n);
  printf("%.1f %.1f\n", r, v[3]);
  free(v);
  return 0;
}
)",
                omp_caps(), {"16.0 4.5\n", 0,
                             {.steps = 260,
                              .device_kernel_launches = 1,
                              .target_regions = 1,
                              .h2d_copies = 1,
                              .d2h_copies = 1}});
}

TEST(VmFlow, BreakAndContinueLeaveATargetRegionInALoop) {
  expect_pinned(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 8;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = 0.0;
  int rounds = 0;
  for (int r = 0; r < n; r++) {
    #pragma omp target map(tofrom: v[0:n])
    {
      if (r == 1) continue;
      v[r] = r * 2.0;
      if (r == 4) { int stop = 1; if (stop) break; }
    }
    rounds++;
  }
  int w = 0;
  while (w < 5) {
    w++;
    #pragma omp target data map(tofrom: v[0:n])
    {
      if (w == 2) continue;
      if (w == 4) break;
    }
    rounds += 10;
  }
  printf("%d %d %.1f %.1f %.1f\n", rounds, w, v[1], v[4], v[5]);
  free(v);
  return 0;
}
)",
                omp_caps(), {"23 4 0.0 8.0 0.0\n", 0,
                             {.steps = 329,
                              .device_kernel_launches = 5,
                              .target_regions = 5,
                              .h2d_copies = 9,
                              .d2h_copies = 9}});
}

TEST(VmFlow, ReturnInsideAKokkosLambdaBody) {
  Capabilities caps;
  caps.kokkos = true;
  expect_pinned(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 10;
    Kokkos::View<double*> a("a", n);
    Kokkos::parallel_for("fill", n, KOKKOS_LAMBDA(int i) {
      if (i % 2 == 1) return;
      for (int k = 0; k < 3; k++) {
        { if (k == 2) { a(i) = i * 1.0 + k; return; } }
      }
    });
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      { if (i > 5) { return; } }
      sum += a(i) + 1.0;
    }, total);
    printf("%.1f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                caps, {"18.0\n", 0,
                       {.steps = 438, .device_kernel_launches = 2}});
}

TEST(VmFlow, TrapInsideATargetDataRegionStillCopiesBack) {
  expect_pinned(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 4;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = 0.0;
  printf("start\n");
  #pragma omp target data map(tofrom: v[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) v[i] = i;
    for (int i = 0; i < 20; i++) { v[i] = 1.0; }
  }
  printf("unreached\n");
  return 0;
}
)",
                omp_caps(), {"start\n", 139,
                             {.steps = 176,
                              .device_kernel_launches = 1,
                              .target_regions = 1,
                              .h2d_copies = 1,
                              .d2h_copies = 1}});
}

TEST(VmFlow, ExitInsideATargetDataRegionStillCopiesBack) {
  expect_pinned(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 4;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = 0.0;
  #pragma omp target data map(tofrom: v[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) v[i] = i;
    for (int i = 0; i < n; i++) { if (i == 2) { printf("bye\n"); exit(3); } }
  }
  printf("unreached\n");
  return 0;
}
)",
                omp_caps(), {"bye\n", 3,
                             {.steps = 150,
                              .device_kernel_launches = 1,
                              .target_regions = 1,
                              .h2d_copies = 1,
                              .d2h_copies = 1}});
}

// --------------------------------------------- fallback counting ----

TEST(VmCoverage, LoweredControlFlowRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  int* v = (int*)malloc(16 * sizeof(int));
  int sum = 0;
  for (int i = 0; i < 16; i++) {
    if (i % 4 == 0) continue;
    v[i] = fib(i % 8);
    sum += v[i];
  }
  int j = 0;
  while (j < 5) { j++; }
  do { j--; } while (j > 2);
  printf("%d %d\n", sum, j);
  free(v);
  return 0;
}
)",
                               Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, LambdaBodiesRunWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    double total = 0.0;
    Kokkos::parallel_reduce(64, KOKKOS_LAMBDA(int i, double& sum) {
      if (i % 2 == 0) { sum += i * 0.5; }
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                               [] {
                                 Capabilities c;
                                 c.kokkos = true;
                                 return c;
                               }());
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, OmpHostParallelRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 32;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = i * 0.25;
  double sum = 0.0;
  #pragma omp parallel for reduction(+:sum)
  for (int i = 0; i < n; i++) sum += v[i];
  printf("%.2f\n", sum);
  free(v);
  return 0;
}
)",
                               omp_caps(/*offload=*/false));
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, OmpTargetRegionRunsWithZeroFallbacks) {
  Executable exe = compile_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
int main() {
  int n = 32;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) v[i] = i * 0.5;
  double sum = 0.0;
  #pragma omp target teams distribute parallel for reduction(+:sum) map(to: v[0:n])
  for (int i = 0; i < n; i++) sum += v[i];
  #pragma omp target data map(tofrom: v[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) v[i] = v[i] + 1.0;
  }
  printf("%.1f %.1f\n", sum, v[3]);
  free(v);
  return 0;
}
)",
                               omp_caps());
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(vm_fallbacks(exe), 0);
}

TEST(VmCoverage, ResidualFormsAreCountedAsFallbacks) {
  // `int a[3] = {...}` is a complex declaration (array + InitList): the
  // whole statement tree-walks and the counter must say so.
  Executable exe = compile_one(R"(
#include <stdio.h>
int main() {
  int a[3] = {1, 2, 3};
  printf("%d\n", a[0] + a[1] + a[2]);
  return 0;
}
)",
                               Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_GT(vm_fallbacks(exe), 0);
}

// ------------------------------------------------- runtime fault diffs ----

TEST(VmFault, OutOfBoundsAccess) {
  const RunResult r = run_both(R"(
#include <stdlib.h>
int main() {
  int* p = (int*)malloc(4 * sizeof(int));
  p[10] = 3;
  return 0;
}
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags)) << fingerprint(r);
}

TEST(VmFault, UninitializedRead) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int x;
  int y = x + 1;
  printf("%d\n", y);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_EQ(r.stats.read_uninitialized, 1);
}

TEST(VmFault, FuelExhaustion) {
  RunLimits limits;
  limits.max_steps = 5000;
  const RunResult r = run_both(R"(
int main() {
  int i = 0;
  while (1) { i++; }
  return i;
}
)",
                               Capabilities{}, {}, limits);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
  // Fuel accounting is the one shared definition (minic/runio.hpp): both
  // engines clamp to exactly max_steps + 1.
  EXPECT_EQ(r.stats.steps, limits.max_steps + 1);
  EXPECT_NE(r.stderr_text.find("instruction budget"), std::string::npos);
}

TEST(VmFault, StackOverflow) {
  const RunResult r = run_both(R"(
int boom(int n) { return boom(n + 1); }
int main() { return boom(0); }
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.stderr_text.find("stack overflow"), std::string::npos);
}

TEST(VmFault, DivisionByZero) {
  const RunResult r = run_both(R"(
#include <stdio.h>
int main() {
  int a = 7, b = 0;
  printf("%d\n", a / b);
  return 0;
}
)",
                               Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_runtime_fault(r.diags));
}

// ------------------------------------------------ harness invariance ----

// The harness with engine=Vm is deterministic across thread counts and
// produces the exact TaskResult of the interpreter-backed harness.
TEST(VmHarness, CellSweepEngineAndThreadInvariant) {
  const pe::SweepSpec spec = one_cell_spec(
      "nanoXOR", pareval::llm::Technique::NonAgentic,
      pareval::llm::all_profiles()[0].name, pareval::llm::all_pairs()[0], 6);

  pe::HarnessConfig interp_cfg;
  interp_cfg.threads = 1;

  pe::HarnessConfig vm_serial = interp_cfg;
  vm_serial.engine = EngineKind::Vm;
  pe::HarnessConfig vm_parallel = vm_serial;
  vm_parallel.threads = pareval::support::hardware_threads();

  const auto a = run_one_cell(spec, interp_cfg);
  const auto b = run_one_cell(spec, vm_serial);
  const auto c = run_one_cell(spec, vm_parallel);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}
