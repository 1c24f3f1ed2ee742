// End-to-end MiniC tests: compile (preprocess/parse/sema/link) and run
// programs under each simulated execution model, including the paper's
// Listing 2-4 scenarios (correct CUDA kernel, correct OpenMP offload
// translation, and the broken translation that lost `target parallel for`).

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

#include "execsim/driver.hpp"

using pareval::execsim::Executable;
using pareval::execsim::compile_repo;
using pareval::execsim::run_executable;
using pareval::minic::Capabilities;
using pareval::minic::DiagCategory;
using pareval::minic::RunResult;
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
Capabilities kokkos_caps() {
  Capabilities c;
  c.kokkos = true;
  return c;
}

Executable compile_one(const std::string& src, Capabilities caps) {
  Repo repo;
  repo.write("main.cpp", src);
  return compile_repo(repo, {"main.cpp"}, caps);
}

RunResult run_one(const std::string& src, Capabilities caps,
                  std::vector<std::string> args = {}) {
  Executable exe = compile_one(src, caps);
  EXPECT_TRUE(exe.ok()) << exe.diags.render();
  return run_executable(exe, args);
}

bool has_category(const pareval::minic::DiagBag& bag, DiagCategory cat) {
  for (const auto& d : bag.all()) {
    if (d.category == cat &&
        d.severity == pareval::minic::Severity::Error) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ------------------------------------------------------------- basics --

TEST(Interp, HelloWorld) {
  const RunResult r = run_one(R"(
#include <stdio.h>
int main() {
  printf("hello %d %s %.2f\n", 42, "world", 3.14159);
  return 0;
}
)",
                              Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "hello 42 world 3.14\n");
}

TEST(Interp, ArithmeticAndControlFlow) {
  const RunResult r = run_one(R"(
#include <stdio.h>
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main() {
  int sum = 0;
  for (int i = 0; i < 10; i++) {
    if (i % 2 == 0) continue;
    sum += i;
  }
  printf("%d %d\n", sum, fib(10));
  return 0;
}
)",
                              Capabilities{});
  EXPECT_EQ(r.stdout_text, "25 55\n");
}

TEST(Interp, PointersMallocStructs) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
typedef struct {
  double energy;
  int id;
} Point;
int main() {
  Point* pts = (Point*) malloc(4 * sizeof(Point));
  for (int i = 0; i < 4; i++) {
    pts[i].energy = 1.5 * i;
    pts[i].id = i;
  }
  double total = 0.0;
  for (int i = 0; i < 4; i++) total += pts[i].energy;
  Point copy = pts[2];
  copy.energy = 99.0;      // value semantics: must not affect pts[2]
  printf("%.1f %.1f %d\n", total, pts[2].energy, copy.id);
  free(pts);
  return 0;
}
)",
                              Capabilities{});
  EXPECT_EQ(r.stdout_text, "9.0 3.0 2\n");
}

TEST(Interp, CommandLineArguments) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int main(int argc, char** argv) {
  int n = 8;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "-n") == 0) { n = atoi(argv[i + 1]); i++; }
  }
  printf("n=%d\n", n);
  return 0;
}
)",
                              Capabilities{}, {"-n", "32"});
  EXPECT_EQ(r.stdout_text, "n=32\n");
}

TEST(Interp, DefinesAndHeaderGuards) {
  Repo repo;
  repo.write("config.h", R"(
#ifndef CONFIG_H
#define CONFIG_H
#define GRID 16
#endif
)");
  repo.write("main.cpp", R"(
#include <stdio.h>
#include "config.h"
#include "config.h"
int main() { printf("%d\n", GRID * 2); return 0; }
)");
  Executable exe = compile_repo(repo, {"main.cpp"}, Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(run_executable(exe, {}).stdout_text, "32\n");
}

TEST(Interp, GlobalsAndArrays) {
  const RunResult r = run_one(R"(
#include <stdio.h>
int counter = 3;
double table[4] = {0.5, 1.5, 2.5, 3.5};
int main() {
  counter++;
  double s = 0;
  for (int i = 0; i < 4; i++) s += table[i];
  printf("%d %.1f\n", counter, s);
  return 0;
}
)",
                              Capabilities{});
  EXPECT_EQ(r.stdout_text, "4 8.0\n");
}

TEST(Interp, UninitializedHeapReadPoisonsNotCrashes) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  double* a = (double*) malloc(8 * sizeof(double));
  double x = a[3];
  printf("%d\n", x == 0.0 ? 1 : 0);
  return 0;
}
)",
                              Capabilities{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "0\n");  // garbage, not zero
  EXPECT_TRUE(r.stats.read_uninitialized);
}

TEST(Interp, UseAfterFreeTraps) {
  const RunResult r = run_one(R"(
#include <stdlib.h>
int main() {
  int* p = (int*) malloc(4 * sizeof(int));
  free(p);
  p[0] = 1;
  return 0;
}
)",
                              Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Interp, BufferOverflowTraps) {
  const RunResult r = run_one(R"(
#include <stdlib.h>
int main() {
  int* p = (int*) malloc(4 * sizeof(int));
  p[9] = 1;
  return 0;
}
)",
                              Capabilities{});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Interp, InfiniteLoopHitsFuel) {
  Repo repo;
  repo.write("main.cpp", "int main() { while (1) {} return 0; }");
  Executable exe = compile_repo(repo, {"main.cpp"}, Capabilities{});
  ASSERT_TRUE(exe.ok());
  pareval::minic::RunLimits limits;
  limits.max_steps = 10000;
  const RunResult r = run_executable(exe, {}, limits);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

// ------------------------------------------------------------ sema -----

TEST(Sema, UndeclaredIdentifier) {
  Executable exe = compile_one("int main() { return missing_var; }",
                               Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::UndeclaredIdentifier));
}

TEST(Sema, ArgCountMismatch) {
  Executable exe = compile_one(R"(
int add(int a, int b) { return a + b; }
int main() { return add(1); }
)",
                               Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::ArgTypeMismatch));
}

TEST(Sema, ArgTypeMismatchPointerVsInt) {
  Executable exe = compile_one(R"(
double sum(double* data, int n) { return data[n - 1]; }
int main() { return (int) sum(5, 3); }
)",
                               Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::ArgTypeMismatch));
}

TEST(Sema, SyntaxErrorMissingBrace) {
  Executable exe =
      compile_one("int main() { if (1) { return 0; return 1; }",
                  Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::CodeSyntax));
}

namespace {

std::string repeat(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// main() setting x to 1 through `depth` levels of one nested form, then
/// printing it. The two flat chains build the same depth in a loop: `sum`
/// adds `depth` ones (x ends at `depth`), `subscripts` indexes `depth`
/// times (well-typed only at depth 1).
std::string nested_program(std::string_view form, int depth) {
  std::string body;
  if (form == "sum") {
    body = "x = 1" + repeat(" + 1", depth - 1) + ";";
  } else if (form == "subscripts") {
    body = "int a[1]; a[0] = 1; x = a" + repeat("[0]", depth) + ";";
  } else if (form == "parens") {
    body = "x = " + repeat("(", depth) + "1" + repeat(")", depth) + ";";
  } else if (form == "minus") {
    body = "x = " + repeat("- ", 2 * (depth / 2)) + "1;";
  } else if (form == "braces") {
    body = repeat("{", depth) + " x = 1; " + repeat("}", depth);
  } else {
    body = repeat("if (1) ", depth) + "x = 1;";
  }
  return "#include <stdio.h>\nint main() {\n  int x = 0;\n  " + body +
         "\n  printf(\"%d\\n\", x);\n  return 0;\n}\n";
}

}  // namespace

TEST(Sema, DeepNestingIsACleanSyntaxError) {
  // Past the parser's nesting budget every form ends in one CodeSyntax
  // diagnostic instead of overflowing the stack in the parser or in any
  // later recursive pass.
  const std::pair<const char*, int> deep[] = {
      {"parens", 5000}, {"minus", 20000}, {"braces", 20000},
      {"if", 20000},    {"sum", 20000},   {"subscripts", 20000}};
  for (const auto& [form, depth] : deep) {
    const Executable exe =
        compile_one(nested_program(form, depth), Capabilities{});
    EXPECT_FALSE(exe.ok()) << form;
    // The budget error is fatal for the TU: no cascade of recovery errors.
    std::size_t syntax = 0;
    for (const auto& d : exe.diags.all()) {
      if (d.category == DiagCategory::CodeSyntax) ++syntax;
    }
    EXPECT_EQ(syntax, 1u) << form << exe.diags.render();
  }
}

TEST(Sema, NestingWithinTheBudgetCompilesAndRuns) {
  for (const char* form : {"parens", "minus", "braces", "if"}) {
    const RunResult r = run_one(nested_program(form, 200), Capabilities{});
    EXPECT_TRUE(r.ok) << form;
    EXPECT_EQ(r.stdout_text, "1\n") << form;
  }
  const RunResult sum = run_one(nested_program("sum", 200), Capabilities{});
  EXPECT_TRUE(sum.ok);
  EXPECT_EQ(sum.stdout_text, "200\n");
}

TEST(Sema, StrayBreakOrContinueIsACompileError) {
  // Loop depth restarts at every function and lambda body, so neither a
  // loop around the call site nor one around the lambda expression lets a
  // break/continue through: each program gets exactly one CodeSyntax error.
  const std::pair<const char*, Capabilities> stray[] = {
      {"int main() { break; }", Capabilities{}},
      {R"(
int f() { continue; return 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 3; i++) s += f();
  return s;
}
)",
       Capabilities{}},
      {R"(
#include <Kokkos_Core.hpp>
int main() {
  Kokkos::initialize();
  for (int r = 0; r < 2; r++) {
    Kokkos::parallel_for(4, KOKKOS_LAMBDA(int i) {
      if (i == 2) break;
    });
  }
  Kokkos::finalize();
  return 0;
}
)",
       kokkos_caps()},
  };
  for (const auto& [src, caps] : stray) {
    const Executable exe = compile_one(src, caps);
    EXPECT_FALSE(exe.ok()) << src;
    std::size_t syntax = 0;
    for (const auto& d : exe.diags.all()) {
      if (d.category == DiagCategory::CodeSyntax) ++syntax;
    }
    EXPECT_EQ(syntax, 1u) << src << exe.diags.render();
  }
  // Inside a loop, also through an OpenMP region, both still compile.
  const RunResult r = run_one(R"(
#include <stdio.h>
int main() {
  int s = 0;
  for (int i = 0; i < 9; i++) {
    #pragma omp parallel
    {
      if (i == 1) continue;
      if (i == 4) break;
    }
    s += i;
  }
  printf("%d\n", s);
  return 0;
}
)",
                              omp_caps());
  EXPECT_EQ(r.stdout_text, "5\n");
}

TEST(Sema, MissingQuotedHeader) {
  Executable exe = compile_one("#include \"nothere.h\"\nint main() {}\n",
                               Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::MissingHeader));
}

TEST(Sema, KokkosHeaderMissingWithoutPackage) {
  Executable exe = compile_one(
      "#include <Kokkos_Core.hpp>\nint main() { return 0; }\n",
      Capabilities{});  // no kokkos
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::MissingHeader));
}

TEST(Sema, CudaApiUndeclaredWithoutCuda) {
  Executable exe = compile_one(R"(
#include <stdlib.h>
int main() {
  double* d;
  cudaMalloc((void**)&d, 8);
  return 0;
}
)",
                               omp_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::UndeclaredIdentifier));
}

TEST(Sema, MissingStdioMakesPrintfUndeclared) {
  Executable exe =
      compile_one("int main() { printf(\"x\"); return 0; }", Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::UndeclaredIdentifier));
}

TEST(Link, UndefinedReference) {
  Repo repo;
  repo.write("main.cpp", R"(
int compute(int x);
int main() { return compute(3); }
)");
  Executable exe = compile_repo(repo, {"main.cpp"}, Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::LinkError));
}

TEST(Link, CrossFileCallWorks) {
  Repo repo;
  repo.write("kernel.h", "int compute(int x);\n");
  repo.write("kernel.cpp",
             "#include \"kernel.h\"\nint compute(int x) { return x * 3; }\n");
  repo.write("main.cpp", R"(
#include <stdio.h>
#include "kernel.h"
int main() { printf("%d\n", compute(7)); return 0; }
)");
  Executable exe =
      compile_repo(repo, {"main.cpp", "kernel.cpp"}, Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_EQ(run_executable(exe, {}).stdout_text, "21\n");
}

TEST(Link, MultipleDefinition) {
  Repo repo;
  repo.write("a.cpp", "int f() { return 1; }\nint main() { return f(); }\n");
  repo.write("b.cpp", "int f() { return 2; }\n");
  Executable exe = compile_repo(repo, {"a.cpp", "b.cpp"}, Capabilities{});
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::LinkError));
}

TEST(Link, SharedHeaderFunctionIsNotACollision) {
  Repo repo;
  repo.write("util.h", "inline int twice(int x) { return 2 * x; }\n");
  repo.write("a.cpp",
             "#include \"util.h\"\nint user_a() { return twice(1); }\n");
  repo.write("main.cpp", R"(
#include "util.h"
int user_a();
int main() { return twice(2) + user_a() - 6; }
)");
  Executable exe = compile_repo(repo, {"main.cpp", "a.cpp"}, Capabilities{});
  ASSERT_TRUE(exe.ok()) << exe.diags.render();
  EXPECT_TRUE(run_executable(exe, {}).ok);  // exit code 0
}

// ------------------------------------------------------------- CUDA ----

namespace {

// The paper's Listing 2: the original nanoXOR CUDA kernel, plus a driver.
const char* kNanoXorCuda = R"(
#include <stdio.h>
#include <stdlib.h>

__global__ void cellsXOR(const int* input, int* output, size_t N) {
  int i = blockIdx.y * blockDim.y + threadIdx.y;
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < N && j < N) {
    int count = 0;
    if (i > 0 && input[(i - 1) * N + j] == 1) count++;
    if (i < N - 1 && input[(i + 1) * N + j] == 1) count++;
    if (j > 0 && input[i * N + (j - 1)] == 1) count++;
    if (j < N - 1 && input[i * N + (j + 1)] == 1) count++;
    output[i * N + j] = (count == 1) ? 1 : 0;
  }
}

int main() {
  size_t N = 8;
  int* input = (int*) malloc(N * N * sizeof(int));
  int* output = (int*) malloc(N * N * sizeof(int));
  for (size_t k = 0; k < N * N; k++) input[k] = (k * 7 + 3) % 5 == 0 ? 1 : 0;
  int* d_in;
  int* d_out;
  cudaMalloc((void**)&d_in, N * N * sizeof(int));
  cudaMalloc((void**)&d_out, N * N * sizeof(int));
  cudaMemcpy(d_in, input, N * N * sizeof(int), cudaMemcpyHostToDevice);
  dim3 block(4, 4);
  dim3 grid(2, 2);
  cellsXOR<<<grid, block>>>(d_in, d_out, N);
  cudaDeviceSynchronize();
  cudaMemcpy(output, d_out, N * N * sizeof(int), cudaMemcpyDeviceToHost);
  long sum = 0;
  for (size_t k = 0; k < N * N; k++) sum += output[k] * (long)(k + 1);
  printf("checksum %ld\n", sum);
  cudaFree(d_in);
  cudaFree(d_out);
  free(input);
  free(output);
  return 0;
}
)";

}  // namespace

TEST(Cuda, NanoXorKernelRuns) {
  const RunResult r = run_one(kNanoXorCuda, cuda_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stats.device_kernel_launches, 1);
  // Reference checksum computed by the same stencil on the host.
  EXPECT_EQ(r.stdout_text, "checksum 1431\n");
}

TEST(Cuda, MissingMemcpyGivesGarbageNotCrash) {
  // Drop the device->host copy: output stays uninitialized host memory.
  std::string src = kNanoXorCuda;
  const std::string copy_back =
      "cudaMemcpy(output, d_out, N * N * sizeof(int), "
      "cudaMemcpyDeviceToHost);";
  const auto pos = src.find(copy_back);
  ASSERT_NE(pos, std::string::npos);
  src.erase(pos, copy_back.size());
  const RunResult r = run_one(src, cuda_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.read_uninitialized);
  EXPECT_NE(r.stdout_text, "checksum 1431\n");
}

TEST(Cuda, WrongMemcpyDirectionFails) {
  std::string src = kNanoXorCuda;
  const std::string good =
      "cudaMemcpy(d_in, input, N * N * sizeof(int), cudaMemcpyHostToDevice);";
  const auto pos = src.find(good);
  ASSERT_NE(pos, std::string::npos);
  src.replace(pos, good.size(),
              "cudaMemcpy(d_in, input, N * N * sizeof(int), "
              "cudaMemcpyDeviceToHost);");
  const RunResult r = run_one(src, cuda_caps());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Cuda, HostDerefOfDevicePointerTraps) {
  const RunResult r = run_one(R"(
int main() {
  double* d;
  cudaMalloc((void**)&d, 8 * 8);
  d[0] = 1.0;
  return 0;
}
)",
                              cuda_caps());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Cuda, KernelDerefOfHostPointerTraps) {
  const RunResult r = run_one(R"(
#include <stdlib.h>
__global__ void k(double* p) { p[0] = 2.0; }
int main() {
  double* h = (double*) malloc(8 * sizeof(double));
  k<<<1, 1>>>(h);
  free(h);
  return 0;
}
)",
                              cuda_caps());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Cuda, KernelLaunchWithoutConfigRejected) {
  Executable exe = compile_one(R"(
__global__ void k(int* p) { }
int main() { k(0); return 0; }
)",
                               cuda_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::ArgTypeMismatch));
}

TEST(Cuda, GlobalQualifierRejectedWithoutCuda) {
  Executable exe = compile_one(
      "__global__ void k(int* p) { }\nint main() { return 0; }\n",
      omp_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::CodeSyntax));
}

TEST(Cuda, AtomicAddAccumulates) {
  const RunResult r = run_one(R"(
#include <stdio.h>
__global__ void acc(double* sum) {
  atomicAdd(sum, 1.0);
}
int main() {
  double* d_sum;
  cudaMalloc((void**)&d_sum, sizeof(double));
  cudaMemset(d_sum, 0, sizeof(double));
  acc<<<4, 8>>>(d_sum);
  double h_sum = 0;
  cudaMemcpy(&h_sum, d_sum, sizeof(double), cudaMemcpyDeviceToHost);
  printf("%.0f\n", h_sum);
  return 0;
}
)",
                              cuda_caps());
  EXPECT_EQ(r.stdout_text, "32\n") << r.stderr_text;
}

// ---------------------------------------------------- OpenMP offload ----

namespace {

// The paper's Listing 3: correct OpenMP offload translation of nanoXOR.
const char* kNanoXorOmpCorrect = R"(
#include <stdio.h>
#include <stdlib.h>

void cellsXOR(const int* input, int* output, size_t N) {
#pragma omp target data map(to: input[0:N*N]) map(from: output[0:N*N])
  {
#pragma omp target teams distribute parallel for collapse(2)
    for (int i = 0; i < N; i++) {
      for (int j = 0; j < N; j++) {
        int count = 0;
        if (i > 0 && input[(i - 1) * N + j] == 1) count++;
        if (i < N - 1 && input[(i + 1) * N + j] == 1) count++;
        if (j > 0 && input[i * N + (j - 1)] == 1) count++;
        if (j < N - 1 && input[i * N + (j + 1)] == 1) count++;
        output[i * N + j] = (count == 1) ? 1 : 0;
      }
    }
  }
}

int main() {
  size_t N = 8;
  int* input = (int*) malloc(N * N * sizeof(int));
  int* output = (int*) malloc(N * N * sizeof(int));
  for (size_t k = 0; k < N * N; k++) input[k] = (k * 7 + 3) % 5 == 0 ? 1 : 0;
  cellsXOR(input, output, N);
  long sum = 0;
  for (size_t k = 0; k < N * N; k++) sum += output[k] * (long)(k + 1);
  printf("checksum %ld\n", sum);
  free(input);
  free(output);
  return 0;
}
)";

}  // namespace

TEST(Omp, Listing3CorrectTranslationMatchesCuda) {
  const RunResult r = run_one(kNanoXorOmpCorrect, omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "checksum 1431\n");
  EXPECT_GE(r.stats.device_kernel_launches, 1);
  EXPECT_GE(r.stats.h2d_copies, 1);
  EXPECT_GE(r.stats.d2h_copies, 1);
}

TEST(Omp, Listing4MissingTargetProducesWrongAnswer) {
  // The paper's Listing 4: the inner directive lost `target` and
  // `parallel for`; the loop runs on the host, the device `output`
  // shadow is never written, and the from-map copies garbage back.
  std::string src = kNanoXorOmpCorrect;
  const std::string good = "#pragma omp target teams distribute parallel for "
                           "collapse(2)";
  const auto pos = src.find(good);
  ASSERT_NE(pos, std::string::npos);
  src.replace(pos, good.size(),
              "#pragma omp teams distribute collapse(2)");
  const RunResult r = run_one(src, omp_caps());
  EXPECT_TRUE(r.ok);  // builds and runs...
  EXPECT_NE(r.stdout_text, "checksum 1431\n");  // ...but the answer is wrong
  EXPECT_EQ(r.stats.target_regions, 0);
  EXPECT_TRUE(r.stats.read_uninitialized);
}

TEST(Omp, MissingMapClauseTrapsInKernel) {
  const RunResult r = run_one(R"(
#include <stdlib.h>
int main() {
  int n = 16;
  double* a = (double*) malloc(n * sizeof(double));
#pragma omp target teams distribute parallel for
  for (int i = 0; i < n; i++) a[i] = 2.0 * i;
  free(a);
  return 0;
}
)",
                              omp_caps());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Omp, TargetWithMapComputesCorrectly) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int n = 16;
  double* a = (double*) malloc(n * sizeof(double));
#pragma omp target teams distribute parallel for map(from: a[0:n])
  for (int i = 0; i < n; i++) a[i] = 2.0 * i;
  double s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  printf("%.0f\n", s);
  free(a);
  return 0;
}
)",
                              omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "240\n");
  EXPECT_EQ(r.stats.target_regions, 1);
}

TEST(Omp, ReductionOnTargetCopiesBack) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int n = 100;
  double* a = (double*) malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) a[i] = 1.0;
  double sum = 0.0;
#pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(+:sum)
  for (int i = 0; i < n; i++) sum += a[i];
  printf("%.0f\n", sum);
  free(a);
  return 0;
}
)",
                              omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "100\n");
}

TEST(Omp, MissingReductionClauseLosesSum) {
  // Without reduction(), the scalar written on the device stays private
  // to the region: the host copy remains 0 — the silent wrong answer an
  // LLM translation produces when it drops the clause.
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int n = 100;
  double* a = (double*) malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) a[i] = 1.0;
  double sum = 0.0;
#pragma omp target teams distribute parallel for map(to: a[0:n])
  for (int i = 0; i < n; i++) sum += a[i];
  printf("%.0f\n", sum);
  free(a);
  return 0;
}
)",
                              omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "0\n");
}

TEST(Omp, HostThreadsModelStillCorrectWithoutOffload) {
  // OpenMP threads (CPU) build: parallel for executes on the host.
  const RunResult r = run_one(R"(
#include <stdio.h>
int main() {
  int n = 50;
  double sum = 0.0;
#pragma omp parallel for reduction(+:sum)
  for (int i = 0; i < n; i++) sum += i;
  printf("%.0f\n", sum);
  return 0;
}
)",
                              omp_caps(/*offload=*/false));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "1225\n");
  EXPECT_GE(r.stats.host_parallel_regions, 1);
  EXPECT_EQ(r.stats.device_kernel_launches, 0);
}

TEST(Omp, TargetFallsBackToHostWithoutOffloadFlag) {
  // -fopenmp without -fopenmp-targets: target regions execute on the host.
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int n = 8;
  double* a = (double*) malloc(n * sizeof(double));
#pragma omp target teams distribute parallel for map(from: a[0:n])
  for (int i = 0; i < n; i++) a[i] = 1.0;
  double s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  printf("%.0f\n", s);
  return 0;
}
)",
                              omp_caps(/*offload=*/false));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "8\n");  // correct result...
  EXPECT_EQ(r.stats.device_kernel_launches, 0);  // ...but never on the GPU
}

TEST(Omp, PragmasIgnoredWithoutOpenmpFlag) {
  // No -fopenmp at all: pragma is ignored, code runs serially.
  Capabilities serial;  // nothing enabled
  const RunResult r = run_one(R"(
#include <stdio.h>
int main() {
  double sum = 0.0;
#pragma omp parallel for reduction(+:sum)
  for (int i = 0; i < 10; i++) sum += i;
  printf("%.0f\n", sum);
  return 0;
}
)",
                              serial);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stdout_text, "45\n");
  EXPECT_EQ(r.stats.host_parallel_regions, 0);
}

TEST(Omp, InvalidDirectiveNameIsCompileError) {
  Executable exe = compile_one(R"(
int main() {
#pragma omp target teams distribute parallel forx
  for (int i = 0; i < 4; i++) {}
  return 0;
}
)",
                               omp_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::OmpInvalidDirective));
}

TEST(Omp, BadMapTypeIsCompileError) {
  Executable exe = compile_one(R"(
#include <stdlib.h>
int main() {
  int n = 4;
  double* a = (double*) malloc(n * 8);
#pragma omp target teams distribute parallel for map(frm: a[0:n])
  for (int i = 0; i < n; i++) a[i] = i;
  return 0;
}
)",
                               omp_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::OmpInvalidDirective));
}

TEST(Omp, DistributeWithoutTeamsIsCompileError) {
  Executable exe = compile_one(R"(
int main() {
#pragma omp target distribute
  for (int i = 0; i < 4; i++) {}
  return 0;
}
)",
                               omp_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::OmpInvalidDirective));
}

TEST(Omp, TargetUpdateMovesData) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
int main() {
  int n = 4;
  double* a = (double*) malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) a[i] = 1.0;
#pragma omp target data map(to: a[0:n])
  {
#pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;
#pragma omp target update from(a)
    double mid = a[0];
    printf("%.0f\n", mid);
  }
  return 0;
}
)",
                              omp_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "2\n");
}

// ------------------------------------------------------------ Kokkos ----

TEST(Kokkos, ParallelForAndDeepCopy) {
  const RunResult r = run_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main(int argc, char** argv) {
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
                              kokkos_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "360\n");
  EXPECT_GE(r.stats.device_kernel_launches, 2);
}

TEST(Kokkos, HostAccessOfDeviceViewTraps) {
  const RunResult r = run_one(R"(
#include <Kokkos_Core.hpp>
int main() {
  Kokkos::initialize();
  Kokkos::View<double*> a("a", 4);
  a(0) = 1.0;  // host access to device memory
  Kokkos::finalize();
  return 0;
}
)",
                              kokkos_caps());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(has_category(r.diags, DiagCategory::RuntimeFault));
}

TEST(Kokkos, MirrorRoundTrip) {
  const RunResult r = run_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 8;
    Kokkos::View<double*> dev("dev", n);
    Kokkos::View<double*> host = Kokkos::create_mirror_view(dev);
    for (int i = 0; i < n; i++) host(i) = 1.0 * i;
    Kokkos::deep_copy(dev, host);
    Kokkos::parallel_for(n, KOKKOS_LAMBDA(int i) { dev(i) = dev(i) * 2.0; });
    Kokkos::deep_copy(host, dev);
    double s = 0;
    for (int i = 0; i < n; i++) s += host(i);
    printf("%.0f\n", s);
  }
  Kokkos::finalize();
  return 0;
}
)",
                              kokkos_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "56\n");
}

TEST(Kokkos, MissingDeepCopyBackReadsStaleZeros) {
  // Kokkos views are zero-initialised: forgetting the device->host copy
  // yields zeros (wrong answer), not garbage. Mirrors real behaviour.
  const RunResult r = run_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 8;
    Kokkos::View<double*> dev("dev", n);
    Kokkos::View<double*> host = Kokkos::create_mirror_view(dev);
    Kokkos::parallel_for(n, KOKKOS_LAMBDA(int i) { dev(i) = 5.0; });
    double s = 0;
    for (int i = 0; i < n; i++) s += host(i);
    printf("%.0f\n", s);
  }
  Kokkos::finalize();
  return 0;
}
)",
                              kokkos_caps());
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.read_uninitialized);
}

TEST(Kokkos, Rank2ViewAndMDRange) {
  const RunResult r = run_one(R"(
#include <Kokkos_Core.hpp>
#include <stdio.h>
int main() {
  Kokkos::initialize();
  {
    int n = 4;
    Kokkos::View<double**> m("m", n, n);
    Kokkos::parallel_for("init",
        Kokkos::MDRangePolicy<Kokkos::Rank<2>>({0, 0}, {n, n}),
        KOKKOS_LAMBDA(int i, int j) { m(i, j) = i * 10.0 + j; });
    double total = 0.0;
    Kokkos::parallel_reduce(n, KOKKOS_LAMBDA(int i, double& sum) {
      for (int j = 0; j < n; j++) sum += m(i, j);
    }, total);
    printf("%.0f\n", total);
  }
  Kokkos::finalize();
  return 0;
}
)",
                              kokkos_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "264\n");
}

TEST(Kokkos, ViewRankMismatchIsCompileError) {
  Executable exe = compile_one(R"(
#include <Kokkos_Core.hpp>
int main() {
  Kokkos::initialize();
  Kokkos::View<double*> a("a", 4);
  double x = a(1, 2);
  Kokkos::finalize();
  return 0;
}
)",
                               kokkos_caps());
  EXPECT_FALSE(exe.ok());
  EXPECT_TRUE(has_category(exe.diags, DiagCategory::ArgTypeMismatch));
}

// ------------------------------------------------------------ cuRAND ----

TEST(Curand, DeterministicStreamInKernel) {
  const RunResult r = run_one(R"(
#include <stdio.h>
#include <stdlib.h>
#include <curand_kernel.h>
__global__ void draw(double* out, int n) {
  curandState state;
  curand_init(1234, 0, 0, &state);
  for (int i = 0; i < n; i++) out[i] = curand_uniform(&state);
}
int main() {
  int n = 64;
  double* d;
  cudaMalloc((void**)&d, n * sizeof(double));
  draw<<<1, 1>>>(d, n);
  double* h = (double*) malloc(n * sizeof(double));
  cudaMemcpy(h, d, n * sizeof(double), cudaMemcpyDeviceToHost);
  double mean = 0;
  for (int i = 0; i < n; i++) {
    if (h[i] <= 0.0 || h[i] > 1.0) { printf("out of range\n"); return 1; }
    mean += h[i];
  }
  printf("ok %d\n", mean / n > 0.2 && mean / n < 0.8 ? 1 : 0);
  return 0;
}
)",
                              cuda_caps());
  EXPECT_TRUE(r.ok) << r.stderr_text;
  EXPECT_EQ(r.stdout_text, "ok 1\n");
}
