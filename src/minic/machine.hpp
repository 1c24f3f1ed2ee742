#pragma once
// The shared MiniC runtime machine: two-space memory, scope/frame stacks,
// the OpenMP device data environment, RNG state, and the tree-walking
// evaluator. Both execution engines run on this one class — the legacy
// `Interpreter` drives it as-is, while the bytecode `Vm` subclasses it and
// overrides `run_function_body` and `run_lambda_body` to dispatch compiled
// chunks, falling back to the tree-walker (`eval`/`exec`) for constructs
// bytecode does not cover.
// Keeping a single machine implementation is what makes the engines
// bit-identical: every observable effect (RunStats, diags, memory, output,
// the simulated clock) lives here, and the arithmetic/coercion helpers are
// shared so neither engine can drift.
//
// This is an internal header (engine implementations and the bytecode
// compiler); tools and the eval harness program against minic/engine.hpp.

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minic/builtins.hpp"
#include "minic/program.hpp"
#include "minic/runio.hpp"
#include "minic/value.hpp"

namespace pareval::minic {

/// How a statement (or a compiled chunk) ended. Both engines return it
/// instead of unwinding: a loop consumes Break/Continue, a function call
/// consumes Return and reads the value from Machine::ret_value, and a
/// lambda call discards it. Sema rejects a break/continue outside a loop,
/// so only Return or Next ever reaches a function or lambda boundary.
enum class Flow : unsigned char { Next, Break, Continue, Return };

// The two ways a run ends early, thrown from wherever they happen and
// caught only by Machine::run (the target-region handlers rethrow).
struct ExitSig {
  int code;
};
struct TrapSig {
  Diag d;
};

/// Binary operators, pre-decoded from their source spelling so the VM does
/// not compare strings per instruction. apply_binop/compound_combine are
/// the one implementation of MiniC arithmetic for both engines.
enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Shl, Shr, BAnd, BOr, BXor,
  Eq, Ne, Lt, Gt, Le, Ge,
};

std::optional<BinOp> binop_from_text(const std::string& op);
const char* binop_text(BinOp op);

struct Chunk;

class Machine : public InterpCtx {
 public:
  Machine(const LinkedProgram& p, const BuiltinTable& b, RunLimits l);
  ~Machine() override = default;

  /// Run main() with the given command-line arguments (argv[1..]).
  RunResult run(const std::vector<std::string>& args);

  // ------------------------------------------------------------- state --
  const LinkedProgram& prog;
  const BuiltinTable& builtins;
  RunLimits limits;

  // TreeEval/TreeStmt instructions execute() actually ran: the residual
  // surface the bytecode compiler could not lower. Only the Vm runs
  // chunks, so the Interpreter always leaves it at 0. It is engine-local
  // bookkeeping, deliberately NOT part of RunStats/RunResult (the two
  // engines differ here by design; everything observable stays
  // bit-identical).
  long long tree_fallbacks = 0;

  RunResult result;
  std::vector<MemBlock> memory;
  long long total_cells = 0;

  struct Scope {
    int id = 0;
    std::map<std::string, VarSlot> vars;
  };
  struct Frame {
    std::vector<Scope> scopes;
  };
  std::map<std::string, VarSlot> globals;
  std::vector<Frame> frames;
  int next_scope_id = 1;

  struct ExecEnv {
    bool device = false;
    Value::Dim3 blockIdx, threadIdx, blockDim, gridDim;
  };
  std::vector<ExecEnv> exec_envs;

  /// OpenMP device data environment (present table).
  struct ExitAction {
    int host_block = -1;
    int dev_block = -1;
    bool copy_back = false;  // from / tofrom created here
    bool release = true;     // free the shadow at exit
  };
  struct DataEnv {
    std::map<int, int> shadow;  // host block -> device block
    std::vector<ExitAction> exits;
  };
  std::vector<DataEnv> data_envs;  // data_envs[0] = unstructured enter-data

  /// Per-target-region scalar privatisation (see exec_target).
  struct ScalarShadow {
    int boundary_scope_id = 0;
    std::map<VarSlot*, Value> values;
    std::set<VarSlot*> writeback;
  };
  std::vector<ScalarShadow> scalar_shadows;

  long long rand_state_v = 0x853c49e6748fea9bLL;

  // ----------------------------------------------------------- helpers --
  [[noreturn]] void trap(DiagCategory cat, const std::string& msg, int line);

  /// Charge one fuel unit (every tree node entry) / a fused run of `n`
  /// same-line units (a VM instruction prefix). See minic/runio.hpp.
  void step(int line) {
    if (!charge_fuel(result.stats, limits)) {
      trap(DiagCategory::RuntimeFault, kFuelExhaustedMessage, line);
    }
  }
  void step_n(long long n, int line) {
    if (!charge_fuel(result.stats, limits, n)) {
      trap(DiagCategory::RuntimeFault, kFuelExhaustedMessage, line);
    }
  }

  ExecEnv& env() { return exec_envs.back(); }
  bool device_ctx() const { return exec_envs.back().device; }

  // ------------------------------------------------------------ memory --
  int do_alloc(MemSpace space, long long cells, int elem_size,
               std::string origin, int line);
  MemBlock& get_block(int id, int line);
  MemRef resolve_space(const MemRef& ref, int line);
  Value load_ref(const MemRef& ref0, int line);
  void store_ref(const MemRef& ref0, Value v, int line);
  static Value coerce_to_base(Value v, BaseType base);
  static Value coerce_to_type(Value v, const Type& t);

  // -------------------------------------------------------------- env --
  void push_scope();
  void pop_scope();
  VarSlot* declare(const std::string& name, VarSlot slot);

  struct Found {
    VarSlot* slot = nullptr;
    int scope_id = -1;  // -1: global
  };
  Found find_var(const std::string& name);
  bool shadowed(const Found& f) const;
  Value read_var(const Found& f);
  void write_var(const Found& f, Value v);

  // ----------------------------------------------------------- lvalues --
  struct LValue {
    enum class Kind { Var, Cell, Field, Dim3Member } kind = Kind::Var;
    Found var;
    MemRef cell;
    std::shared_ptr<StructData> strct;
    std::string field;
    Value* dim3_holder = nullptr;
    char dim3_axis = 'x';
  };

  LValue resolve_lvalue(const Expr& e);
  /// resolve_lvalue's Ident case without the node-entry fuel charge (the
  /// VM charges fuel on the instruction instead).
  LValue lvalue_ident(const std::string& name, int line);
  Value lv_load(const LValue& lv, int line);
  void lv_store(const LValue& lv, Value v, int line);
  static Value make_struct(std::string name);
  Value vivify_struct_cell(const MemRef& ref0, int line);
  Value field_coerce(const LValue& lv, Value v);

  // ------------------------------------------------------- expressions --
  Value eval(const Expr& e);
  Value eval_ident(const Expr& e);
  /// eval_ident without the Expr node: CUDA dim3 env names, declared
  /// variables, known constants, undeclared-identifier trap — in that
  /// exact order.
  Value ident_value(const std::string& name, int line);
  Value eval_unary(const Expr& e);
  Value eval_binary(const Expr& e);
  Value eval_assign(const Expr& e);
  Value eval_cast(const Expr& e);
  Value eval_lambda(const Expr& e);
  /// eval's Member case without the node-entry charge (fast path for
  /// non-variable bases, then the lvalue path).
  Value eval_member_body(const Expr& e);

  /// The shared arithmetic core. apply_binop mirrors eval_binary after
  /// operand evaluation (pointer dispatch, real/int split, *wrapping
  /// unsigned* int + - *); compound_combine mirrors compound assignment
  /// (which uses *signed* + - *). Distinct on purpose — see eval_assign.
  Value apply_binop(BinOp op, const Value& a, const Value& b, int line);
  Value apply_ptr_binop(BinOp op, const Value& a, const Value& b, int line);
  Value compound_combine(BinOp op, const Value& cur, const Value& rhs,
                         int line);

  /// eval_unary helpers shared with the VM: `*p` after evaluating p,
  /// `++`/`--` after resolving the lvalue.
  Value load_deref(const Value& p, int line);
  Value incdec_apply(const LValue& lv, long long delta, bool postfix,
                     int line);

  // -------------------------------------------------------------- calls --
  MemRef view_ref(const Value& view_val, const Expr& call);
  Value eval_call(const Expr& e);
  /// eval_call's leading variable check: Kokkos view element read or
  /// direct lambda-variable call. Returns false when `e.text` is not a
  /// view/lambda variable (the function/builtin paths apply).
  bool try_call_var(const Expr& e, Value* out);
  /// Invoke a user function: push its frame, run the body, and coerce a
  /// returned value to the return type (falling off the end yields an
  /// uncoerced unset Value).
  Value call_function(const FunctionDecl& fn, std::vector<Value> args,
                      int line);
  /// Run a function's body in the frame call_function set up. Virtual: the
  /// tree-walker execs it, the VM runs the function's compiled chunk, which
  /// covers every caller in the machine (kernel launches, builtins, tree
  /// fallbacks).
  virtual Flow run_function_body(const FunctionDecl& fn);
  /// Run a closure's body inside the frame call_closure set up. Virtual
  /// for the same reason.
  virtual Flow run_lambda_body(const Stmt& body);
  Value launch_kernel(const FunctionDecl& fn, const Expr& e);
  /// eval_cast after operand evaluation (pointer retype, numeric casts).
  Value cast_value(Value v, const Type& t, int line);

  // --------------------------------------------------------- statements --
  /// The value of the last `return`, read by whoever consumes its
  /// Flow::Return (call_function; call_closure discards it).
  Value ret_value;
  Flow exec(const Stmt& s);
  Flow exec_for(const Stmt& s);
  void exec_decl(const VarDecl& v);
  /// Allocate and declare `v` as an array of `n` elements (the DeclArr
  /// op and exec_decl's no-brace-init array path share this).
  void declare_array(const VarDecl& v, long long n);
  /// Declare a struct / struct-pointer variable; `init` is the already
  /// evaluated initializer or nullptr (DeclStruct op + exec_decl share
  /// this; brace-list inits take exec_decl's field-by-field path instead).
  void declare_struct(const VarDecl& v, Value* init);
  void exec_global(const GlobalVarDecl& g);

  // ----------------------------------------------------------- bytecode --
  /// Run one compiled chunk in the current frame (the direct-threaded
  /// dispatch loop, defined in vm.cpp). Only the Vm reaches it. Every
  /// effect goes through the shared helpers above, so a chunk is
  /// bit-identical to tree-walking the same nodes. A chunk that ends on a
  /// return, or on a break/continue it has no loop for, leaves its own
  /// block scopes on the frame; its caller drops them.
  Flow execute(const Chunk& ch);
  /// Pooled register files + lvalue stacks for execute(): kernel-thread
  /// calls run tiny chunks millions of times, so a heap allocation per
  /// call would dominate the dispatch loop. Nested execute() calls (via
  /// call_function) each pop their own scratch; returns push it back.
  struct VmScratch {
    std::vector<Value> regs;
    std::vector<LValue> lvs;
  };
  std::vector<std::unique_ptr<VmScratch>> vm_scratch_pool;

  // ------------------------------------------------------------ OpenMP --
  Flow exec_omp(const Stmt& s);
  void enter_data_env(DataEnv& env_entry, const OmpDirective& d, int line,
                      bool entering);
  void leave_data_env(int line);
  void exit_unstructured(const OmpDirective& d, int line);
  void exec_target_update(const OmpDirective& d, int line);
  /// Target / target-data regions. `region` selects the body form: a
  /// compiled subchunk (from an OmpExec instruction) or, when null, the
  /// statement's tree-walked omp_body. The bracketing bookkeeping (data
  /// environments, scalar shadows, device env, stats) is identical.
  Flow exec_target(const Stmt& s, const OmpDirective& d,
                   const Chunk* region = nullptr);
  Flow exec_target_data(const Stmt& s, const OmpDirective& d,
                        const Chunk* region = nullptr);
  Flow run_omp_body(const Stmt& s, const Chunk* region);
  void finish_target(int line);
  void raw_copy(int dst_block, long long dst_off, int src_block,
                long long src_off, long long count, int line);

  // ----- InterpCtx (the surface builtins program against) --------------
  int alloc_block(MemSpace space, long long cells, int elem_size,
                  std::string origin) override;
  void free_block(int block, int line) override;
  MemBlock& block(int id) override;
  Value load(const MemRef& ref, int line) override;
  void store(const MemRef& ref, Value v, int line) override;
  void copy_cells(int dst_block, long long dst_off, int src_block,
                  long long src_off, long long count, int line) override;
  void call_closure(const Value& lambda, std::vector<Value> args,
                    std::vector<VarSlot*> ref_slots, bool on_device,
                    int line) override;
  bool on_device() const override;
  void print(const std::string& text, bool to_stderr) override;
  [[noreturn]] void raise(DiagCategory cat, const std::string& msg,
                          int line) override;
  [[noreturn]] void exit_program(int code) override;
  void count_device_launch() override;
  void count_host_parallel() override;
  double sim_time_seconds() override;
  long long& rand_state() override;
};

}  // namespace pareval::minic
