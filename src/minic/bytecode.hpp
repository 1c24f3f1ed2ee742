#pragma once
// Register bytecode for the MiniC VM (minic/vm.hpp). One `Chunk` per
// function, compiled lazily on first call. The compiler is deliberately
// conservative: any expression or statement without a straightforward
// lowering is emitted as a TreeEval/TreeStmt instruction that hands the
// node back to the shared Machine's tree-walker, so coverage gaps cost
// speed, never correctness.
//
// Fuel contract: the interpreter charges one step at every eval()/exec()/
// resolve_lvalue() entry. The compiler replays those charges exactly — in
// the same order and with the same line numbers — by attaching a fused
// `fuel`/`fuel_line` prefix to each instruction (flushed into a standalone
// Step instruction at jump targets so loop back-edges re-charge precisely
// the nodes the interpreter re-visits). A Chunk therefore burns the same
// number of steps as the tree-walker for the same execution path, which is
// what keeps `RunStats::steps` and the simulated clock engine-invariant.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minic/ast.hpp"
#include "minic/builtins.hpp"
#include "minic/program.hpp"
#include "minic/value.hpp"

namespace pareval::minic {

enum class Op : unsigned char {
  Step,        // burn fuel only (fused charges at a jump target)
  LoadConst,   // r[a] = consts[imm]
  LoadVar,     // r[a] = ident_value(names[imm])
  Move,        // r[a] = r[b]
  Member,      // r[a] = member `names[imm]` of expr node (fast dim3/struct)
  CheckVar,    // lv_stack.push(lvalue_ident(names[imm]))
  CheckDeref,  // lv_stack.push(lvalue for *r[a] / r[a][r[b]])
  LvTree,      // lv_stack.push(resolve_lvalue(node)) — member / view-call
               // targets; resolve_lvalue charges its own fuel at runtime
  StoreLv,     // lv_store(lv_stack.pop(), r[a])
  CompoundLv,  // r[a] = compound_combine(binop, lv_load(top), r[a]); store
  IncDecLv,    // r[a] = incdec_apply(lv_stack.pop(), ±1, postfix)
  LoadLv,      // r[a] = lv_load(lv_stack.pop())  (index/member reads)
  Deref,       // r[a] = load_deref(r[b])
  AddrVar,     // r[a] = Ref to variable names[imm]
  AddrLv,      // r[a] = &lvalue (pop; Cell -> Ptr, else trap)
  Neg,         // r[a] = -r[b]
  Not,         // r[a] = !r[b]
  BNot,        // r[a] = ~r[b]
  Binop,       // r[a] = apply_binop(binop, r[b], r[c])
  Boolize,     // r[a] = r[a].truthy() ? 1 : 0   (&& / || result)
  Cast,        // r[a] = cast_value(r[b], types[imm])
  Jmp,         // ip = imm
  Jz,          // if (!r[a].truthy()) ip = imm
  Jnz,         // if (r[a].truthy()) ip = imm
  PopJump,     // pop b scopes, ip = imm      (break/continue)
  PushScope,   // push a block scope
  PopScope,    // pop it
  DeclVar,     // declare names[imm] : types[imm2], init from r[a] if b
  DeclArr,     // declare_array(node VarDecl, r[a] elements) — no-init arrays
  DeclStruct,  // declare_struct(node VarDecl, r[a] if flag) — struct /
               // struct-pointer decls whose init is not a brace list
  CallGuard,   // if try_call_var(node) { r[a] = result; ip = imm; }
  CallFn,      // r[a] = call_function(fn, r[b..b+c-1])
  Builtin,     // r[a] = builtin(node, r[b..b+c-1])  (flags: PtrOut refs)
  RefArg,      // r[a] = Ref to names[imm] if declared, else ip = imm2
  TreeEval,    // r[a] = machine.eval(node)   (fallback; node charges fuel)
  TreeStmt,    // flow = machine.exec(node); a Break/Continue jumps to imm /
               // imm2 (popping b / c scopes) if set, else ends the chunk
               // with it, as does a Return
  Lambda,      // r[a] = eval_lambda(node)    (closure capture, no body run)
  HostPar,     // if flag: stats.host_parallel_regions++ (body is inline)
  OmpData,     // target update / enter data / exit data (node = Stmt)
  OmpExec,     // flow = run subchunks[a] as the body of node's target /
               // target-data region (enter/exit bookkeeping brackets it);
               // the flow is routed as for TreeStmt
  Ret,         // ret_value = r[a]; end the chunk with Flow::Return
  RetVoid,     // ret_value = Value{}; end the chunk with Flow::Return
  End,         // fell off the end: end the chunk with Flow::Next
};

struct Instr {
  Op op = Op::End;
  unsigned short a = 0, b = 0, c = 0;
  signed char binop = -1;   // BinOp payload for Binop/CompoundLv
  bool flag = false;        // postfix / has-init / arrow — op-specific
  int imm = -1;             // jump target / pool index
  int imm2 = -1;            // secondary pool index / jump target
  int fuel = 0;             // fused step charges to burn before executing
  int fuel_line = 0;        // line reported if the fuel charge traps
  int line = 0;             // source line of the instruction itself
  const void* node = nullptr;  // Expr*/Stmt*/FunctionDecl*/VarDecl* payload
};

struct Chunk {
  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<std::string> names;
  std::vector<Type> types;
  /// Compiled OMP structured-region bodies, indexed by OmpExec's `a`.
  std::vector<std::shared_ptr<const Chunk>> subchunks;
  int num_regs = 0;
};

/// Compile `fn` to bytecode. Never fails: uncompilable constructs become
/// tree-fallback instructions. `prog`/`builtins` resolve call targets at
/// compile time (runtime variable shadowing is still honoured via a
/// CallGuard instruction).
std::unique_ptr<Chunk> compile_function(const FunctionDecl& fn,
                                        const LinkedProgram& prog,
                                        const BuiltinTable& builtins);

/// Compile a lambda body to bytecode (same guarantees as
/// compile_function). The chunk runs inside the frame call_closure sets
/// up — captured names resolve through the machine's environment chain,
/// and a return ends the chunk (call_closure discards the value, as the
/// interpreter does).
std::unique_ptr<Chunk> compile_lambda(const Stmt& body,
                                      const LinkedProgram& prog,
                                      const BuiltinTable& builtins);

/// Thread-safe per-executable chunk cache, shared by every Vm instance
/// running one linked program: the first call compiles, every later call —
/// across samples, targets, and threads — reuses the immutable Chunk. The
/// pack starts empty for every link, cold or object-warm (chunks are never
/// persisted), and only the Vm fills it. Entries are never evicted, so a
/// returned reference stays valid for the pack's lifetime.
class ChunkPack {
 public:
  /// The cached chunk, compiling it on first request. Racing compilers
  /// produce identical chunks; the first insert wins.
  const Chunk& get_or_compile(const FunctionDecl& fn,
                              const LinkedProgram& prog,
                              const BuiltinTable& builtins);
  std::size_t size() const;

  // Lambda-body chunks, keyed by the Closure's body statement (stable for
  // the program's lifetime; every closure over the same LambdaExpr shares
  // one chunk). Same compile-once / never-evict discipline as functions.
  const Chunk& get_or_compile_lambda(const Stmt& body,
                                     const LinkedProgram& prog,
                                     const BuiltinTable& builtins);
  std::size_t lambda_size() const;

 private:
  mutable std::mutex mu_;
  std::map<const FunctionDecl*, std::unique_ptr<const Chunk>> chunks_;
  std::map<const Stmt*, std::unique_ptr<const Chunk>> lambda_chunks_;
};

}  // namespace pareval::minic
