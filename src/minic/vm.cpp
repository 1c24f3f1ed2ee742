#include "minic/vm.hpp"

#include <map>

#include "minic/bytecode.hpp"
#include "minic/machine.hpp"

namespace pareval::minic {

// Direct-threaded dispatch (computed goto) where available; a plain
// switch loop otherwise. Both variants share the op bodies below.
#if defined(__GNUC__) || defined(__clang__)
#define PAREVAL_VM_CGOTO 1
#endif

struct Vm::Impl final : Machine {
  using Machine::Machine;

  // The shared (or private) cache of compiled functions and lambda
  // bodies. Entries are never evicted, so the references it returns
  // outlive the run.
  std::shared_ptr<ChunkPack> chunks;

  /// Run the function's compiled chunk. Every call site in the machine
  /// (kernel launches, builtins, tree fallbacks) goes through
  /// call_function and so through here; compiling here covers them all.
  Flow run_function_body(const FunctionDecl& fn) override {
    return execute(chunks->get_or_compile(fn, prog, builtins));
  }

  Flow run_lambda_body(const Stmt& body) override {
    return execute(chunks->get_or_compile_lambda(body, prog, builtins));
  }
};

// The dispatch loop lives on Machine (not Vm::Impl) because the shared
// OpenMP region bookkeeping (exec_target / exec_target_data) runs a
// compiled region body through run_omp_body, which calls back into it.
// Only the Vm ever reaches it: the Interpreter has no chunks.
Flow Machine::execute(const Chunk& ch) {
  std::unique_ptr<VmScratch> scratch;
  if (!vm_scratch_pool.empty()) {
    scratch = std::move(vm_scratch_pool.back());
    vm_scratch_pool.pop_back();
  } else {
    scratch = std::make_unique<VmScratch>();
  }
  // No clearing: the compiler's register allocation writes every register
  // before any read on every path (registers are expression scratch, not
  // variables), so values left by a previous pooled run are never
  // observed — they are only overwritten.
  if (scratch->regs.size() < static_cast<std::size_t>(ch.num_regs)) {
    scratch->regs.resize(static_cast<std::size_t>(ch.num_regs));
  }
  scratch->lvs.clear();
  // Returns the scratch to the pool on every exit path, traps included.
  struct ScratchReturn {
    Machine* m;
    std::unique_ptr<VmScratch>* s;
    ~ScratchReturn() { m->vm_scratch_pool.push_back(std::move(*s)); }
  } scratch_return{this, &scratch};
  std::vector<Value>& regs = scratch->regs;
  std::vector<LValue>& lvs = scratch->lvs;
  const Instr* const code = ch.code.data();
  std::size_t ip = 0;
  Flow flow = Flow::Next;  // how a TreeStmt/OmpExec statement ended
  // Both return temporaries, which die within the statement using them.
  auto ref_to = [](VarSlot* slot) {
    Value v;
    v.kind = Value::Kind::Ref;
    v.ref = slot;
    return v;
  };
  auto take_args = [&regs](const Instr& I) {
    std::vector<Value> args;
    args.reserve(I.c);
    for (unsigned short i = 0; i < I.c; ++i) {
      args.push_back(std::move(regs[I.b + i]));
    }
    return args;
  };

  // No object with a destructor may be live at VM_NEXT() or VM_JUMP():
  // GCC runs no destructors when a computed goto leaves a scope, so a case
  // body keeps such locals in an inner block that closes before it
  // dispatches.
#ifdef PAREVAL_VM_CGOTO
  // Table order must match enum class Op exactly.
  static const void* const kJump[] = {
      &&L_Step,      &&L_LoadConst, &&L_LoadVar,  &&L_Move,
      &&L_Member,    &&L_CheckVar,  &&L_CheckDeref, &&L_LvTree,
      &&L_StoreLv,   &&L_CompoundLv, &&L_IncDecLv, &&L_LoadLv,
      &&L_Deref,     &&L_AddrVar,   &&L_AddrLv,   &&L_Neg,
      &&L_Not,       &&L_BNot,      &&L_Binop,    &&L_Boolize,
      &&L_Cast,      &&L_Jmp,       &&L_Jz,       &&L_Jnz,
      &&L_PopJump,   &&L_PushScope, &&L_PopScope, &&L_DeclVar,
      &&L_DeclArr,   &&L_DeclStruct, &&L_CallGuard, &&L_CallFn,
      &&L_Builtin,   &&L_RefArg,    &&L_TreeEval, &&L_TreeStmt,
      &&L_Lambda,    &&L_HostPar,   &&L_OmpData,  &&L_OmpExec,
      &&L_Ret,       &&L_RetVoid,   &&L_End,
  };
#define VM_CASE(name) L_##name
#define VM_DISPATCH()                                              \
  do {                                                             \
    const Instr& D = code[ip];                                     \
    if (D.fuel != 0) step_n(D.fuel, D.fuel_line);                  \
    goto* kJump[static_cast<unsigned char>(D.op)];                 \
  } while (0)
#define VM_NEXT()   \
  do {              \
    ++ip;           \
    VM_DISPATCH();  \
  } while (0)
#define VM_JUMP(target)                     \
  do {                                      \
    ip = static_cast<std::size_t>(target);  \
    VM_DISPATCH();                          \
  } while (0)
  VM_DISPATCH();
#else
#define VM_CASE(name) case Op::name
#define VM_NEXT() \
  {               \
    ++ip;         \
    break;        \
  }
#define VM_JUMP(target)                    \
  {                                        \
    ip = static_cast<std::size_t>(target); \
    break;                                 \
  }
  for (;;) {
    {
      const Instr& D = code[ip];
      if (D.fuel != 0) step_n(D.fuel, D.fuel_line);
    }
    switch (code[ip].op) {
#endif

      VM_CASE(Step) : { VM_NEXT(); }

      VM_CASE(LoadConst) : {
        const Instr& I = code[ip];
        regs[I.a] = ch.consts[static_cast<std::size_t>(I.imm)];
        VM_NEXT();
      }

      VM_CASE(LoadVar) : {
        const Instr& I = code[ip];
        regs[I.a] =
            ident_value(ch.names[static_cast<std::size_t>(I.imm)], I.line);
        VM_NEXT();
      }

      VM_CASE(Move) : {
        const Instr& I = code[ip];
        regs[I.a] = regs[I.b];
        VM_NEXT();
      }

      VM_CASE(Member) : {
        const Instr& I = code[ip];
        regs[I.a] = eval_member_body(*static_cast<const Expr*>(I.node));
        VM_NEXT();
      }

      VM_CASE(CheckVar) : {
        const Instr& I = code[ip];
        lvs.push_back(lvalue_ident(
            ch.names[static_cast<std::size_t>(I.imm)], I.line));
        VM_NEXT();
      }

      VM_CASE(CheckDeref) : {
        const Instr& I = code[ip];
        const Value& p = regs[I.a];
        {
          LValue lv;
          if (I.flag) {  // p[i]
            if (p.kind != Value::Kind::Ptr) {
              trap(DiagCategory::RuntimeFault,
                   "subscript of a non-pointer value", I.line);
            }
            lv.kind = LValue::Kind::Cell;
            lv.cell = p.ptr;
            lv.cell.offset += regs[I.b].as_int();
          } else {  // *p
            if (p.kind == Value::Kind::Ref && p.ref != nullptr) {
              lv.kind = LValue::Kind::Var;
              lv.var = Found{p.ref, next_scope_id};  // local: never shadowed
            } else if (p.kind != Value::Kind::Ptr) {
              trap(DiagCategory::RuntimeFault,
                   "indirection through a non-pointer value", I.line);
            } else {
              lv.kind = LValue::Kind::Cell;
              lv.cell = p.ptr;
            }
          }
          lvs.push_back(std::move(lv));
        }
        VM_NEXT();
      }

      VM_CASE(LvTree) : {
        const Instr& I = code[ip];
        // Member / view-call target: the interpreter's resolver handles
        // dim3 members, struct vivification, and view bounds; it charges
        // its own entry + operand fuel.
        lvs.push_back(resolve_lvalue(*static_cast<const Expr*>(I.node)));
        VM_NEXT();
      }

      VM_CASE(StoreLv) : {
        const Instr& I = code[ip];
        lv_store(lvs.back(), regs[I.a], I.line);  // reg keeps the result
        lvs.pop_back();
        VM_NEXT();
      }

      VM_CASE(CompoundLv) : {
        const Instr& I = code[ip];
        {
          const LValue lv = std::move(lvs.back());
          lvs.pop_back();
          const Value cur = lv_load(lv, I.line);
          Value comb = compound_combine(static_cast<BinOp>(I.binop), cur,
                                        regs[I.a], I.line);
          lv_store(lv, comb, I.line);
          regs[I.a] = std::move(comb);
        }
        VM_NEXT();
      }

      VM_CASE(IncDecLv) : {
        const Instr& I = code[ip];
        regs[I.a] = incdec_apply(lvs.back(), I.imm, I.flag, I.line);
        lvs.pop_back();
        VM_NEXT();
      }

      VM_CASE(LoadLv) : {
        const Instr& I = code[ip];
        regs[I.a] = lv_load(lvs.back(), I.line);
        lvs.pop_back();
        VM_NEXT();
      }

      VM_CASE(Deref) : {
        const Instr& I = code[ip];
        regs[I.a] = load_deref(regs[I.b], I.line);
        VM_NEXT();
      }

      VM_CASE(AddrVar) : {
        const Instr& I = code[ip];
        const Found f =
            find_var(ch.names[static_cast<std::size_t>(I.imm)]);
        if (!f.slot) {
          trap(DiagCategory::UndeclaredIdentifier,
               "use of undeclared identifier '" +
                   ch.names[static_cast<std::size_t>(I.imm)] + "'",
               I.line);
        }
        regs[I.a] = ref_to(f.slot);
        VM_NEXT();
      }

      VM_CASE(AddrLv) : {
        const Instr& I = code[ip];
        {
          const LValue lv = std::move(lvs.back());
          lvs.pop_back();
          if (lv.kind != LValue::Kind::Cell) {
            trap(DiagCategory::RuntimeFault,
                 "cannot take the address of this expression", I.line);
          }
          regs[I.a] = Value::make_ptr(lv.cell);
        }
        VM_NEXT();
      }

      VM_CASE(Neg) : {
        const Instr& I = code[ip];
        const Value& v = regs[I.b];
        regs[I.a] = v.kind == Value::Kind::Real
                        ? Value::make_real(-v.d)
                        : Value::make_int(-v.as_int());
        VM_NEXT();
      }

      VM_CASE(Not) : {
        const Instr& I = code[ip];
        regs[I.a] = Value::make_int(regs[I.b].truthy() ? 0 : 1);
        VM_NEXT();
      }

      VM_CASE(BNot) : {
        const Instr& I = code[ip];
        regs[I.a] = Value::make_int(~regs[I.b].as_int());
        VM_NEXT();
      }

      VM_CASE(Binop) : {
        const Instr& I = code[ip];
        regs[I.a] = apply_binop(static_cast<BinOp>(I.binop), regs[I.b],
                                regs[I.c], I.line);
        VM_NEXT();
      }

      VM_CASE(Boolize) : {
        const Instr& I = code[ip];
        regs[I.a] = Value::make_int(regs[I.a].truthy() ? 1 : 0);
        VM_NEXT();
      }

      VM_CASE(Cast) : {
        const Instr& I = code[ip];
        regs[I.a] = cast_value(std::move(regs[I.b]),
                               ch.types[static_cast<std::size_t>(I.imm)],
                               I.line);
        VM_NEXT();
      }

      VM_CASE(Jmp) : {
        const Instr& I = code[ip];
        VM_JUMP(I.imm);
      }

      VM_CASE(Jz) : {
        const Instr& I = code[ip];
        if (!regs[I.a].truthy()) VM_JUMP(I.imm);
        VM_NEXT();
      }

      VM_CASE(Jnz) : {
        const Instr& I = code[ip];
        if (regs[I.a].truthy()) VM_JUMP(I.imm);
        VM_NEXT();
      }

      VM_CASE(PopJump) : {
        const Instr& I = code[ip];
        for (unsigned short i = 0; i < I.b; ++i) pop_scope();
        VM_JUMP(I.imm);
      }

      VM_CASE(PushScope) : {
        push_scope();
        VM_NEXT();
      }

      VM_CASE(PopScope) : {
        pop_scope();
        VM_NEXT();
      }

      VM_CASE(DeclVar) : {
        const Instr& I = code[ip];
        {
          VarSlot slot;
          slot.type = ch.types[static_cast<std::size_t>(I.imm2)];
          if (I.flag) {
            slot.v = coerce_to_type(std::move(regs[I.a]), slot.type);
          }
          declare(ch.names[static_cast<std::size_t>(I.imm)],
                  std::move(slot));
        }
        VM_NEXT();
      }

      VM_CASE(DeclArr) : {
        const Instr& I = code[ip];
        declare_array(*static_cast<const VarDecl*>(I.node),
                      regs[I.a].as_int());
        VM_NEXT();
      }

      VM_CASE(DeclStruct) : {
        const Instr& I = code[ip];
        declare_struct(*static_cast<const VarDecl*>(I.node),
                       I.flag ? &regs[I.a] : nullptr);
        VM_NEXT();
      }

      VM_CASE(CallGuard) : {
        const Instr& I = code[ip];
        bool called = false;
        {
          Value out;
          called = try_call_var(*static_cast<const Expr*>(I.node), &out);
          if (called) regs[I.a] = std::move(out);
        }
        if (called) VM_JUMP(I.imm);
        VM_NEXT();
      }

      VM_CASE(CallFn) : {
        const Instr& I = code[ip];
        regs[I.a] = call_function(*static_cast<const FunctionDecl*>(I.node),
                                  take_args(I), I.line);
        VM_NEXT();
      }

      VM_CASE(Builtin) : {
        const Instr& I = code[ip];
        {
          std::vector<Value> args = take_args(I);
          const BuiltinDef* bd = static_cast<const BuiltinDef*>(I.node);
          regs[I.a] = bd->impl(*this, args, I.line);
        }
        VM_NEXT();
      }

      VM_CASE(RefArg) : {
        const Instr& I = code[ip];
        const Found f =
            find_var(ch.names[static_cast<std::size_t>(I.imm)]);
        if (f.slot) {
          regs[I.a] = ref_to(f.slot);
          VM_JUMP(I.imm2);
        }
        VM_NEXT();
      }

      VM_CASE(TreeEval) : {
        const Instr& I = code[ip];
        ++tree_fallbacks;
        regs[I.a] = eval(*static_cast<const Expr*>(I.node));
        VM_NEXT();
      }

      VM_CASE(TreeStmt) : {
        ++tree_fallbacks;
        flow = exec(*static_cast<const Stmt*>(code[ip].node));
        goto route_flow;
      }

      VM_CASE(Lambda) : {
        const Instr& I = code[ip];
        regs[I.a] = eval_lambda(*static_cast<const Expr*>(I.node));
        VM_NEXT();
      }

      VM_CASE(HostPar) : {
        const Instr& I = code[ip];
        if (I.flag) result.stats.host_parallel_regions++;
        VM_NEXT();
      }

      VM_CASE(OmpData) : {
        const Instr& I = code[ip];
        const Stmt& s = *static_cast<const Stmt*>(I.node);
        const OmpDirective& d = *s.omp;
        if (d.has(OmpConstruct::TargetUpdate)) {
          exec_target_update(d, s.line);
        } else if (d.has(OmpConstruct::TargetEnterData)) {
          enter_data_env(data_envs.front(), d, s.line, /*entering=*/true);
        } else {
          exit_unstructured(d, s.line);
        }
        VM_NEXT();
      }

      VM_CASE(OmpExec) : {
        const Instr& I = code[ip];
        const Stmt& s = *static_cast<const Stmt*>(I.node);
        const Chunk* region = ch.subchunks[I.a].get();
        flow = s.omp->has(OmpConstruct::TargetData)
                   ? exec_target_data(s, *s.omp, region)
                   : exec_target(s, *s.omp, region);
        goto route_flow;
      }

      // TreeStmt / OmpExec: a break or continue out of the walked
      // statement or the region lands on the enclosing compiled loop's
      // targets (imm / imm2, popping b / c scopes); a return, or a
      // break/continue with no compiled loop around it, ends this chunk
      // with that flow.
      route_flow : {
        const Instr& I = code[ip];
        if (flow == Flow::Next) VM_NEXT();
        if (flow == Flow::Break && I.imm >= 0) {
          for (unsigned short i = 0; i < I.b; ++i) pop_scope();
          VM_JUMP(I.imm);
        }
        if (flow == Flow::Continue && I.imm2 >= 0) {
          for (unsigned short i = 0; i < I.c; ++i) pop_scope();
          VM_JUMP(I.imm2);
        }
        return flow;
      }

      VM_CASE(Ret) : {
        ret_value = std::move(regs[code[ip].a]);
        return Flow::Return;
      }

      VM_CASE(RetVoid) : {
        ret_value = Value{};
        return Flow::Return;
      }

      VM_CASE(End) : { return Flow::Next; }

#ifndef PAREVAL_VM_CGOTO
    }
  }
#endif
#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
#ifdef PAREVAL_VM_CGOTO
#undef VM_DISPATCH
#endif
}

// ----------------------------------------------------------- interface --

Vm::Vm(const LinkedProgram& prog, const BuiltinTable& builtins,
       RunLimits limits, std::shared_ptr<ChunkPack> chunks)
    : impl_(std::make_unique<Impl>(prog, builtins, limits)) {
  impl_->chunks =
      chunks != nullptr ? std::move(chunks) : std::make_shared<ChunkPack>();
}

Vm::~Vm() = default;

RunResult Vm::run(const std::vector<std::string>& args) {
  return impl_->run(args);
}

long long Vm::tree_fallbacks() const { return impl_->tree_fallbacks; }

}  // namespace pareval::minic
