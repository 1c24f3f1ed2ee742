#include "minic/bytecode.hpp"

#include "minic/machine.hpp"
#include "minic/objcodec.hpp"

namespace pareval::minic {

namespace {

/// Single-pass AST -> bytecode compiler with stack-discipline register
/// allocation and fused fuel accounting (see bytecode.hpp for the
/// contract). Forward jump targets go through a label/fixup table.
struct Compiler {
  const LinkedProgram& prog;
  const BuiltinTable& builtins;
  Chunk& ch;

  int rtop = 0;         // next free register
  int pending = 0;      // fuel charges not yet attached to an instruction
  int pending_line = 0;
  int depth = 0;        // compiled scope depth (PushScope minus PopScope)
  // Compiling an OMP structured-region subchunk: a `return` must stay a
  // signal (RetSig) so it unwinds through the region's cleanup
  // (finish_target / leave_data_env) exactly like the interpreter.
  bool region_mode = false;

  struct LoopCtx {
    int cont_label = -1;
    int break_label = -1;
    int depth = 0;  // scope depth just inside the loop
  };
  std::vector<LoopCtx> loops{};

  std::vector<int> labels{};  // label id -> code index (-1 until bound)
  struct Fixup {
    std::size_t code_index;
    int label;
    bool imm2;  // patch imm2 instead of imm
  };
  std::vector<Fixup> fixups{};

  // --------------------------------------------------------- plumbing --
  int alloc_reg() {
    const int r = rtop++;
    if (rtop > ch.num_regs) ch.num_regs = rtop;
    return r;
  }

  int add_const(Value v) {
    ch.consts.push_back(std::move(v));
    return static_cast<int>(ch.consts.size() - 1);
  }
  int add_name(const std::string& n) {
    for (std::size_t i = 0; i < ch.names.size(); ++i) {
      if (ch.names[i] == n) return static_cast<int>(i);
    }
    ch.names.push_back(n);
    return static_cast<int>(ch.names.size() - 1);
  }
  int add_type(const Type& t) {
    ch.types.push_back(t);
    return static_cast<int>(ch.types.size() - 1);
  }

  /// Replay one interpreter step() charge. Same-line charges fuse; a line
  /// change flushes so a fuel-exhaustion trap reports the exact line the
  /// tree-walker would.
  void charge(int line) {
    if (pending > 0 && pending_line != line) flush_step();
    ++pending;
    pending_line = line;
  }

  void flush_step() {
    if (pending == 0) return;
    Instr in;
    in.op = Op::Step;
    in.fuel = pending;
    in.fuel_line = pending_line;
    in.line = pending_line;
    pending = 0;
    ch.code.push_back(in);
  }

  void emit(Instr in) {
    in.fuel = pending;
    in.fuel_line = pending_line;
    pending = 0;
    ch.code.push_back(in);
  }

  int new_label() {
    labels.push_back(-1);
    return static_cast<int>(labels.size() - 1);
  }
  /// Bind a label here. Flushes pending fuel first: charges made before a
  /// jump target must not be re-burned when a back-edge lands on it.
  void bind(int label) {
    flush_step();
    labels[label] = static_cast<int>(ch.code.size());
  }

  void emit_jump(Op op, int reg, int label, int line) {
    Instr in;
    in.op = op;
    in.a = static_cast<unsigned short>(reg < 0 ? 0 : reg);
    in.line = line;
    emit(std::move(in));
    fixups.push_back({ch.code.size() - 1, label, false});
  }

  /// Attach the enclosing compiled loop's break/continue targets to a
  /// tree-fallback instruction so BreakSig/ContinueSig thrown from the
  /// tree-walker land exactly where the interpreter's per-iteration
  /// catch blocks would put them.
  void set_loop_ctx(Instr& in) {
    if (loops.empty()) return;
    const LoopCtx& lc = loops.back();
    in.b = static_cast<unsigned short>(depth - lc.depth);  // break pops
    in.c = static_cast<unsigned short>(depth - lc.depth);  // continue pops
    in.imm = -2;   // patched below
    in.imm2 = -2;
    fixups.push_back({ch.code.size(), lc.break_label, false});
    fixups.push_back({ch.code.size(), lc.cont_label, true});
  }

  void tree_eval(const Expr& e, int dst) {
    Instr in;
    in.op = Op::TreeEval;
    in.a = static_cast<unsigned short>(dst);
    in.line = e.line;
    in.node = &e;
    set_loop_ctx(in);
    emit(std::move(in));
  }

  void tree_stmt(const Stmt& s) {
    Instr in;
    in.op = Op::TreeStmt;
    in.line = s.line;
    in.node = &s;
    set_loop_ctx(in);
    emit(std::move(in));
  }

  // ------------------------------------------------------ expressions --
  static bool can_compile_lvalue(const Expr& e) {
    return e.kind == ExprKind::Ident ||
           (e.kind == ExprKind::Unary && e.text == "*") ||
           e.kind == ExprKind::Index || e.kind == ExprKind::Member ||
           e.kind == ExprKind::Call;
  }

  /// Mirror resolve_lvalue for the compilable subset; pushes one entry on
  /// the runtime lvalue stack. Pre: can_compile_lvalue(e).
  void compile_lvalue(const Expr& e) {
    if (e.kind == ExprKind::Member || e.kind == ExprKind::Call) {
      // Struct-field and Kokkos-view targets keep the interpreter's
      // resolver (dim3 members, vivification, view bounds): LvTree calls
      // resolve_lvalue on the node, which charges its own entry and
      // operand fuel at runtime — so no static charge here.
      Instr in;
      in.op = Op::LvTree;
      in.line = e.line;
      in.node = &e;
      emit(std::move(in));
      return;
    }
    charge(e.line);  // resolve_lvalue entry step
    if (e.kind == ExprKind::Ident) {
      Instr in;
      in.op = Op::CheckVar;
      in.imm = add_name(e.text);
      in.line = e.line;
      emit(std::move(in));
      return;
    }
    const int save = rtop;
    if (e.kind == ExprKind::Unary) {  // *p
      const int r = alloc_reg();
      compile_expr(*e.kids[0], r);
      Instr in;
      in.op = Op::CheckDeref;
      in.a = static_cast<unsigned short>(r);
      in.flag = false;
      in.line = e.line;
      emit(std::move(in));
    } else {  // p[i]
      const int rb = alloc_reg();
      compile_expr(*e.kids[0], rb);
      const int ri = alloc_reg();
      compile_expr(*e.kids[1], ri);
      Instr in;
      in.op = Op::CheckDeref;
      in.a = static_cast<unsigned short>(rb);
      in.b = static_cast<unsigned short>(ri);
      in.flag = true;
      in.line = e.line;
      emit(std::move(in));
    }
    rtop = save;
  }

  void compile_expr(const Expr& e, int dst) {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::CharLit: {
        charge(e.line);
        emit_load_const(Value::make_int(e.int_value), dst, e.line);
        return;
      }
      case ExprKind::FloatLit:
        charge(e.line);
        emit_load_const(Value::make_real(e.float_value), dst, e.line);
        return;
      case ExprKind::StringLit:
        charge(e.line);
        emit_load_const(Value::make_str(e.text), dst, e.line);
        return;
      case ExprKind::SizeofType:
        charge(e.line);
        emit_load_const(Value::make_int(type_size(e.type)), dst, e.line);
        return;
      case ExprKind::Ident: {
        charge(e.line);
        Instr in;
        in.op = Op::LoadVar;
        in.a = static_cast<unsigned short>(dst);
        in.imm = add_name(e.text);
        in.line = e.line;
        emit(std::move(in));
        return;
      }
      case ExprKind::Unary:
        compile_unary(e, dst);
        return;
      case ExprKind::Binary:
        compile_binary(e, dst);
        return;
      case ExprKind::Assign:
        compile_assign(e, dst);
        return;
      case ExprKind::Ternary: {
        charge(e.line);
        const int l_else = new_label();
        const int l_end = new_label();
        compile_expr(*e.kids[0], dst);
        emit_jump(Op::Jz, dst, l_else, e.line);
        compile_expr(*e.kids[1], dst);
        emit_jump(Op::Jmp, -1, l_end, e.line);
        bind(l_else);
        compile_expr(*e.kids[2], dst);
        bind(l_end);
        return;
      }
      case ExprKind::Index: {
        // eval() entry + resolve_lvalue() entry: two charges, same line.
        charge(e.line);
        charge(e.line);
        const int save = rtop;
        const int rb = alloc_reg();
        compile_expr(*e.kids[0], rb);
        const int ri = alloc_reg();
        compile_expr(*e.kids[1], ri);
        Instr chk;
        chk.op = Op::CheckDeref;
        chk.a = static_cast<unsigned short>(rb);
        chk.b = static_cast<unsigned short>(ri);
        chk.flag = true;
        chk.line = e.line;
        emit(std::move(chk));
        rtop = save;
        Instr ld;
        ld.op = Op::LoadLv;
        ld.a = static_cast<unsigned short>(dst);
        ld.line = e.line;
        emit(std::move(ld));
        return;
      }
      case ExprKind::Member: {
        charge(e.line);  // eval() entry; eval_member_body charges the rest
        Instr in;
        in.op = Op::Member;
        in.a = static_cast<unsigned short>(dst);
        in.line = e.line;
        in.node = &e;
        emit(std::move(in));
        return;
      }
      case ExprKind::Cast: {
        charge(e.line);
        const int save = rtop;
        const int r = alloc_reg();
        compile_expr(*e.kids[0], r);
        Instr in;
        in.op = Op::Cast;
        in.a = static_cast<unsigned short>(dst);
        in.b = static_cast<unsigned short>(r);
        in.imm = add_type(e.type);
        in.line = e.line;
        emit(std::move(in));
        rtop = save;
        return;
      }
      case ExprKind::Call:
        compile_call(e, dst);
        return;
      case ExprKind::LambdaExpr: {
        // Closure capture only; the body compiles to its own chunk when
        // the closure is first called (Machine::call_closure).
        charge(e.line);
        Instr in;
        in.op = Op::Lambda;
        in.a = static_cast<unsigned short>(dst);
        in.line = e.line;
        in.node = &e;
        emit(std::move(in));
        return;
      }
      default:
        // InitList: tree-walk (eval charges its own entry). Residual
        // fallback — the brace-init tuple materialisation has no lowering.
        tree_eval(e, dst);
        return;
    }
  }

  void emit_load_const(Value v, int dst, int line) {
    Instr in;
    in.op = Op::LoadConst;
    in.a = static_cast<unsigned short>(dst);
    in.imm = add_const(std::move(v));
    in.line = line;
    emit(std::move(in));
  }

  void compile_unary(const Expr& e, int dst) {
    const std::string& op = e.text;
    if (op == "++" || op == "--") {
      if (!can_compile_lvalue(*e.kids[0])) {
        // Unary inc/dec on a non-lowerable target (e.g. an InitList or
        // unknown form): walk it so eval's lvalue trap fires verbatim.
        tree_eval(e, dst);
        return;
      }
      charge(e.line);
      compile_lvalue(*e.kids[0]);
      Instr in;
      in.op = Op::IncDecLv;
      in.a = static_cast<unsigned short>(dst);
      in.imm = op == "++" ? 1 : -1;
      in.flag = e.postfix;
      in.line = e.line;
      emit(std::move(in));
      return;
    }
    if (op == "*") {
      charge(e.line);
      const int save = rtop;
      const int r = alloc_reg();
      compile_expr(*e.kids[0], r);
      Instr in;
      in.op = Op::Deref;
      in.a = static_cast<unsigned short>(dst);
      in.b = static_cast<unsigned short>(r);
      in.line = e.line;
      emit(std::move(in));
      rtop = save;
      return;
    }
    if (op == "&") {
      if (e.kids[0]->kind == ExprKind::Ident) {
        charge(e.line);
        Instr in;
        in.op = Op::AddrVar;
        in.a = static_cast<unsigned short>(dst);
        in.imm = add_name(e.kids[0]->text);
        in.line = e.line;
        emit(std::move(in));
        return;
      }
      if (can_compile_lvalue(*e.kids[0])) {
        charge(e.line);
        compile_lvalue(*e.kids[0]);
        Instr in;
        in.op = Op::AddrLv;
        in.a = static_cast<unsigned short>(dst);
        in.line = e.line;
        emit(std::move(in));
        return;
      }
      // Unary '&' of a non-lowerable operand: the walker's address-of
      // path traps ("cannot take the address of this expression")
      // identically.
      tree_eval(e, dst);
      return;
    }
    if (op == "-" || op == "!" || op == "~") {
      charge(e.line);
      const int save = rtop;
      const int r = alloc_reg();
      compile_expr(*e.kids[0], r);
      Instr in;
      in.op = op == "-" ? Op::Neg : op == "!" ? Op::Not : Op::BNot;
      in.a = static_cast<unsigned short>(dst);
      in.b = static_cast<unsigned short>(r);
      in.line = e.line;
      emit(std::move(in));
      rtop = save;
      return;
    }
    tree_eval(e, dst);  // unknown unary operator: eval traps
  }

  void compile_binary(const Expr& e, int dst) {
    const std::string& op = e.text;
    if (op == "&&" || op == "||") {
      charge(e.line);
      const int l_short = new_label();
      compile_expr(*e.kids[0], dst);
      emit_jump(op == "&&" ? Op::Jz : Op::Jnz, dst, l_short, e.line);
      compile_expr(*e.kids[1], dst);
      bind(l_short);
      Instr in;
      in.op = Op::Boolize;
      in.a = static_cast<unsigned short>(dst);
      in.line = e.line;
      emit(std::move(in));
      return;
    }
    const auto bop = binop_from_text(op);
    if (!bop) {
      tree_eval(e, dst);  // unknown operator: eval traps with exact message
      return;
    }
    charge(e.line);
    const int save = rtop;
    compile_expr(*e.kids[0], dst);
    const int r2 = alloc_reg();
    compile_expr(*e.kids[1], r2);
    Instr in;
    in.op = Op::Binop;
    in.a = static_cast<unsigned short>(dst);
    in.b = static_cast<unsigned short>(dst);
    in.c = static_cast<unsigned short>(r2);
    in.binop = static_cast<signed char>(*bop);
    in.line = e.line;
    emit(std::move(in));
    rtop = save;
  }

  void compile_assign(const Expr& e, int dst) {
    const Expr& target = *e.kids[0];
    if (!can_compile_lvalue(target)) {
      // Non-lvalue Assign target (Binary, literal, ...): tree-walk so the
      // interpreter's "expression is not assignable" trap fires verbatim.
      tree_eval(e, dst);
      return;
    }
    signed char bop = -1;
    if (e.text != "=") {
      const auto b = binop_from_text(e.text.substr(0, e.text.size() - 1));
      if (!b) {
        tree_eval(e, dst);  // unknown compound-assign operator: eval traps
        return;
      }
      bop = static_cast<signed char>(*b);
    }
    charge(e.line);
    compile_lvalue(target);  // lvalue FIRST: its traps fire before the rhs
    compile_expr(*e.kids[1], dst);
    Instr in;
    in.op = bop < 0 ? Op::StoreLv : Op::CompoundLv;
    in.a = static_cast<unsigned short>(dst);
    in.binop = bop;
    in.line = e.line;
    emit(std::move(in));
  }

  void compile_call(const Expr& e, int dst) {
    if (e.launch_grid) {
      tree_eval(e, dst);  // kernel launch: launch_kernel via the walker
      return;
    }
    const auto fit = prog.functions.find(e.text);
    const FunctionDecl* fn =
        fit != prog.functions.end() ? fit->second : nullptr;
    const BuiltinDef* bd = fn ? nullptr : builtins.find(e.text);
    if (fn == nullptr && (bd == nullptr || !bd->impl)) {
      tree_eval(e, dst);  // undeclared (or var-only) call: walker handles
      return;
    }
    charge(e.line);
    const int l_after = new_label();
    {
      // A local view/lambda variable shadows the function name at runtime;
      // the interpreter checks that first, so must we.
      Instr in;
      in.op = Op::CallGuard;
      in.a = static_cast<unsigned short>(dst);
      in.line = e.line;
      in.node = &e;
      emit(std::move(in));
      fixups.push_back({ch.code.size() - 1, l_after, false});
    }
    const int base = rtop;
    const int nargs = static_cast<int>(e.kids.size());
    if (fn != nullptr) {
      for (const auto& k : e.kids) {
        const int r = alloc_reg();
        compile_expr(*k, r);
      }
      Instr in;
      in.op = Op::CallFn;
      in.a = static_cast<unsigned short>(dst);
      in.b = static_cast<unsigned short>(base);
      in.c = static_cast<unsigned short>(nargs);
      in.line = e.line;
      in.node = fn;
      emit(std::move(in));
    } else {
      for (std::size_t i = 0; i < e.kids.size(); ++i) {
        const int r = alloc_reg();
        const bool wants_ref = i < bd->arg_classes.size() &&
                               bd->arg_classes[i] == ArgClass::PtrOut &&
                               e.kids[i]->kind == ExprKind::Ident;
        if (wants_ref) {
          // Declared variable -> Ref without evaluating; else evaluate.
          const int l_skip = new_label();
          Instr ra;
          ra.op = Op::RefArg;
          ra.a = static_cast<unsigned short>(r);
          ra.imm = add_name(e.kids[i]->text);
          ra.line = e.kids[i]->line;
          emit(std::move(ra));
          fixups.push_back({ch.code.size() - 1, l_skip, true});
          compile_expr(*e.kids[i], r);
          bind(l_skip);
        } else {
          compile_expr(*e.kids[i], r);
        }
      }
      Instr in;
      in.op = Op::Builtin;
      in.a = static_cast<unsigned short>(dst);
      in.b = static_cast<unsigned short>(base);
      in.c = static_cast<unsigned short>(nargs);
      in.line = e.line;
      in.node = bd;
      emit(std::move(in));
    }
    rtop = base;
    bind(l_after);
  }

  // ------------------------------------------------------- statements --
  static bool simple_decl(const VarDecl& v) {
    if (v.array_size) return false;
    switch (v.type.base) {
      case BaseType::View:
      case BaseType::Dim3:
      case BaseType::Struct:
      case BaseType::CurandState:
        return false;
      default:
        return true;
    }
  }

  static bool struct_decl(const VarDecl& v) {
    return !v.array_size && (v.type.base == BaseType::Struct ||
                             v.type.base == BaseType::CurandState);
  }

  /// Declarations with a lowering. Residual fallbacks, each tree-walked as
  /// a whole statement: View and Dim3 declarations (ctor-argument
  /// construction), and array / struct declarations with a brace-list
  /// initializer — the element-by-element InitList walk has no lowering.
  static bool can_compile_decl(const VarDecl& v) {
    const bool brace_init =
        v.init != nullptr && v.init->kind == ExprKind::InitList;
    if (v.array_size) return v.init == nullptr;
    if (struct_decl(v)) return !brace_init;
    return simple_decl(v);
  }

  void compile_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Block: {
        charge(s.line);
        Instr push;
        push.op = Op::PushScope;
        push.line = s.line;
        emit(std::move(push));
        ++depth;
        for (const auto& child : s.body) compile_stmt(*child);
        Instr pop;
        pop.op = Op::PopScope;
        pop.line = s.line;
        emit(std::move(pop));
        --depth;
        return;
      }
      case StmtKind::ExprStmt: {
        charge(s.line);
        if (s.expr) {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          rtop = save;
        }
        return;
      }
      case StmtKind::Decl: {
        for (const auto& v : s.decls) {
          if (!can_compile_decl(v)) {
            tree_stmt(s);  // residual decl form: walk the whole statement
            return;
          }
        }
        charge(s.line);
        for (const auto& v : s.decls) {
          const int save = rtop;
          if (v.array_size) {  // no-init array: size reg, alloc + declare
            const int r = alloc_reg();
            compile_expr(*v.array_size, r);
            Instr in;
            in.op = Op::DeclArr;
            in.a = static_cast<unsigned short>(r);
            in.line = v.line;
            in.node = &v;
            emit(std::move(in));
          } else if (struct_decl(v)) {
            Instr in;
            in.op = Op::DeclStruct;
            in.line = v.line;
            in.node = &v;
            if (v.init) {
              const int r = alloc_reg();
              compile_expr(*v.init, r);
              in.a = static_cast<unsigned short>(r);
              in.flag = true;
            }
            emit(std::move(in));
          } else {
            Instr in;
            in.op = Op::DeclVar;
            in.imm = add_name(v.name);
            in.imm2 = add_type(v.type);
            in.line = v.line;
            if (v.init) {
              const int r = alloc_reg();
              compile_expr(*v.init, r);
              in.a = static_cast<unsigned short>(r);
              in.flag = true;
            }
            emit(std::move(in));
          }
          rtop = save;
        }
        return;
      }
      case StmtKind::If: {
        charge(s.line);
        const int l_end = new_label();
        const int l_else = s.else_branch ? new_label() : l_end;
        {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          emit_jump(Op::Jz, r, l_else, s.line);
          rtop = save;
        }
        compile_stmt(*s.then_branch);
        if (s.else_branch) {
          emit_jump(Op::Jmp, -1, l_end, s.line);
          bind(l_else);
          compile_stmt(*s.else_branch);
        }
        bind(l_end);
        return;
      }
      case StmtKind::While: {
        charge(s.line);  // exec() entry: once, outside the loop
        const int l_cond = new_label();
        const int l_end = new_label();
        bind(l_cond);
        {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          emit_jump(Op::Jz, r, l_end, s.line);
          rtop = save;
        }
        loops.push_back({l_cond, l_end, depth});
        compile_stmt(*s.loop_body);
        loops.pop_back();
        emit_jump(Op::Jmp, -1, l_cond, s.line);
        bind(l_end);
        return;
      }
      case StmtKind::DoWhile: {
        charge(s.line);
        const int l_top = new_label();
        const int l_cond = new_label();
        const int l_end = new_label();
        bind(l_top);
        loops.push_back({l_cond, l_end, depth});
        compile_stmt(*s.loop_body);
        loops.pop_back();
        bind(l_cond);
        {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          emit_jump(Op::Jnz, r, l_top, s.line);
          rtop = save;
        }
        bind(l_end);
        return;
      }
      case StmtKind::For: {
        charge(s.line);
        Instr push;
        push.op = Op::PushScope;
        push.line = s.line;
        emit(std::move(push));
        ++depth;
        if (s.for_init) compile_stmt(*s.for_init);
        const int l_cond = new_label();
        const int l_cont = new_label();
        const int l_end = new_label();
        bind(l_cond);
        if (s.expr) {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          emit_jump(Op::Jz, r, l_end, s.line);
          rtop = save;
        }
        loops.push_back({l_cont, l_end, depth});
        compile_stmt(*s.loop_body);
        loops.pop_back();
        bind(l_cont);
        if (s.for_inc) {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.for_inc, r);
          rtop = save;
        }
        emit_jump(Op::Jmp, -1, l_cond, s.line);
        bind(l_end);
        Instr pop;
        pop.op = Op::PopScope;
        pop.line = s.line;
        emit(std::move(pop));
        --depth;
        return;
      }
      case StmtKind::Return: {
        charge(s.line);
        if (s.expr) {
          const int save = rtop;
          const int r = alloc_reg();
          compile_expr(*s.expr, r);
          Instr in;
          in.op = region_mode ? Op::RetSig : Op::Ret;
          in.a = static_cast<unsigned short>(r);
          in.flag = region_mode;  // RetSig: carries a value
          in.line = s.line;
          emit(std::move(in));
          rtop = save;
        } else {
          Instr in;
          in.op = region_mode ? Op::RetSig : Op::RetVoid;
          in.line = s.line;
          emit(std::move(in));
        }
        return;
      }
      case StmtKind::Break:
      case StmtKind::Continue: {
        if (loops.empty()) {
          tree_stmt(s);  // stray break/continue: signal escapes, as before
          return;
        }
        charge(s.line);
        const LoopCtx& lc = loops.back();
        Instr in;
        in.op = Op::PopJump;
        in.b = static_cast<unsigned short>(depth - lc.depth);
        in.line = s.line;
        emit(std::move(in));
        fixups.push_back({ch.code.size() - 1,
                          s.kind == StmtKind::Break ? lc.break_label
                                                    : lc.cont_label,
                          false});
        return;
      }
      case StmtKind::Omp:
        compile_omp(s);
        return;
    }
    tree_stmt(s);  // statement kind without a lowering: walk it whole
  }

  /// Lower an OpenMP statement. Mirrors Machine::exec_omp construct by
  /// construct (same dispatch order); structured device regions compile
  /// their body into a subchunk so the runtime's enter/exit bookkeeping
  /// brackets the compiled body exactly as it brackets the tree walk.
  void compile_omp(const Stmt& s) {
    charge(s.line);  // exec() entry for the pragma statement
    if (!s.omp) {
      // OpenMP disabled at build time: pragma was ignored.
      if (s.omp_body) compile_stmt(*s.omp_body);
      return;
    }
    const OmpDirective& d = *s.omp;
    if (d.has(OmpConstruct::Barrier) || d.has(OmpConstruct::Declare) ||
        d.has(OmpConstruct::End)) {
      return;  // no-ops: the entry charge is all the interpreter does
    }
    if (d.has(OmpConstruct::TargetUpdate) ||
        d.has(OmpConstruct::TargetEnterData) ||
        d.has(OmpConstruct::TargetExitData)) {
      Instr in;
      in.op = Op::OmpData;
      in.line = s.line;
      in.node = &s;
      emit(std::move(in));
      return;
    }
    if (d.has(OmpConstruct::TargetData) ||
        (d.has(OmpConstruct::Target) && prog.caps.offload)) {
      Instr in;
      in.op = Op::OmpExec;
      in.a = static_cast<unsigned short>(ch.subchunks.size());
      in.line = s.line;
      in.node = &s;
      set_loop_ctx(in);
      emit(std::move(in));
      ch.subchunks.push_back(compile_region(s));
      return;
    }
    // Host constructs — parallel / for / simd / single / critical /
    // atomic, plus `target` when offload is off — run the body inline.
    const bool counts = d.has(OmpConstruct::Target) ||
                        d.has(OmpConstruct::Parallel) ||
                        d.has(OmpConstruct::For) || d.has(OmpConstruct::Simd);
    Instr in;
    in.op = Op::HostPar;
    in.flag = counts;
    in.line = s.line;
    emit(std::move(in));
    if (s.omp_body) compile_stmt(*s.omp_body);
  }

  std::shared_ptr<const Chunk> compile_region(const Stmt& s) {
    auto sub = std::make_shared<Chunk>();
    Compiler c{prog, builtins, *sub};
    c.region_mode = true;
    if (s.omp_body) c.compile_stmt(*s.omp_body);
    Instr end;
    end.op = Op::End;
    c.emit(std::move(end));  // carries any trailing fuel
    c.patch_fixups();
    return sub;
  }

  void patch_fixups() {
    for (const Fixup& f : fixups) {
      const int target = labels[static_cast<std::size_t>(f.label)];
      Instr& in = ch.code[f.code_index];
      (f.imm2 ? in.imm2 : in.imm) = target;
    }
  }
};

}  // namespace

std::unique_ptr<Chunk> compile_function(const FunctionDecl& fn,
                                        const LinkedProgram& prog,
                                        const BuiltinTable& builtins) {
  auto ch = std::make_unique<Chunk>();
  ch->fn = &fn;
  Compiler c{prog, builtins, *ch};
  c.compile_stmt(*fn.body);
  {
    Instr end;
    end.op = Op::End;
    c.emit(std::move(end));  // carries any trailing fuel
  }
  c.patch_fixups();
  return ch;
}

std::unique_ptr<Chunk> compile_lambda(const Stmt& body,
                                      const LinkedProgram& prog,
                                      const BuiltinTable& builtins) {
  auto ch = std::make_unique<Chunk>();
  ch->lambda_body = &body;
  Compiler c{prog, builtins, *ch};
  c.compile_stmt(body);
  {
    Instr end;
    end.op = Op::End;
    c.emit(std::move(end));
  }
  c.patch_fixups();
  return ch;
}

// --- ChunkPack --------------------------------------------------------------

std::shared_ptr<const Chunk> ChunkPack::get(const FunctionDecl* fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = chunks_.find(fn);
  return it == chunks_.end() ? nullptr : it->second;
}

const Chunk& ChunkPack::get_or_compile(const FunctionDecl& fn,
                                       const LinkedProgram& prog,
                                       const BuiltinTable& builtins) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = chunks_.find(&fn);
    if (it != chunks_.end()) return *it->second;
  }
  // Compile outside the lock: compilation is pure, so two racing threads
  // just produce identical chunks and the first insert wins.
  std::shared_ptr<const Chunk> fresh = compile_function(fn, prog, builtins);
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = chunks_.emplace(&fn, std::move(fresh));
  return *it->second;
}

void ChunkPack::put(const FunctionDecl* fn,
                    std::shared_ptr<const Chunk> chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  chunks_.emplace(fn, std::move(chunk));  // existing entry wins
}

std::size_t ChunkPack::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.size();
}

std::shared_ptr<const Chunk> ChunkPack::get_lambda(const Stmt* body) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = lambda_chunks_.find(body);
  return it == lambda_chunks_.end() ? nullptr : it->second;
}

const Chunk& ChunkPack::get_or_compile_lambda(const Stmt& body,
                                              const LinkedProgram& prog,
                                              const BuiltinTable& builtins) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = lambda_chunks_.find(&body);
    if (it != lambda_chunks_.end()) return *it->second;
  }
  std::shared_ptr<const Chunk> fresh = compile_lambda(body, prog, builtins);
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = lambda_chunks_.emplace(&body, std::move(fresh));
  return *it->second;
}

void ChunkPack::put_lambda(const Stmt* body,
                           std::shared_ptr<const Chunk> chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  lambda_chunks_.emplace(body, std::move(chunk));  // existing entry wins
}

std::size_t ChunkPack::lambda_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lambda_chunks_.size();
}

// --- binary chunk codec -----------------------------------------------------

namespace {

constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(Op::End);

/// Subchunk nesting bound: OMP regions nest a handful deep in practice;
/// the cap keeps a (hash-sealed, so effectively impossible) pathological
/// payload from recursing the decoder off the stack.
constexpr int kMaxSubchunkDepth = 32;

/// Ops whose `node` payload is an Expr / Stmt / VarDecl / FunctionDecl.
/// Every other op ignores the field (it must be null).
bool node_is_expr(Op op) {
  return op == Op::TreeEval || op == Op::Member || op == Op::CallGuard ||
         op == Op::Lambda || op == Op::LvTree;
}
bool node_is_stmt(Op op) {
  return op == Op::TreeStmt || op == Op::OmpData || op == Op::OmpExec;
}
bool node_is_vardecl(Op op) {
  return op == Op::DeclArr || op == Op::DeclStruct;
}

bool encode_chunk_body(const Chunk& chunk, const NodeTable& nodes,
                       BinWriter& w, int depth);
bool decode_chunk_body(BinReader& r, const NodeTable& nodes,
                       const BuiltinTable& builtins, Chunk* out, int depth);

bool encode_chunk_body(const Chunk& chunk, const NodeTable& nodes,
                       BinWriter& w, int depth) {
  if (depth > kMaxSubchunkDepth) return false;
  w.i32(chunk.num_regs);
  w.u32(static_cast<std::uint32_t>(chunk.consts.size()));
  for (const Value& v : chunk.consts) {
    if (!encode_value(v, w)) return false;
  }
  w.u32(static_cast<std::uint32_t>(chunk.names.size()));
  for (const std::string& n : chunk.names) w.str(n);
  w.u32(static_cast<std::uint32_t>(chunk.types.size()));
  for (const Type& t : chunk.types) encode_type(t, w);
  w.u32(static_cast<std::uint32_t>(chunk.code.size()));
  for (const Instr& in : chunk.code) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u16(in.a);
    w.u16(in.b);
    w.u16(in.c);
    w.u8(static_cast<std::uint8_t>(in.binop));
    w.boolean(in.flag);
    w.i32(in.imm);
    w.i32(in.imm2);
    w.i32(in.fuel);
    w.i32(in.fuel_line);
    w.i32(in.line);
    if (in.op == Op::Builtin) {
      // The BuiltinDef lives in the build configuration's table, not the
      // AST: serialize by name and re-resolve on decode.
      if (in.node == nullptr) return false;
      w.str(static_cast<const BuiltinDef*>(in.node)->name);
    } else if (node_is_expr(in.op) || node_is_stmt(in.op) ||
               node_is_vardecl(in.op) || in.op == Op::CallFn) {
      const std::int32_t idx = nodes.index_of(in.node);
      if (idx < 0) return false;
      w.i32(idx);
    }
  }
  w.u32(static_cast<std::uint32_t>(chunk.subchunks.size()));
  for (const auto& sub : chunk.subchunks) {
    if (sub == nullptr || !encode_chunk_body(*sub, nodes, w, depth + 1)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool encode_chunk(const Chunk& chunk, const NodeTable& nodes, BinWriter& w) {
  if (chunk.fn != nullptr) {
    const std::int32_t fn_index = nodes.index_of(chunk.fn);
    if (fn_index < 0) return false;
    w.u8(0);  // function chunk
    w.i32(fn_index);
  } else {
    const std::int32_t body_index = nodes.index_of(chunk.lambda_body);
    if (body_index < 0) return false;
    w.u8(1);  // lambda chunk
    w.i32(body_index);
  }
  return encode_chunk_body(chunk, nodes, w, 0);
}

namespace {

bool decode_chunk_body(BinReader& r, const NodeTable& nodes,
                       const BuiltinTable& builtins, Chunk* out, int depth) {
  if (depth > kMaxSubchunkDepth) {
    r.fail();
    return false;
  }
  out->num_regs = r.i32();
  const std::uint32_t nconsts = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nconsts; ++i) {
    Value v;
    if (!decode_value(r, &v)) return false;
    out->consts.push_back(std::move(v));
  }
  const std::uint32_t nnames = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nnames; ++i) {
    out->names.push_back(r.str());
  }
  const std::uint32_t ntypes = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < ntypes; ++i) {
    Type t;
    if (!decode_type(r, &t)) return false;
    out->types.push_back(std::move(t));
  }
  const std::uint32_t ncode = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < ncode; ++i) {
    Instr in;
    const std::uint8_t op = r.u8();
    if (op > kMaxOp) {
      r.fail();
      return false;
    }
    in.op = static_cast<Op>(op);
    in.a = r.u16();
    in.b = r.u16();
    in.c = r.u16();
    in.binop = static_cast<signed char>(r.u8());
    in.flag = r.boolean();
    in.imm = r.i32();
    in.imm2 = r.i32();
    in.fuel = r.i32();
    in.fuel_line = r.i32();
    in.line = r.i32();
    if (in.op == Op::Builtin) {
      in.node = builtins.find(r.str());
    } else if (node_is_expr(in.op)) {
      in.node = nodes.at(static_cast<std::uint32_t>(r.i32()),
                         NodeTable::Kind::Expr);
    } else if (node_is_stmt(in.op)) {
      in.node = nodes.at(static_cast<std::uint32_t>(r.i32()),
                         NodeTable::Kind::Stmt);
    } else if (node_is_vardecl(in.op)) {
      in.node = nodes.at(static_cast<std::uint32_t>(r.i32()),
                         NodeTable::Kind::VarDecl);
    } else if (in.op == Op::CallFn) {
      in.node = nodes.at(static_cast<std::uint32_t>(r.i32()),
                         NodeTable::Kind::Function);
    } else {
      out->code.push_back(in);
      continue;
    }
    if (in.node == nullptr) {
      r.fail();
      return false;
    }
    out->code.push_back(in);
  }
  const std::uint32_t nsubs = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nsubs; ++i) {
    Chunk sub;
    if (!decode_chunk_body(r, nodes, builtins, &sub, depth + 1)) {
      return false;
    }
    out->subchunks.push_back(
        std::make_shared<const Chunk>(std::move(sub)));
  }
  // Every OmpExec must address a decoded subchunk.
  for (const Instr& in : out->code) {
    if (in.op == Op::OmpExec && in.a >= out->subchunks.size()) {
      r.fail();
      return false;
    }
  }
  return r.ok();
}

}  // namespace

bool decode_chunk(BinReader& r, const NodeTable& nodes,
                  const BuiltinTable& builtins, Chunk* out) {
  const std::uint8_t tag = r.u8();
  if (tag == 0) {
    out->fn = static_cast<const FunctionDecl*>(nodes.at(
        static_cast<std::uint32_t>(r.i32()), NodeTable::Kind::Function));
    if (out->fn == nullptr) {
      r.fail();
      return false;
    }
  } else if (tag == 1) {
    out->lambda_body = static_cast<const Stmt*>(nodes.at(
        static_cast<std::uint32_t>(r.i32()), NodeTable::Kind::Stmt));
    if (out->lambda_body == nullptr) {
      r.fail();
      return false;
    }
  } else {
    r.fail();
    return false;
  }
  return decode_chunk_body(r, nodes, builtins, out, 0);
}

}  // namespace pareval::minic
