#include "minic/sema.hpp"

#include <map>
#include <vector>

namespace pareval::minic {

namespace {

/// Sentinel for expressions whose type we do not constrain.
Type any_type() {
  Type t;
  t.base = BaseType::Unknown;
  return t;
}

bool is_any(const Type& t) { return t.base == BaseType::Unknown; }

/// C-style assignment compatibility (lenient numerics, strict-ish pointers).
bool compatible(const Type& dst, const Type& src) {
  if (is_any(dst) || is_any(src)) return true;
  if (dst.is_numeric() && src.is_numeric()) return true;
  if (dst.is_pointer() && src.is_pointer()) {
    if (dst.base == BaseType::Void || src.base == BaseType::Void) return true;
    // Allow char* <-> char* etc.; require same base and depth otherwise.
    return dst.base == src.base && dst.ptr_depth == src.ptr_depth;
  }
  if (dst.base == BaseType::Struct && src.base == BaseType::Struct &&
      !dst.is_pointer() && !src.is_pointer()) {
    return dst.struct_name == src.struct_name;
  }
  if (dst.base == BaseType::View && src.base == BaseType::View) {
    return dst.view_elem == src.view_elem &&
           dst.view_rank == src.view_rank &&
           dst.view_struct_name == src.view_struct_name;
  }
  if (dst.base == BaseType::Dim3 && src.base == BaseType::Dim3) return true;
  if (dst.base == BaseType::Dim3 && src.is_numeric()) return true;  // dim3 g = 4
  if (dst.base == BaseType::CurandState && src.base == BaseType::CurandState) {
    return true;
  }
  if (dst.base == BaseType::Lambda && src.base == BaseType::Lambda) return true;
  if (dst.base == BaseType::Bool && src.is_pointer()) return true;  // if(p)
  return false;
}

class Sema {
 public:
  Sema(TranslationUnit& tu, const SemaOptions& opt) : tu_(tu), opt_(opt) {}

  void run() {
    // Pass 1: tables.
    for (const auto& sd : tu_.structs) {
      structs_.emplace(sd.name, &sd);
    }
    for (const auto& fn : tu_.functions) {
      functions_.emplace(fn.name, &fn);  // first wins: prototype or def
    }
    for (const auto& sd : tu_.structs) check_struct(sd);
    // Globals form the outermost scope.
    push_scope();
    for (auto& g : tu_.globals) {
      check_type(g.var.type, g.var.line);
      if (g.var.init) {
        const Type it = type_of(*g.var.init);
        require_compat(g.var.type, it, g.var.line,
                       "initializing '" + g.var.type.to_string() + "'");
      }
      declare(g.var.name, g.var.array_size ? g.var.type.pointer_to()
                                           : g.var.type);
    }
    // Pass 2: bodies.
    for (auto& fn : tu_.functions) {
      if (fn.body) check_function(fn);
    }
    pop_scope();
    for (const auto& name : called_) tu_.called_functions.push_back(name);
  }

 private:
  // ------------------------------------------------------------- scopes --
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  void declare(const std::string& name, Type t) {
    scopes_.back()[name] = std::move(t);
  }
  const Type* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto hit = it->find(name);
      if (hit != it->end()) return &hit->second;
    }
    return nullptr;
  }

  void error(DiagCategory cat, const std::string& msg, int line) {
    tu_.diags.error(cat, msg, tu_.path, line);
  }
  void warn(DiagCategory cat, const std::string& msg, int line) {
    tu_.diags.warning(cat, msg, tu_.path, line);
  }
  void require_compat(const Type& dst, const Type& src, int line,
                      const std::string& what) {
    if (!compatible(dst, src)) {
      error(DiagCategory::ArgTypeMismatch,
            what + " with an expression of incompatible type '" +
                src.to_string() + "'",
            line);
    }
  }

  void check_type(const Type& t, int line) {
    if (t.base == BaseType::Struct && structs_.count(t.struct_name) == 0) {
      error(DiagCategory::UndeclaredIdentifier,
            "unknown type name '" + t.struct_name + "'", line);
    }
    if (t.base == BaseType::View && !opt_.caps.kokkos) {
      error(DiagCategory::UndeclaredIdentifier,
            "use of undeclared identifier 'Kokkos' (Kokkos is not enabled "
            "for this build)",
            line);
    }
  }

  void check_struct(const StructDecl& sd) {
    for (const auto& f : sd.fields) check_type(f.type, sd.line);
  }

  // ---------------------------------------------------------- functions --
  void check_function(FunctionDecl& fn) {
    current_fn_ = &fn;
    if (fn.qual == FnQual::Global) {
      if (!opt_.caps.cuda) {
        error(DiagCategory::CodeSyntax,
              "'__global__' attribute requires the CUDA toolchain", fn.line);
      }
      if (!fn.return_type.is_void()) {
        error(DiagCategory::ArgTypeMismatch,
              "__global__ kernel '" + fn.name + "' must return void", fn.line);
      }
    }
    push_scope();
    for (const auto& p : fn.params) {
      check_type(p.type, fn.line);
      declare(p.name, p.type);
    }
    in_device_code_ =
        fn.qual == FnQual::Global || fn.qual == FnQual::Device;
    check_stmt(*fn.body);
    in_device_code_ = false;
    pop_scope();
    current_fn_ = nullptr;
  }

  // ---------------------------------------------------------- statements --
  void check_stmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::Block:
        push_scope();
        for (auto& child : s.body) check_stmt(*child);
        pop_scope();
        return;
      case StmtKind::ExprStmt:
        if (s.expr) type_of(*s.expr);
        return;
      case StmtKind::Decl:
        for (auto& v : s.decls) check_decl(v);
        return;
      case StmtKind::If:
        type_of(*s.expr);
        check_stmt(*s.then_branch);
        if (s.else_branch) check_stmt(*s.else_branch);
        return;
      case StmtKind::For:
        push_scope();
        if (s.for_init) check_stmt(*s.for_init);
        if (s.expr) type_of(*s.expr);
        if (s.for_inc) type_of(*s.for_inc);
        check_loop_body(*s.loop_body);
        pop_scope();
        return;
      case StmtKind::While:
      case StmtKind::DoWhile:
        type_of(*s.expr);
        check_loop_body(*s.loop_body);
        return;
      case StmtKind::Return:
        if (s.expr) {
          const Type t = type_of(*s.expr);
          if (current_fn_) {
            require_compat(current_fn_->return_type, t, s.line,
                           "returning from '" + current_fn_->name + "'");
          }
        }
        return;
      case StmtKind::Break:
      case StmtKind::Continue:
        // An OpenMP region inside a loop counts as inside it; a function
        // or lambda body starts outside every loop. This is what keeps a
        // break/continue Flow from ever crossing a call boundary.
        if (loop_depth_ == 0) {
          error(DiagCategory::CodeSyntax,
                s.kind == StmtKind::Break
                    ? "break statement not within loop or switch"
                    : "continue statement not within a loop",
                s.line);
        }
        return;
      case StmtKind::Omp:
        check_omp(s);
        return;
    }
  }

  void check_loop_body(Stmt& body) {
    ++loop_depth_;
    check_stmt(body);
    --loop_depth_;
  }

  void check_decl(VarDecl& v) {
    check_type(v.type, v.line);
    if (v.array_size) type_of(*v.array_size);
    for (auto& a : v.ctor_args) type_of(*a);
    if (v.type.base == BaseType::View && !v.ctor_args.empty()) {
      // View("label", n, ...) — label + one extent per rank.
      const int expected = 1 + v.type.view_rank;
      if (static_cast<int>(v.ctor_args.size()) != expected) {
        error(DiagCategory::ArgTypeMismatch,
              "Kokkos::View of rank " + std::to_string(v.type.view_rank) +
                  " requires a label and " +
                  std::to_string(v.type.view_rank) + " extents",
              v.line);
      }
    }
    if (v.init) {
      const Type it = type_of(*v.init);
      if (v.init->kind != ExprKind::InitList) {
        require_compat(v.type, it, v.line,
                       "initializing '" + v.type.to_string() + "'");
      }
    }
    declare(v.name, v.array_size ? v.type.pointer_to() : v.type);
  }

  void check_omp(Stmt& s) {
    if (!opt_.caps.openmp) {
      warn(DiagCategory::Other, "unknown pragma ignored ('#pragma omp" +
                                    std::string(s.omp_raw.empty() ? "" : " ") +
                                    s.omp_raw + "')",
           s.line);
      if (s.omp_body) check_stmt(*s.omp_body);
      return;
    }
    DiagBag scratch;
    auto dir = parse_omp_directive(s.omp_raw, s.line, tu_.path, scratch);
    tu_.diags.merge(scratch);
    if (!dir) {
      if (s.omp_body) check_stmt(*s.omp_body);
      return;
    }
    validate_omp_directive(*dir, tu_.path, tu_.diags);
    // Loop-binding check (OpenMP canonical form).
    const bool needs_loop = dir->has(OmpConstruct::For) ||
                            dir->has(OmpConstruct::Distribute) ||
                            dir->has(OmpConstruct::Simd);
    if (needs_loop &&
        (!s.omp_body || s.omp_body->kind != StmtKind::For)) {
      error(DiagCategory::OmpInvalidDirective,
            "statement after '#pragma omp " + dir->raw +
                "' must be a for loop",
            s.line);
    }
    // Clause variable resolution.
    for (const auto& clause : dir->clauses) {
      for (const auto& var : clause.vars) {
        if (lookup(var) == nullptr) {
          error(DiagCategory::UndeclaredIdentifier,
                "use of undeclared identifier '" + var + "' in '" +
                    clause.name + "' clause",
                s.line);
        }
      }
    }
    s.omp = std::move(*dir);
    if (s.omp_body) check_stmt(*s.omp_body);
  }

  // --------------------------------------------------------- expressions --
  Type type_of(Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Type::make(BaseType::Long);
      case ExprKind::FloatLit:
        return Type::make(BaseType::Double);
      case ExprKind::StringLit:
        return Type::make(BaseType::Char, 1);
      case ExprKind::CharLit:
        return Type::make(BaseType::Char);
      case ExprKind::Ident:
        return type_of_ident(e);
      case ExprKind::Unary:
        return type_of_unary(e);
      case ExprKind::Binary:
        return type_of_binary(e);
      case ExprKind::Assign: {
        const Type lhs = type_of(*e.kids[0]);
        const Type rhs = type_of(*e.kids[1]);
        if (e.text == "=") {
          require_compat(lhs, rhs, e.line,
                         "assigning to '" + lhs.to_string() + "'");
        } else if (!is_any(lhs) && !lhs.is_numeric() && !lhs.is_pointer()) {
          error(DiagCategory::ArgTypeMismatch,
                "invalid operands to compound assignment", e.line);
        }
        return lhs;
      }
      case ExprKind::Ternary: {
        type_of(*e.kids[0]);
        const Type a = type_of(*e.kids[1]);
        type_of(*e.kids[2]);
        return a;
      }
      case ExprKind::Call:
        return type_of_call(e);
      case ExprKind::Index: {
        const Type base = type_of(*e.kids[0]);
        const Type idx = type_of(*e.kids[1]);
        if (!is_any(idx) && !idx.is_numeric()) {
          error(DiagCategory::ArgTypeMismatch,
                "array subscript is not an integer", e.line);
        }
        if (is_any(base)) return any_type();
        if (!base.is_pointer()) {
          error(DiagCategory::ArgTypeMismatch,
                "subscripted value is not a pointer ('" + base.to_string() +
                    "')",
                e.line);
          return any_type();
        }
        return base.pointee();
      }
      case ExprKind::Member:
        return type_of_member(e);
      case ExprKind::Cast:
        type_of(*e.kids[0]);
        check_type(e.type, e.line);
        return e.type;
      case ExprKind::SizeofType:
        for (auto& k : e.kids) type_of(*k);
        return Type::make(BaseType::SizeT);
      case ExprKind::InitList:
        for (auto& k : e.kids) type_of(*k);
        return any_type();
      case ExprKind::LambdaExpr: {
        push_scope();
        for (const auto& p : e.lambda_params) declare(p.name, p.type);
        const int outer_loops = loop_depth_;
        loop_depth_ = 0;
        check_stmt(*e.lambda_body);
        loop_depth_ = outer_loops;
        pop_scope();
        return Type::make(BaseType::Lambda);
      }
    }
    return any_type();
  }

  Type type_of_ident(Expr& e) {
    if (const Type* t = lookup(e.text)) return *t;
    // CUDA thread builtins.
    if (e.text == "threadIdx" || e.text == "blockIdx" ||
        e.text == "blockDim" || e.text == "gridDim") {
      if (!opt_.caps.cuda) {
        error(DiagCategory::UndeclaredIdentifier,
              "use of undeclared identifier '" + e.text + "'", e.line);
      } else if (!in_device_code_) {
        error(DiagCategory::UndeclaredIdentifier,
              "'" + e.text + "' is only available in device code", e.line);
      }
      return Type::make(BaseType::Dim3);
    }
    // Enum-like runtime constants the registries define as identifiers.
    static const std::map<std::string, BaseType> kRuntimeConsts = {
        {"cudaMemcpyHostToDevice", BaseType::Int},
        {"cudaMemcpyDeviceToHost", BaseType::Int},
        {"cudaMemcpyDeviceToDevice", BaseType::Int},
        {"cudaMemcpyHostToHost", BaseType::Int},
        {"cudaSuccess", BaseType::Int},
        {"RAND_MAX", BaseType::Int},
        {"INT_MAX", BaseType::Int},
        {"DBL_MAX", BaseType::Double},
        {"FLT_MAX", BaseType::Double},
        {"M_PI", BaseType::Double},
        {"stderr", BaseType::Int},
        {"stdout", BaseType::Int},
        {"EXIT_SUCCESS", BaseType::Int},
        {"EXIT_FAILURE", BaseType::Int},
    };
    const auto rc = kRuntimeConsts.find(e.text);
    if (rc != kRuntimeConsts.end()) {
      if (e.text.starts_with("cuda") && !opt_.caps.cuda) {
        error(DiagCategory::UndeclaredIdentifier,
              "use of undeclared identifier '" + e.text + "'", e.line);
      }
      return Type::make(rc->second);
    }
    if (functions_.count(e.text) > 0 ||
        (opt_.builtins && opt_.builtins->find(e.text) != nullptr)) {
      // Function name used without a call (we do not support fn pointers).
      error(DiagCategory::ArgTypeMismatch,
            "function '" + e.text + "' used as a value", e.line);
      return any_type();
    }
    error(DiagCategory::UndeclaredIdentifier,
          "use of undeclared identifier '" + e.text + "'", e.line);
    return any_type();
  }

  Type type_of_unary(Expr& e) {
    const Type t = type_of(*e.kids[0]);
    const std::string& op = e.text;
    if (op == "*") {
      if (is_any(t)) return any_type();
      if (!t.is_pointer()) {
        error(DiagCategory::ArgTypeMismatch,
              "indirection requires pointer operand ('" + t.to_string() +
                  "' invalid)",
              e.line);
        return any_type();
      }
      return t.pointee();
    }
    if (op == "&") {
      if (is_any(t)) return any_type();
      return t.pointer_to();
    }
    if (op == "!" ) return Type::make(BaseType::Int);
    if (op == "-" || op == "~" || op == "++" || op == "--") {
      if (!is_any(t) && !t.is_numeric() && !(op != "~" && t.is_pointer())) {
        error(DiagCategory::ArgTypeMismatch,
              "invalid argument type '" + t.to_string() +
                  "' to unary expression",
              e.line);
      }
      return t;
    }
    return t;
  }

  Type type_of_binary(Expr& e) {
    const Type a = type_of(*e.kids[0]);
    const Type b = type_of(*e.kids[1]);
    const std::string& op = e.text;
    const bool comparison = op == "<" || op == ">" || op == "<=" ||
                            op == ">=" || op == "==" || op == "!=" ||
                            op == "&&" || op == "||";
    if (comparison) return Type::make(BaseType::Int);
    if (is_any(a) || is_any(b)) return is_any(a) ? b : a;
    // Pointer arithmetic: ptr +/- int.
    if (a.is_pointer() && b.is_numeric() && (op == "+" || op == "-")) return a;
    if (b.is_pointer() && a.is_numeric() && op == "+") return b;
    if (a.is_pointer() && b.is_pointer() && op == "-") {
      return Type::make(BaseType::Long);
    }
    if (!a.is_numeric() || !b.is_numeric()) {
      error(DiagCategory::ArgTypeMismatch,
            "invalid operands to binary expression ('" + a.to_string() +
                "' and '" + b.to_string() + "')",
            e.line);
      return any_type();
    }
    if (a.is_real() || b.is_real()) return Type::make(BaseType::Double);
    return Type::make(BaseType::Long);
  }

  Type type_of_member(Expr& e) {
    const Type base = type_of(*e.kids[0]);
    if (is_any(base)) return any_type();
    Type obj = base;
    if (e.arrow) {
      if (!base.is_pointer()) {
        error(DiagCategory::ArgTypeMismatch,
              "member reference type '" + base.to_string() +
                  "' is not a pointer",
              e.line);
        return any_type();
      }
      obj = base.pointee();
    } else if (base.is_pointer()) {
      error(DiagCategory::ArgTypeMismatch,
            "member reference type '" + base.to_string() +
                "' is a pointer; did you mean '->'?",
            e.line);
      return any_type();
    }
    if (obj.base == BaseType::Dim3) {
      if (e.text == "x" || e.text == "y" || e.text == "z") {
        return Type::make(BaseType::Int);
      }
      error(DiagCategory::UndeclaredIdentifier,
            "no member named '" + e.text + "' in 'dim3'", e.line);
      return any_type();
    }
    if (obj.base == BaseType::CurandState) return Type::make(BaseType::Long);
    if (obj.base != BaseType::Struct) {
      error(DiagCategory::ArgTypeMismatch,
            "member reference base type '" + obj.to_string() +
                "' is not a structure",
            e.line);
      return any_type();
    }
    const auto sit = structs_.find(obj.struct_name);
    if (sit == structs_.end()) return any_type();  // already diagnosed
    for (const auto& f : sit->second->fields) {
      if (f.name == e.text) {
        return f.array_size ? f.type.pointer_to() : f.type;
      }
    }
    error(DiagCategory::UndeclaredIdentifier,
          "no member named '" + e.text + "' in 'struct " + obj.struct_name +
              "'",
          e.line);
    return any_type();
  }

  Type type_of_call(Expr& e) {
    // View indexing uses call syntax: v(i) / v(i, j).
    if (const Type* vt = lookup(e.text); vt && vt->base == BaseType::View) {
      if (static_cast<int>(e.kids.size()) != vt->view_rank) {
        error(DiagCategory::ArgTypeMismatch,
              "Kokkos::View '" + e.text + "' of rank " +
                  std::to_string(vt->view_rank) + " indexed with " +
                  std::to_string(e.kids.size()) + " subscripts",
              e.line);
      }
      for (auto& k : e.kids) type_of(*k);
      Type elem;
      elem.base = vt->view_elem;
      elem.struct_name = vt->view_struct_name;
      return elem;
    }

    // Argument types first (also recurses into lambdas).
    std::vector<Type> args;
    args.reserve(e.kids.size());
    for (auto& k : e.kids) args.push_back(type_of(*k));

    if (e.launch_grid) {
      type_of(*e.launch_grid);
      type_of(*e.launch_block);
    }

    // User function?
    const auto fit = functions_.find(e.text);
    if (fit != functions_.end()) {
      const FunctionDecl& fn = *fit->second;
      called_.insert(e.text);
      check_user_call(e, fn, args);
      return fn.return_type;
    }

    // Builtin?
    const BuiltinDef* b =
        opt_.builtins ? opt_.builtins->find(e.text) : nullptr;
    if (b != nullptr) {
      if (!b->header.empty() && opt_.included_headers.count(b->header) == 0) {
        error(DiagCategory::UndeclaredIdentifier,
              "use of undeclared identifier '" + e.text + "'; did you forget "
              "to include <" + b->header + ">?",
              e.line);
        return b->return_type;
      }
      if (e.launch_grid) {
        error(DiagCategory::ArgTypeMismatch,
              "kernel launch on non-kernel function '" + e.text + "'",
              e.line);
      }
      check_builtin_call(e, *b, args);
      return b->return_type;
    }

    error(DiagCategory::UndeclaredIdentifier,
          "use of undeclared identifier '" + e.text + "'", e.line);
    return any_type();
  }

  void check_user_call(const Expr& e, const FunctionDecl& fn,
                       const std::vector<Type>& args) {
    // CUDA qualifier rules.
    if (fn.qual == FnQual::Global) {
      if (!e.launch_grid) {
        error(DiagCategory::ArgTypeMismatch,
              "call to __global__ function '" + fn.name +
                  "' requires a kernel launch configuration",
              e.line);
      }
      if (in_device_code_) {
        error(DiagCategory::ArgTypeMismatch,
              "kernel launch from device code is not supported", e.line);
      }
    } else if (e.launch_grid) {
      error(DiagCategory::ArgTypeMismatch,
            "kernel launch on non-__global__ function '" + fn.name + "'",
            e.line);
    }
    if (e.launch_grid && !opt_.caps.cuda) {
      error(DiagCategory::CodeSyntax,
            "kernel launch syntax '<<<...>>>' requires the CUDA toolchain",
            e.line);
    }
    if (in_device_code_ && fn.qual == FnQual::None) {
      error(DiagCategory::ArgTypeMismatch,
            "reference to __host__ function '" + fn.name +
                "' in device code",
            e.line);
    }
    if (!in_device_code_ && fn.qual == FnQual::Device) {
      error(DiagCategory::ArgTypeMismatch,
            "reference to __device__ function '" + fn.name +
                "' in host code",
            e.line);
    }
    // Arity and argument classes.
    if (args.size() != fn.params.size()) {
      error(DiagCategory::ArgTypeMismatch,
            (args.size() < fn.params.size() ? "too few" : "too many") +
                std::string(" arguments to function call '") + fn.name +
                "'; expected " + std::to_string(fn.params.size()) + ", have " +
                std::to_string(args.size()),
            e.line);
      return;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!compatible(fn.params[i].type, args[i])) {
        error(DiagCategory::ArgTypeMismatch,
              "no matching function for call to '" + fn.name +
                  "': argument " + std::to_string(i + 1) + " has type '" +
                  args[i].to_string() + "', expected '" +
                  fn.params[i].type.to_string() + "'",
              e.line);
      }
    }
  }

  void check_builtin_call(const Expr& e, const BuiltinDef& b,
                          const std::vector<Type>& args) {
    if (in_device_code_ && !b.device_ok) {
      error(DiagCategory::ArgTypeMismatch,
            "reference to __host__ function '" + b.name + "' in device code",
            e.line);
    }
    if (!in_device_code_ && !b.host_ok) {
      error(DiagCategory::ArgTypeMismatch,
            "reference to __device__ function '" + b.name + "' in host code",
            e.line);
    }
    const int n = static_cast<int>(args.size());
    if (n < b.min_args || (b.max_args >= 0 && n > b.max_args)) {
      error(DiagCategory::ArgTypeMismatch,
            (n < b.min_args ? "too few" : "too many") +
                std::string(" arguments to function call '") + b.name + "'",
            e.line);
      return;
    }
    for (std::size_t i = 0; i < b.arg_classes.size() && i < args.size(); ++i) {
      const Type& t = args[i];
      if (is_any(t)) continue;
      bool ok = true;
      switch (b.arg_classes[i]) {
        case ArgClass::Num: ok = t.is_numeric(); break;
        case ArgClass::PtrAny: ok = t.is_pointer() || t.base == BaseType::View; break;
        case ArgClass::PtrOut:
          // Out-parameters are passed either as &var (pointer type) or as
          // a bare variable the interpreter binds by reference
          // (Kokkos::parallel_reduce results); both are fine.
          ok = true;
          break;
        case ArgClass::Str:
          ok = t.is_pointer() && t.base == BaseType::Char;
          break;
        case ArgClass::Lambda: ok = t.base == BaseType::Lambda; break;
        case ArgClass::View: ok = t.base == BaseType::View; break;
        case ArgClass::Any: ok = true; break;
      }
      if (!ok) {
        error(DiagCategory::ArgTypeMismatch,
              "argument " + std::to_string(i + 1) + " to '" + b.name +
                  "' has incompatible type '" + t.to_string() + "'",
              e.line);
      }
    }
  }

  TranslationUnit& tu_;
  const SemaOptions& opt_;
  std::map<std::string, const StructDecl*> structs_;
  std::map<std::string, const FunctionDecl*> functions_;
  std::vector<std::map<std::string, Type>> scopes_;
  std::set<std::string> called_;
  const FunctionDecl* current_fn_ = nullptr;
  bool in_device_code_ = false;
  int loop_depth_ = 0;  // loops enclosing the statement being checked
};

}  // namespace

void analyze(TranslationUnit& tu, const SemaOptions& options) {
  Sema(tu, options).run();
}

}  // namespace pareval::minic
