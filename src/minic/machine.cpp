#include "minic/machine.hpp"

#include <cmath>

#include "minic/bytecode.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pareval::minic {

namespace {

/// Deterministic "garbage" for uninitialized reads: nonzero, stable, and
/// certain to break a checksum without crashing the run.
double garbage_real(std::uint64_t salt) {
  const std::uint64_t h = support::SplitMix64(salt ^ 0xBADC0FFEE0DDF00DULL).next();
  return (static_cast<double>(h % 2000003ULL) - 1000001.0) * 1.2345e-3;
}

}  // namespace

std::optional<BinOp> binop_from_text(const std::string& op) {
  if (op == "+") return BinOp::Add;
  if (op == "-") return BinOp::Sub;
  if (op == "*") return BinOp::Mul;
  if (op == "/") return BinOp::Div;
  if (op == "%") return BinOp::Mod;
  if (op == "<<") return BinOp::Shl;
  if (op == ">>") return BinOp::Shr;
  if (op == "&") return BinOp::BAnd;
  if (op == "|") return BinOp::BOr;
  if (op == "^") return BinOp::BXor;
  if (op == "==") return BinOp::Eq;
  if (op == "!=") return BinOp::Ne;
  if (op == "<") return BinOp::Lt;
  if (op == ">") return BinOp::Gt;
  if (op == "<=") return BinOp::Le;
  if (op == ">=") return BinOp::Ge;
  return std::nullopt;
}

const char* binop_text(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::BAnd: return "&";
    case BinOp::BOr: return "|";
    case BinOp::BXor: return "^";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Gt: return ">";
    case BinOp::Le: return "<=";
    case BinOp::Ge: return ">=";
  }
  return "?";
}

Machine::Machine(const LinkedProgram& p, const BuiltinTable& b, RunLimits l)
    : prog(p), builtins(b), limits(l) {
  memory.reserve(64);
  exec_envs.push_back(ExecEnv{});          // host context
  data_envs.push_back(DataEnv{});          // unstructured data env
}

// ------------------------------------------------------------- helpers --
void Machine::trap(DiagCategory cat, const std::string& msg, int line) {
  Diag d;
  d.category = cat;
  d.severity = Severity::Error;
  d.message = msg;
  d.line = line;
  throw TrapSig{std::move(d)};
}

// ------------------------------------------------------------ memory --
int Machine::do_alloc(MemSpace space, long long cells, int elem_size,
                      std::string origin, int line) {
  if (cells < 0) {
    trap(DiagCategory::RuntimeFault,
         "allocation with negative size at " + origin, line);
  }
  total_cells += cells;
  if (total_cells > limits.max_cells) {
    trap(DiagCategory::RuntimeFault, "out of memory (simulated)", line);
  }
  MemBlock b;
  b.space = space;
  b.elem_size = elem_size;
  b.cells.resize(static_cast<std::size_t>(cells));
  b.origin = std::move(origin);
  memory.push_back(std::move(b));
  return static_cast<int>(memory.size() - 1);
}

MemBlock& Machine::get_block(int id, int line) {
  if (id < 0 || id >= static_cast<int>(memory.size())) {
    trap(DiagCategory::RuntimeFault,
         "segmentation fault (null or wild pointer dereference)", line);
  }
  MemBlock& b = memory[static_cast<std::size_t>(id)];
  if (b.freed) {
    trap(DiagCategory::RuntimeFault,
         "use after free (block allocated at " + b.origin + ")", line);
  }
  return b;
}

/// Resolve the block a ref actually touches in the current context,
/// applying the OpenMP present-table redirection.
MemRef Machine::resolve_space(const MemRef& ref, int line) {
  MemBlock& b = get_block(ref.block, line);
  const bool dev = device_ctx();
  if (dev && b.space == MemSpace::Host) {
    // Device code touching a host pointer: legal iff a device shadow is
    // present (OpenMP implicit/present mapping); otherwise it is the GPU
    // fault the paper's missing-map translations produce.
    for (auto it = data_envs.rbegin(); it != data_envs.rend(); ++it) {
      const auto hit = it->shadow.find(ref.block);
      if (hit != it->shadow.end()) {
        MemRef out = ref;
        out.block = hit->second;
        return out;
      }
    }
    trap(DiagCategory::RuntimeFault,
         "illegal memory access in device code (host pointer from " +
             b.origin + " is not mapped to the device)",
         line);
  }
  if (!dev && b.space == MemSpace::Device) {
    trap(DiagCategory::RuntimeFault,
         "segmentation fault (device pointer from " + b.origin +
             " dereferenced in host code)",
         line);
  }
  return ref;
}

Value Machine::load_ref(const MemRef& ref0, int line) {
  const MemRef ref = resolve_space(ref0, line);
  MemBlock& b = get_block(ref.block, line);
  if (ref.offset < 0 ||
      ref.offset >= static_cast<long long>(b.cells.size())) {
    trap(DiagCategory::RuntimeFault,
         "buffer overflow (index " + std::to_string(ref.offset) +
             " outside block of " + std::to_string(b.cells.size()) +
             " elements from " + b.origin + ")",
         line);
  }
  Value& cell = b.cells[static_cast<std::size_t>(ref.offset)];
  if (cell.kind == Value::Kind::Unset) {
    result.stats.read_uninitialized = true;
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(ref.block) << 32) ^
        static_cast<std::uint64_t>(ref.offset);
    if (ref.elem_base == BaseType::Float || ref.elem_base == BaseType::Double) {
      return Value::make_real(garbage_real(salt));
    }
    return Value::make_int(static_cast<long long>(salt % 1000003ULL) + 7);
  }
  return cell;
}

void Machine::store_ref(const MemRef& ref0, Value v, int line) {
  const MemRef ref = resolve_space(ref0, line);
  MemBlock& b = get_block(ref.block, line);
  if (ref.offset < 0 ||
      ref.offset >= static_cast<long long>(b.cells.size())) {
    trap(DiagCategory::RuntimeFault,
         "buffer overflow (write at index " + std::to_string(ref.offset) +
             " outside block of " + std::to_string(b.cells.size()) +
             " elements from " + b.origin + ")",
         line);
  }
  b.cells[static_cast<std::size_t>(ref.offset)] =
      coerce_to_base(std::move(v), ref.elem_base);
}

Value Machine::coerce_to_base(Value v, BaseType base) {
  switch (base) {
    case BaseType::Float:
      return Value::make_real(static_cast<double>(
          static_cast<float>(v.as_real())));
    case BaseType::Double:
      if (v.is_numeric()) return Value::make_real(v.as_real());
      return v;
    case BaseType::Bool:
      if (v.is_numeric()) return Value::make_int(v.truthy() ? 1 : 0);
      return v;
    case BaseType::Char:
    case BaseType::Int:
    case BaseType::UInt:
    case BaseType::Long:
    case BaseType::SizeT:
      if (v.is_numeric()) {
        long long x = v.as_int();
        if (base == BaseType::Int) x = static_cast<int>(x);
        if (base == BaseType::UInt)
          x = static_cast<unsigned int>(x);
        if (base == BaseType::Char) x = static_cast<signed char>(x);
        return Value::make_int(x);
      }
      return v;
    default:
      if (v.kind == Value::Kind::StructV) return v.clone();
      return v;
  }
}

Value Machine::coerce_to_type(Value v, const Type& t) {
  if (t.is_pointer() || t.base == BaseType::View ||
      t.base == BaseType::Struct || t.base == BaseType::Dim3 ||
      t.base == BaseType::Lambda || t.base == BaseType::CurandState ||
      t.base == BaseType::Unknown) {
    if (v.kind == Value::Kind::StructV) return v.clone();
    if (t.base == BaseType::Dim3 && v.is_numeric()) {
      Value out;
      out.kind = Value::Kind::Dim3V;
      out.dim3v = {v.as_int(), 1, 1};
      return out;
    }
    return v;
  }
  return coerce_to_base(std::move(v), t.base);
}

// -------------------------------------------------------------- env --
void Machine::push_scope() {
  frames.back().scopes.push_back(Scope{next_scope_id++, {}});
}
void Machine::pop_scope() { frames.back().scopes.pop_back(); }

VarSlot* Machine::declare(const std::string& name, VarSlot slot) {
  auto& vars = frames.back().scopes.back().vars;
  return &(vars[name] = std::move(slot));
}

Machine::Found Machine::find_var(const std::string& name) {
  auto& scopes = frames.back().scopes;
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
    const auto hit = it->vars.find(name);
    if (hit != it->vars.end()) return {&hit->second, it->id};
  }
  const auto g = globals.find(name);
  if (g != globals.end()) return {&g->second, -1};
  return {};
}

/// Should a device-context access to this slot go through the region's
/// scalar shadow? True for scalars declared outside the target region.
bool Machine::shadowed(const Found& f) const {
  if (scalar_shadows.empty() || !exec_envs.back().device) return false;
  const Type& t = f.slot->type;
  const bool scalar = !t.is_pointer() && t.base != BaseType::View &&
                      t.base != BaseType::Struct &&
                      t.base != BaseType::Lambda;
  if (!scalar) return false;
  return f.scope_id < scalar_shadows.back().boundary_scope_id;
}

Value Machine::read_var(const Found& f) {
  if (shadowed(f)) {
    const auto& sh = scalar_shadows.back();
    const auto hit = sh.values.find(f.slot);
    if (hit != sh.values.end()) return hit->second;
  }
  return f.slot->v;
}

void Machine::write_var(const Found& f, Value v) {
  Value coerced = coerce_to_type(std::move(v), f.slot->type);
  if (shadowed(f)) {
    scalar_shadows.back().values[f.slot] = std::move(coerced);
    return;
  }
  f.slot->v = std::move(coerced);
}

// ----------------------------------------------------------- lvalues --
Machine::LValue Machine::lvalue_ident(const std::string& name, int line) {
  Found f = find_var(name);
  if (!f.slot) {
    trap(DiagCategory::UndeclaredIdentifier,
         "use of undeclared identifier '" + name + "'", line);
  }
  LValue lv;
  lv.kind = LValue::Kind::Var;
  lv.var = f;
  return lv;
}

Machine::LValue Machine::resolve_lvalue(const Expr& e) {
  step(e.line);
  switch (e.kind) {
    case ExprKind::Ident:
      return lvalue_ident(e.text, e.line);
    case ExprKind::Unary: {
      if (e.text != "*") break;
      const Value p = eval(*e.kids[0]);
      if (p.kind == Value::Kind::Ref && p.ref != nullptr) {
        // &var passed into a T* parameter: *param writes the variable.
        LValue lv;
        lv.kind = LValue::Kind::Var;
        lv.var = Found{p.ref, next_scope_id};  // local: never shadowed
        return lv;
      }
      if (p.kind != Value::Kind::Ptr) {
        trap(DiagCategory::RuntimeFault,
             "indirection through a non-pointer value", e.line);
      }
      LValue lv;
      lv.kind = LValue::Kind::Cell;
      lv.cell = p.ptr;
      return lv;
    }
    case ExprKind::Index: {
      const Value p = eval(*e.kids[0]);
      const Value idx = eval(*e.kids[1]);
      if (p.kind != Value::Kind::Ptr) {
        trap(DiagCategory::RuntimeFault,
             "subscript of a non-pointer value", e.line);
      }
      LValue lv;
      lv.kind = LValue::Kind::Cell;
      lv.cell = p.ptr;
      lv.cell.offset += idx.as_int();
      return lv;
    }
    case ExprKind::Member: {
      // dim3 member?
      if (e.kids[0]->kind == ExprKind::Ident) {
        Found f = find_var(e.kids[0]->text);
        if (f.slot && f.slot->v.kind == Value::Kind::Dim3V && !e.arrow) {
          LValue lv;
          lv.kind = LValue::Kind::Dim3Member;
          lv.dim3_holder = &f.slot->v;
          lv.dim3_axis = e.text.empty() ? 'x' : e.text[0];
          return lv;
        }
      }
      Value base;
      if (e.arrow) {
        const Value p = eval(*e.kids[0]);
        if (p.kind != Value::Kind::Ptr) {
          trap(DiagCategory::RuntimeFault,
               "'->' applied to a non-pointer value", e.line);
        }
        base = vivify_struct_cell(p.ptr, e.line);
      } else {
        // Resolve the base as an lvalue so writes through an
        // uninitialized struct cell (pts[i].energy = x) work.
        const LValue base_lv = resolve_lvalue(*e.kids[0]);
        if (base_lv.kind == LValue::Kind::Cell) {
          base = vivify_struct_cell(base_lv.cell, e.line);
        } else {
          base = lv_load(base_lv, e.line);
          if (base.kind != Value::Kind::StructV &&
              base_lv.kind == LValue::Kind::Var &&
              base_lv.var.slot->v.kind == Value::Kind::Unset) {
            base = make_struct(base_lv.var.slot->type.struct_name);
            base_lv.var.slot->v = base;
          }
        }
      }
      if (base.kind != Value::Kind::StructV || !base.strct) {
        trap(DiagCategory::RuntimeFault,
             "member access on a non-struct value", e.line);
      }
      LValue lv;
      lv.kind = LValue::Kind::Field;
      lv.strct = base.strct;
      lv.field = e.text;
      return lv;
    }
    case ExprKind::Call: {
      // Kokkos view element as lvalue: v(i, j) = x.
      Found f = find_var(e.text);
      if (f.slot && f.slot->v.kind == Value::Kind::ViewV) {
        LValue lv;
        lv.kind = LValue::Kind::Cell;
        lv.cell = view_ref(f.slot->v, e);
        return lv;
      }
      break;
    }
    default:
      break;
  }
  trap(DiagCategory::RuntimeFault, "expression is not assignable", e.line);
}

Value Machine::lv_load(const LValue& lv, int line) {
  switch (lv.kind) {
    case LValue::Kind::Var: {
      Value v = read_var(lv.var);
      if (v.kind == Value::Kind::Unset) {
        result.stats.read_uninitialized = true;
        return Value::make_int(0);  // reading an uninitialized local
      }
      return v;
    }
    case LValue::Kind::Cell:
      return load_ref(lv.cell, line);
    case LValue::Kind::Field: {
      const auto it = lv.strct->fields.find(lv.field);
      if (it == lv.strct->fields.end() ||
          it->second.kind == Value::Kind::Unset) {
        result.stats.read_uninitialized = true;
        return Value::make_real(garbage_real(
            support::stable_hash(lv.field) ^
            reinterpret_cast<std::uintptr_t>(lv.strct.get())));
      }
      return it->second;
    }
    case LValue::Kind::Dim3Member: {
      const auto& d = lv.dim3_holder->dim3v;
      return Value::make_int(lv.dim3_axis == 'x'   ? d.x
                             : lv.dim3_axis == 'y' ? d.y
                                                   : d.z);
    }
  }
  return Value{};
}

void Machine::lv_store(const LValue& lv, Value v, int line) {
  switch (lv.kind) {
    case LValue::Kind::Var:
      write_var(lv.var, std::move(v));
      return;
    case LValue::Kind::Cell:
      store_ref(lv.cell, std::move(v), line);
      return;
    case LValue::Kind::Field: {
      lv.strct->fields[lv.field] = field_coerce(lv, std::move(v));
      return;
    }
    case LValue::Kind::Dim3Member: {
      auto& d = lv.dim3_holder->dim3v;
      const long long x = v.as_int();
      (lv.dim3_axis == 'x' ? d.x : lv.dim3_axis == 'y' ? d.y : d.z) = x;
      return;
    }
  }
}

Value Machine::make_struct(std::string name) {
  Value out;
  out.kind = Value::Kind::StructV;
  out.strct = std::make_shared<StructData>();
  out.strct->struct_name = std::move(name);
  return out;
}

/// A struct cell read through a pointer that is still Unset becomes an
/// empty struct in place, so `arr[i].field = x` works on fresh malloc'd
/// arrays (C's uninitialized-but-writable semantics).
Value Machine::vivify_struct_cell(const MemRef& ref0, int line) {
  const MemRef ref = resolve_space(ref0, line);
  MemBlock& b = get_block(ref.block, line);
  if (ref.offset < 0 ||
      ref.offset >= static_cast<long long>(b.cells.size())) {
    trap(DiagCategory::RuntimeFault, "buffer overflow in member access",
         line);
  }
  Value& cell = b.cells[static_cast<std::size_t>(ref.offset)];
  if (cell.kind == Value::Kind::StructV) return cell;
  if (cell.kind != Value::Kind::Unset) {
    trap(DiagCategory::RuntimeFault,
         "member access on a non-struct value", line);
  }
  cell = make_struct("");
  return cell;
}

Value Machine::field_coerce(const LValue& lv, Value v) {
  const auto sit = prog.structs.find(lv.strct->struct_name);
  if (sit != prog.structs.end()) {
    for (const auto& f : sit->second->fields) {
      if (f.name == lv.field && !f.array_size) {
        return coerce_to_type(std::move(v), f.type);
      }
    }
  }
  return v;
}

// ------------------------------------------------------- expressions --
Value Machine::eval(const Expr& e) {
  step(e.line);
  switch (e.kind) {
    case ExprKind::IntLit:
      return Value::make_int(e.int_value);
    case ExprKind::FloatLit:
      return Value::make_real(e.float_value);
    case ExprKind::StringLit:
      return Value::make_str(e.text);
    case ExprKind::CharLit:
      return Value::make_int(e.int_value);
    case ExprKind::Ident:
      return eval_ident(e);
    case ExprKind::Unary:
      return eval_unary(e);
    case ExprKind::Binary:
      return eval_binary(e);
    case ExprKind::Assign:
      return eval_assign(e);
    case ExprKind::Ternary:
      return eval(*e.kids[0]).truthy() ? eval(*e.kids[1])
                                       : eval(*e.kids[2]);
    case ExprKind::Call:
      return eval_call(e);
    case ExprKind::Index: {
      const LValue lv = resolve_lvalue(e);
      return lv_load(lv, e.line);
    }
    case ExprKind::Member:
      return eval_member_body(e);
    case ExprKind::Cast:
      return eval_cast(e);
    case ExprKind::SizeofType:
      return Value::make_int(type_size(e.type));
    case ExprKind::InitList: {
      // Materialise as a struct-like tuple; consumers unpack by order.
      Value out;
      out.kind = Value::Kind::StructV;
      out.strct = std::make_shared<StructData>();
      int idx = 0;
      for (const auto& k : e.kids) {
        out.strct->fields["#" + std::to_string(idx++)] = eval(*k);
      }
      return out;
    }
    case ExprKind::LambdaExpr:
      return eval_lambda(e);
  }
  return Value{};
}

Value Machine::eval_member_body(const Expr& e) {
  // Fast path for members of non-variable bases (blockIdx.x, ...).
  if (!e.arrow && e.kids[0]->kind == ExprKind::Ident &&
      find_var(e.kids[0]->text).slot == nullptr) {
    const Value base = eval(*e.kids[0]);
    if (base.kind == Value::Kind::Dim3V) {
      const char axis = e.text.empty() ? 'x' : e.text[0];
      const auto& d = base.dim3v;
      return Value::make_int(axis == 'x' ? d.x
                             : axis == 'y' ? d.y
                                           : d.z);
    }
    if (base.kind == Value::Kind::StructV && base.strct) {
      const auto it = base.strct->fields.find(e.text);
      if (it != base.strct->fields.end()) return it->second;
      result.stats.read_uninitialized = true;
      return Value::make_int(0);
    }
    trap(DiagCategory::RuntimeFault,
         "member access on a non-struct value", e.line);
  }
  return lv_load(resolve_lvalue(e), e.line);
}

Value Machine::eval_ident(const Expr& e) {
  return ident_value(e.text, e.line);
}

Value Machine::ident_value(const std::string& name, int line) {
  // CUDA thread coordinates.
  if (name == "threadIdx" || name == "blockIdx" ||
      name == "blockDim" || name == "gridDim") {
    Value out;
    out.kind = Value::Kind::Dim3V;
    const ExecEnv& ee = exec_envs.back();
    out.dim3v = name == "threadIdx"  ? ee.threadIdx
                : name == "blockIdx" ? ee.blockIdx
                : name == "blockDim" ? ee.blockDim
                                     : ee.gridDim;
    return out;
  }
  static const std::map<std::string, Value> kConsts = [] {
    std::map<std::string, Value> m;
    m["cudaMemcpyHostToHost"] = Value::make_int(0);
    m["cudaMemcpyHostToDevice"] = Value::make_int(1);
    m["cudaMemcpyDeviceToHost"] = Value::make_int(2);
    m["cudaMemcpyDeviceToDevice"] = Value::make_int(3);
    m["cudaSuccess"] = Value::make_int(0);
    m["RAND_MAX"] = Value::make_int(2147483647LL);
    m["INT_MAX"] = Value::make_int(2147483647LL);
    m["DBL_MAX"] = Value::make_real(1.7976931348623157e308);
    m["FLT_MAX"] = Value::make_real(3.4028234663852886e38);
    m["M_PI"] = Value::make_real(3.14159265358979323846);
    m["stderr"] = Value::make_int(2);
    m["stdout"] = Value::make_int(1);
    m["EXIT_SUCCESS"] = Value::make_int(0);
    m["EXIT_FAILURE"] = Value::make_int(1);
    m["NULL"] = Value::make_ptr(MemRef{});
    return m;
  }();
  const Found f = find_var(name);
  if (f.slot) {
    Value v = read_var(f);
    if (v.kind == Value::Kind::Unset) {
      result.stats.read_uninitialized = true;
      return Value::make_int(0);
    }
    return v;
  }
  const auto c = kConsts.find(name);
  if (c != kConsts.end()) return c->second;
  trap(DiagCategory::UndeclaredIdentifier,
       "use of undeclared identifier '" + name + "'", line);
}

Value Machine::load_deref(const Value& p, int line) {
  if (p.kind == Value::Kind::Ref && p.ref != nullptr) {
    if (p.ref->v.kind == Value::Kind::Unset) {
      result.stats.read_uninitialized = true;
      return Value::make_int(0);
    }
    return p.ref->v;
  }
  if (p.kind != Value::Kind::Ptr) {
    trap(DiagCategory::RuntimeFault,
         "indirection through a non-pointer value", line);
  }
  return load_ref(p.ptr, line);
}

Value Machine::incdec_apply(const LValue& lv, long long delta, bool postfix,
                            int line) {
  Value cur = lv_load(lv, line);
  Value next;
  if (cur.kind == Value::Kind::Ptr) {
    next = cur;
    next.ptr.offset += delta;
  } else if (cur.kind == Value::Kind::Real) {
    next = Value::make_real(cur.d + static_cast<double>(delta));
  } else {
    next = Value::make_int(cur.as_int() + delta);
  }
  lv_store(lv, next, line);
  return postfix ? cur : next;
}

Value Machine::eval_unary(const Expr& e) {
  const std::string& op = e.text;
  if (op == "++" || op == "--") {
    const LValue lv = resolve_lvalue(*e.kids[0]);
    return incdec_apply(lv, op == "++" ? 1 : -1, e.postfix, e.line);
  }
  if (op == "*") {
    const Value p = eval(*e.kids[0]);
    return load_deref(p, e.line);
  }
  if (op == "&") {
    // &var -> transient reference for out-parameters; &arr[i] -> pointer.
    if (e.kids[0]->kind == ExprKind::Ident) {
      Found f = find_var(e.kids[0]->text);
      if (!f.slot) {
        trap(DiagCategory::UndeclaredIdentifier,
             "use of undeclared identifier '" + e.kids[0]->text + "'",
             e.line);
      }
      Value out;
      out.kind = Value::Kind::Ref;
      out.ref = f.slot;
      return out;
    }
    const LValue lv = resolve_lvalue(*e.kids[0]);
    if (lv.kind == LValue::Kind::Cell) {
      return Value::make_ptr(lv.cell);
    }
    trap(DiagCategory::RuntimeFault,
         "cannot take the address of this expression", e.line);
  }
  const Value v = eval(*e.kids[0]);
  if (op == "-") {
    if (v.kind == Value::Kind::Real) return Value::make_real(-v.d);
    return Value::make_int(-v.as_int());
  }
  if (op == "!") return Value::make_int(v.truthy() ? 0 : 1);
  if (op == "~") return Value::make_int(~v.as_int());
  trap(DiagCategory::RuntimeFault, "unsupported unary operator " + op,
       e.line);
}

Value Machine::eval_binary(const Expr& e) {
  const std::string& op = e.text;
  if (op == "&&") {
    return Value::make_int(
        eval(*e.kids[0]).truthy() && eval(*e.kids[1]).truthy() ? 1 : 0);
  }
  if (op == "||") {
    return Value::make_int(
        eval(*e.kids[0]).truthy() || eval(*e.kids[1]).truthy() ? 1 : 0);
  }
  const Value a = eval(*e.kids[0]);
  const Value b = eval(*e.kids[1]);
  const auto bop = binop_from_text(op);
  if (!bop) {
    if (a.kind == Value::Kind::Ptr || b.kind == Value::Kind::Ptr) {
      trap(DiagCategory::RuntimeFault,
           "invalid pointer operands to binary '" + op + "'", e.line);
    }
    if (a.kind == Value::Kind::Real || b.kind == Value::Kind::Real) {
      trap(DiagCategory::RuntimeFault,
           "invalid operands of type double to binary '" + op + "'", e.line);
    }
    trap(DiagCategory::RuntimeFault, "unsupported binary operator " + op,
         e.line);
  }
  return apply_binop(*bop, a, b, e.line);
}

Value Machine::apply_binop(BinOp op, const Value& a, const Value& b,
                           int line) {
  // Pointer arithmetic & comparisons.
  if (a.kind == Value::Kind::Ptr || b.kind == Value::Kind::Ptr) {
    return apply_ptr_binop(op, a, b, line);
  }
  const bool real = a.kind == Value::Kind::Real ||
                    b.kind == Value::Kind::Real;
  if (op == BinOp::Eq || op == BinOp::Ne || op == BinOp::Lt ||
      op == BinOp::Gt || op == BinOp::Le || op == BinOp::Ge) {
    bool r;
    if (real) {
      const double x = a.as_real(), y = b.as_real();
      r = op == BinOp::Eq ? x == y
          : op == BinOp::Ne ? x != y
          : op == BinOp::Lt ? x < y
          : op == BinOp::Gt ? x > y
          : op == BinOp::Le ? x <= y
                            : x >= y;
    } else {
      const long long x = a.as_int(), y = b.as_int();
      r = op == BinOp::Eq ? x == y
          : op == BinOp::Ne ? x != y
          : op == BinOp::Lt ? x < y
          : op == BinOp::Gt ? x > y
          : op == BinOp::Le ? x <= y
                            : x >= y;
    }
    return Value::make_int(r ? 1 : 0);
  }
  if (real) {
    const double x = a.as_real(), y = b.as_real();
    switch (op) {
      case BinOp::Add: return Value::make_real(x + y);
      case BinOp::Sub: return Value::make_real(x - y);
      case BinOp::Mul: return Value::make_real(x * y);
      case BinOp::Div: return Value::make_real(x / y);
      case BinOp::Mod: return Value::make_real(std::fmod(x, y));
      default:
        trap(DiagCategory::RuntimeFault,
             "invalid operands of type double to binary '" +
                 std::string(binop_text(op)) + "'",
             line);
    }
  }
  const long long x = a.as_int(), y = b.as_int();
  // Wrapping two's-complement arithmetic (the RNG streams rely on it).
  const auto ux = static_cast<unsigned long long>(x);
  const auto uy = static_cast<unsigned long long>(y);
  switch (op) {
    case BinOp::Add: return Value::make_int(static_cast<long long>(ux + uy));
    case BinOp::Sub: return Value::make_int(static_cast<long long>(ux - uy));
    case BinOp::Mul: return Value::make_int(static_cast<long long>(ux * uy));
    case BinOp::Div:
    case BinOp::Mod:
      if (y == 0) {
        trap(DiagCategory::RuntimeFault, "integer division by zero", line);
      }
      return Value::make_int(op == BinOp::Div ? x / y : x % y);
    case BinOp::Shl: return Value::make_int(x << (y & 63));
    case BinOp::Shr: return Value::make_int(x >> (y & 63));
    case BinOp::BAnd: return Value::make_int(x & y);
    case BinOp::BOr: return Value::make_int(x | y);
    case BinOp::BXor: return Value::make_int(x ^ y);
    default:
      trap(DiagCategory::RuntimeFault,
           "unsupported binary operator " + std::string(binop_text(op)),
           line);
  }
}

Value Machine::apply_ptr_binop(BinOp op, const Value& a, const Value& b,
                               int line) {
  auto as_ptr = [](const Value& v) { return v.ptr; };
  if (op == BinOp::Eq || op == BinOp::Ne) {
    bool eq;
    if (a.kind == Value::Kind::Ptr && b.kind == Value::Kind::Ptr) {
      eq = a.ptr.block == b.ptr.block && a.ptr.offset == b.ptr.offset;
    } else {
      const Value& p = a.kind == Value::Kind::Ptr ? a : b;
      const Value& n = a.kind == Value::Kind::Ptr ? b : a;
      eq = (p.ptr.block < 0) && n.as_int() == 0;
    }
    return Value::make_int((op == BinOp::Eq) == eq ? 1 : 0);
  }
  if (a.kind == Value::Kind::Ptr && b.is_numeric() &&
      (op == BinOp::Add || op == BinOp::Sub)) {
    Value out = a;
    out.ptr.offset += (op == BinOp::Add ? 1 : -1) * b.as_int();
    return out;
  }
  if (b.kind == Value::Kind::Ptr && a.is_numeric() && op == BinOp::Add) {
    Value out = b;
    out.ptr.offset += a.as_int();
    return out;
  }
  if (a.kind == Value::Kind::Ptr && b.kind == Value::Kind::Ptr &&
      op == BinOp::Sub) {
    if (a.ptr.block != b.ptr.block) {
      trap(DiagCategory::RuntimeFault,
           "subtraction of pointers into different allocations", line);
    }
    return Value::make_int(a.ptr.offset - b.ptr.offset);
  }
  if (op == BinOp::Lt || op == BinOp::Gt || op == BinOp::Le ||
      op == BinOp::Ge) {
    const long long x = as_ptr(a).offset, y = as_ptr(b).offset;
    const bool r = op == BinOp::Lt ? x < y
                   : op == BinOp::Gt ? x > y
                   : op == BinOp::Le ? x <= y
                                     : x >= y;
    return Value::make_int(r ? 1 : 0);
  }
  trap(DiagCategory::RuntimeFault,
       "invalid pointer operands to binary '" +
           std::string(binop_text(op)) + "'",
       line);
}

Value Machine::compound_combine(BinOp op, const Value& cur, const Value& rhs,
                                int line) {
  if (cur.kind == Value::Kind::Ptr) {
    return apply_ptr_binop(op, cur, rhs, line);
  }
  if (cur.kind == Value::Kind::Real || rhs.kind == Value::Kind::Real) {
    const double x = cur.as_real(), y = rhs.as_real();
    double r = 0;
    switch (op) {
      case BinOp::Add: r = x + y; break;
      case BinOp::Sub: r = x - y; break;
      case BinOp::Mul: r = x * y; break;
      case BinOp::Div: r = x / y; break;
      default:
        trap(DiagCategory::RuntimeFault,
             "invalid compound assignment on double", line);
    }
    return Value::make_real(r);
  }
  // Compound integer arithmetic is signed (unlike apply_binop's wrapping
  // unsigned + - *); this mirrors the original interpreter exactly.
  const long long x = cur.as_int(), y = rhs.as_int();
  long long r = 0;
  switch (op) {
    case BinOp::Add: r = x + y; break;
    case BinOp::Sub: r = x - y; break;
    case BinOp::Mul: r = x * y; break;
    case BinOp::Div:
      if (y == 0) {
        trap(DiagCategory::RuntimeFault, "integer division by zero", line);
      }
      r = x / y;
      break;
    case BinOp::Mod:
      if (y == 0) {
        trap(DiagCategory::RuntimeFault, "integer division by zero", line);
      }
      r = x % y;
      break;
    case BinOp::BAnd: r = x & y; break;
    case BinOp::BOr: r = x | y; break;
    case BinOp::BXor: r = x ^ y; break;
    case BinOp::Shl: r = x << (y & 63); break;
    case BinOp::Shr: r = x >> (y & 63); break;
    default: break;  // comparisons never appear in compound form
  }
  return Value::make_int(r);
}

Value Machine::eval_assign(const Expr& e) {
  const LValue lv = resolve_lvalue(*e.kids[0]);
  Value rhs = eval(*e.kids[1]);
  if (e.text != "=") {
    // Compound: load, apply, store.
    const Value cur = lv_load(lv, e.line);
    const std::string op = e.text.substr(0, e.text.size() - 1);
    const auto bop = binop_from_text(op);
    if (!bop) {
      trap(DiagCategory::RuntimeFault, "unsupported binary operator " + op,
           e.line);
    }
    rhs = compound_combine(*bop, cur, rhs, e.line);
  }
  lv_store(lv, rhs, e.line);
  return rhs;
}

Value Machine::eval_cast(const Expr& e) {
  return cast_value(eval(*e.kids[0]), e.type, e.line);
}

Value Machine::cast_value(Value v, const Type& t, int line) {
  if (t.is_pointer()) {
    if (v.kind == Value::Kind::Ptr) {
      // Retype the pointee: adjusts malloc'd blocks before first use.
      MemRef ref = v.ptr;
      const int new_size = type_size(t.pointee());
      if (ref.block >= 0) {
        MemBlock& b = memory[static_cast<std::size_t>(ref.block)];
        if (b.elem_size == 1 && new_size > 1 && ref.offset == 0) {
          const long long bytes = static_cast<long long>(b.cells.size());
          b.cells.assign(static_cast<std::size_t>(bytes / new_size),
                         Value{});
          b.elem_size = new_size;
        }
      }
      ref.elem_size = new_size;
      ref.elem_base = t.pointee().ptr_depth > 0 ? BaseType::SizeT
                                                : t.pointee().base;
      return Value::make_ptr(ref);
    }
    if (v.is_numeric() && v.as_int() == 0) return Value::make_ptr(MemRef{});
    if (v.kind == Value::Kind::Ref) return v;  // (void**)&p
    if (v.kind == Value::Kind::Str) return v;
    trap(DiagCategory::RuntimeFault,
         "invalid cast of non-pointer value to '" + t.to_string() + "'",
         line);
  }
  if (t.is_numeric()) {
    if (v.kind == Value::Kind::Ptr) {
      return Value::make_int(v.ptr.block * 1000003LL + v.ptr.offset);
    }
    return coerce_to_base(std::move(v), t.base);
  }
  return v;
}

Value Machine::eval_lambda(const Expr& e) {
  Value out;
  out.kind = Value::Kind::LambdaV;
  out.lambda = std::make_shared<Closure>();
  out.lambda->params = e.lambda_params;
  out.lambda->body = e.lambda_body.get();
  // Capture by value: flatten the current frame's scopes + globals.
  for (const auto& [name, slot] : globals) {
    out.lambda->captured[name] = slot.v.clone();
  }
  for (const auto& scope : frames.back().scopes) {
    for (const auto& [name, slot] : scope.vars) {
      out.lambda->captured[name] = slot.v.clone();
    }
  }
  return out;
}

// -------------------------------------------------------------- calls --
MemRef Machine::view_ref(const Value& view_val, const Expr& call) {
  const ViewData& vd = *view_val.view;
  if (static_cast<int>(call.kids.size()) != vd.rank) {
    trap(DiagCategory::RuntimeFault,
         "Kokkos::View '" + vd.label + "' of rank " +
             std::to_string(vd.rank) + " indexed with " +
             std::to_string(call.kids.size()) + " subscripts",
         call.line);
  }
  long long idx[3] = {0, 0, 0};
  for (std::size_t i = 0; i < call.kids.size(); ++i) {
    idx[i] = eval(*call.kids[i]).as_int();
    if (idx[i] < 0 || idx[i] >= vd.extent[i]) {
      trap(DiagCategory::RuntimeFault,
           "Kokkos::View '" + vd.label + "' index " +
               std::to_string(idx[i]) + " out of extent " +
               std::to_string(vd.extent[i]),
           call.line);
    }
  }
  long long linear = idx[0];
  for (int d = 1; d < vd.rank; ++d) linear = linear * vd.extent[d] + idx[d];
  MemRef ref;
  ref.block = vd.block;
  ref.offset = linear;
  ref.elem_size = base_type_size(vd.elem);
  ref.elem_base = vd.elem;
  return ref;
}

bool Machine::try_call_var(const Expr& e, Value* out) {
  const Found f = find_var(e.text);
  if (f.slot && f.slot->v.kind == Value::Kind::ViewV) {
    *out = load_ref(view_ref(read_var(f), e), e.line);
    return true;
  }
  if (f.slot && f.slot->v.kind == Value::Kind::LambdaV) {
    // Calling a lambda variable directly (rare; host functor).
    std::vector<Value> args;
    for (const auto& k : e.kids) args.push_back(eval(*k));
    call_closure(read_var(f), std::move(args), {}, device_ctx(), e.line);
    *out = Value{};
    return true;
  }
  return false;
}

Value Machine::eval_call(const Expr& e) {
  // View indexing or a direct lambda-variable call?
  {
    Value v;
    if (try_call_var(e, &v)) return v;
  }

  // User function?
  const auto fit = prog.functions.find(e.text);
  if (fit != prog.functions.end()) {
    const FunctionDecl& fn = *fit->second;
    if (e.launch_grid) return launch_kernel(fn, e);
    std::vector<Value> args;
    args.reserve(e.kids.size());
    for (const auto& k : e.kids) args.push_back(eval(*k));
    return call_function(fn, std::move(args), e.line);
  }

  // Builtin?
  const BuiltinDef* b = builtins.find(e.text);
  if (b != nullptr && b->impl) {
    std::vector<Value> args;
    args.reserve(e.kids.size());
    for (std::size_t i = 0; i < e.kids.size(); ++i) {
      const bool wants_ref = i < b->arg_classes.size() &&
                             b->arg_classes[i] == ArgClass::PtrOut &&
                             e.kids[i]->kind == ExprKind::Ident;
      if (wants_ref) {
        Found f = find_var(e.kids[i]->text);
        if (f.slot) {
          Value r;
          r.kind = Value::Kind::Ref;
          r.ref = f.slot;
          args.push_back(r);
          continue;
        }
      }
      args.push_back(eval(*e.kids[i]));
    }
    return b->impl(*this, args, e.line);
  }

  trap(DiagCategory::UndeclaredIdentifier,
       "call to undeclared function '" + e.text + "'", e.line);
}

Value Machine::call_function(const FunctionDecl& fn, std::vector<Value> args,
                             int line) {
  if (frames.size() > 200) {
    trap(DiagCategory::RuntimeFault,
         "stack overflow (call depth exceeded) in '" + fn.name + "'", line);
  }
  if (args.size() != fn.params.size()) {
    trap(DiagCategory::RuntimeFault,
         "call to '" + fn.name + "' with wrong number of arguments", line);
  }
  frames.emplace_back();
  frames.back().scopes.push_back(Scope{next_scope_id++, {}});
  for (std::size_t i = 0; i < args.size(); ++i) {
    VarSlot slot;
    slot.type = fn.params[i].type;
    slot.v = coerce_to_type(std::move(args[i]), slot.type);
    declare(fn.params[i].name, std::move(slot));
  }
  const Flow f = run_function_body(fn);
  frames.pop_back();
  if (f != Flow::Return) return Value{};
  return coerce_to_type(std::move(ret_value), fn.return_type);
}

Flow Machine::run_function_body(const FunctionDecl& fn) {
  return exec(*fn.body);
}

Flow Machine::run_lambda_body(const Stmt& body) { return exec(body); }

Value Machine::launch_kernel(const FunctionDecl& fn, const Expr& e) {
  auto as_dim3 = [&](const Expr& cfg) -> Value::Dim3 {
    const Value v = eval(cfg);
    if (v.kind == Value::Kind::Dim3V) return v.dim3v;
    return Value::Dim3{v.as_int(), 1, 1};
  };
  const Value::Dim3 grid = as_dim3(*e.launch_grid);
  const Value::Dim3 block = as_dim3(*e.launch_block);
  const long long total = grid.x * grid.y * grid.z * block.x * block.y *
                          block.z;
  if (total <= 0) {
    trap(DiagCategory::RuntimeFault,
         "kernel launch with empty grid or block", e.line);
  }
  std::vector<Value> args;
  args.reserve(e.kids.size());
  for (const auto& k : e.kids) args.push_back(eval(*k));

  result.stats.device_kernel_launches++;
  ExecEnv dev;
  dev.device = true;
  dev.gridDim = grid;
  dev.blockDim = block;
  for (long long bz = 0; bz < grid.z; ++bz)
    for (long long by = 0; by < grid.y; ++by)
      for (long long bx = 0; bx < grid.x; ++bx)
        for (long long tz = 0; tz < block.z; ++tz)
          for (long long ty = 0; ty < block.y; ++ty)
            for (long long tx = 0; tx < block.x; ++tx) {
              dev.blockIdx = {bx, by, bz};
              dev.threadIdx = {tx, ty, tz};
              exec_envs.push_back(dev);
              std::vector<Value> per_thread = args;
              call_function(fn, std::move(per_thread), e.line);
              exec_envs.pop_back();
            }
  return Value{};
}

// --------------------------------------------------------- statements --
Flow Machine::exec(const Stmt& s) {
  step(s.line);
  switch (s.kind) {
    case StmtKind::Block: {
      push_scope();
      Flow f = Flow::Next;
      for (const auto& child : s.body) {
        f = exec(*child);
        if (f != Flow::Next) break;
      }
      pop_scope();
      return f;
    }
    case StmtKind::ExprStmt:
      if (s.expr) eval(*s.expr);
      return Flow::Next;
    case StmtKind::Decl:
      for (const auto& v : s.decls) exec_decl(v);
      return Flow::Next;
    case StmtKind::If:
      if (eval(*s.expr).truthy()) return exec(*s.then_branch);
      return s.else_branch ? exec(*s.else_branch) : Flow::Next;
    case StmtKind::For:
      return exec_for(s);
    case StmtKind::While:
      while (eval(*s.expr).truthy()) {
        const Flow f = exec(*s.loop_body);
        if (f == Flow::Break) break;
        if (f == Flow::Return) return f;
      }
      return Flow::Next;
    case StmtKind::DoWhile:
      do {
        const Flow f = exec(*s.loop_body);
        if (f == Flow::Break) break;
        if (f == Flow::Return) return f;
      } while (eval(*s.expr).truthy());
      return Flow::Next;
    case StmtKind::Return:
      ret_value = s.expr ? eval(*s.expr) : Value{};
      return Flow::Return;
    case StmtKind::Break:
      return Flow::Break;
    case StmtKind::Continue:
      return Flow::Continue;
    case StmtKind::Omp:
      return exec_omp(s);
  }
  return Flow::Next;
}

Flow Machine::exec_for(const Stmt& s) {
  push_scope();
  Flow out = Flow::Next;
  if (s.for_init) exec(*s.for_init);
  while (!s.expr || eval(*s.expr).truthy()) {
    const Flow f = exec(*s.loop_body);
    if (f == Flow::Break) break;
    if (f == Flow::Return) {
      out = f;
      break;
    }
    if (s.for_inc) eval(*s.for_inc);
  }
  pop_scope();
  return out;
}

void Machine::declare_array(const VarDecl& v, long long n) {
  VarSlot slot;
  slot.type = v.type.pointer_to();
  const MemSpace space = device_ctx() ? MemSpace::Device : MemSpace::Host;
  const int blk = do_alloc(space, n, type_size(v.type),
                           "array '" + v.name + "'", v.line);
  MemRef ref;
  ref.block = blk;
  ref.elem_size = type_size(v.type);
  ref.elem_base = v.type.ptr_depth > 0 ? BaseType::SizeT : v.type.base;
  slot.v = Value::make_ptr(ref);
  if (v.init && v.init->kind == ExprKind::InitList) {
    for (std::size_t i = 0; i < v.init->kids.size(); ++i) {
      store_ref(MemRef{blk, static_cast<long long>(i), ref.elem_size,
                       ref.elem_base},
                eval(*v.init->kids[i]), v.line);
    }
  }
  declare(v.name, std::move(slot));
}

void Machine::exec_decl(const VarDecl& v) {
  VarSlot slot;
  slot.type = v.array_size ? v.type.pointer_to() : v.type;

  if (v.array_size) {
    declare_array(v, eval(*v.array_size).as_int());
    return;
  }

  if (v.type.base == BaseType::View) {
    if (!v.ctor_args.empty()) {
      // View("label", n [, m [, k]])
      ViewData vd;
      vd.elem = v.type.view_elem;
      vd.elem_struct = v.type.view_struct_name;
      vd.rank = v.type.view_rank;
      const Value label = eval(*v.ctor_args[0]);
      vd.label = label.kind == Value::Kind::Str ? label.s : v.name;
      for (int d = 0; d < vd.rank &&
                      d + 1 < static_cast<int>(v.ctor_args.size());
           ++d) {
        vd.extent[d] = eval(*v.ctor_args[static_cast<std::size_t>(d) + 1])
                           .as_int();
      }
      vd.block = do_alloc(MemSpace::Device, vd.size(),
                          base_type_size(vd.elem),
                          "Kokkos::View '" + vd.label + "'", v.line);
      // Kokkos views are zero-initialised (struct cells stay Unset
      // and are vivified on first member write).
      if (vd.elem != BaseType::Struct) {
        MemBlock& b = memory[static_cast<std::size_t>(vd.block)];
        for (auto& cell : b.cells) {
          cell = vd.elem == BaseType::Float || vd.elem == BaseType::Double
                     ? Value::make_real(0.0)
                     : Value::make_int(0);
        }
      }
      Value out;
      out.kind = Value::Kind::ViewV;
      out.view = std::make_shared<ViewData>(vd);
      slot.v = std::move(out);
    } else if (v.init) {
      slot.v = eval(*v.init);
    }
    declare(v.name, std::move(slot));
    return;
  }

  if (v.type.base == BaseType::Dim3) {
    Value out;
    out.kind = Value::Kind::Dim3V;
    long long dims[3] = {1, 1, 1};
    for (std::size_t i = 0; i < v.ctor_args.size() && i < 3; ++i) {
      dims[i] = eval(*v.ctor_args[i]).as_int();
    }
    if (v.init) dims[0] = eval(*v.init).as_int();
    out.dim3v = {dims[0], dims[1], dims[2]};
    slot.v = std::move(out);
    declare(v.name, std::move(slot));
    return;
  }

  if (v.type.base == BaseType::Struct ||
      v.type.base == BaseType::CurandState) {
    if (!v.type.is_pointer() && v.init &&
        v.init->kind == ExprKind::InitList) {
      Value out;
      out.kind = Value::Kind::StructV;
      out.strct = std::make_shared<StructData>();
      out.strct->struct_name = v.type.base == BaseType::CurandState
                                   ? "curandState"
                                   : v.type.struct_name;
      const auto sit = prog.structs.find(v.type.struct_name);
      if (sit != prog.structs.end()) {
        const auto& fields = sit->second->fields;
        for (std::size_t i = 0;
             i < v.init->kids.size() && i < fields.size(); ++i) {
          out.strct->fields[fields[i].name] =
              coerce_to_type(eval(*v.init->kids[i]), fields[i].type);
        }
      }
      slot.v = std::move(out);
      declare(v.name, std::move(slot));
      return;
    }
    Value init;
    const bool has_init = v.init != nullptr;
    if (has_init) init = eval(*v.init);
    declare_struct(v, has_init ? &init : nullptr);
    return;
  }

  if (v.init) {
    slot.v = coerce_to_type(eval(*v.init), slot.type);
  }
  declare(v.name, std::move(slot));
}

void Machine::declare_struct(const VarDecl& v, Value* init) {
  VarSlot slot;
  slot.type = v.type;
  if (v.type.is_pointer()) {
    if (init != nullptr) {
      slot.v = coerce_to_type(std::move(*init), slot.type);
    }
    declare(v.name, std::move(slot));
    return;
  }
  Value out;
  out.kind = Value::Kind::StructV;
  out.strct = std::make_shared<StructData>();
  out.strct->struct_name = v.type.base == BaseType::CurandState
                               ? "curandState"
                               : v.type.struct_name;
  if (init != nullptr) out = init->clone();
  slot.v = std::move(out);
  declare(v.name, std::move(slot));
}

// ------------------------------------------------------------ OpenMP --
Flow Machine::exec_omp(const Stmt& s) {
  if (!s.omp) {
    // OpenMP disabled at build time: pragma was ignored.
    return s.omp_body ? exec(*s.omp_body) : Flow::Next;
  }
  const OmpDirective& d = *s.omp;
  if (d.has(OmpConstruct::Barrier) || d.has(OmpConstruct::Declare) ||
      d.has(OmpConstruct::End)) {
    return Flow::Next;
  }
  if (d.has(OmpConstruct::TargetUpdate)) {
    exec_target_update(d, s.line);
    return Flow::Next;
  }
  if (d.has(OmpConstruct::TargetEnterData)) {
    enter_data_env(data_envs.front(), d, s.line, /*entering=*/true);
    return Flow::Next;
  }
  if (d.has(OmpConstruct::TargetExitData)) {
    exit_unstructured(d, s.line);
    return Flow::Next;
  }
  if (d.has(OmpConstruct::TargetData)) return exec_target_data(s, d);
  if (d.has(OmpConstruct::Target)) return exec_target(s, d);
  // Host constructs: parallel / for / simd / single / critical / atomic.
  if (d.has(OmpConstruct::Parallel) || d.has(OmpConstruct::For) ||
      d.has(OmpConstruct::Simd)) {
    result.stats.host_parallel_regions++;
  }
  return s.omp_body ? exec(*s.omp_body) : Flow::Next;
}

void Machine::enter_data_env(DataEnv& env_entry, const OmpDirective& d,
                             int line, bool entering) {
  for (const auto& clause : d.clauses) {
    if (clause.name != "map") continue;
    const OmpMapType mt = clause.map_type.value_or(OmpMapType::ToFrom);
    for (const auto& var : clause.vars) {
      const Found f = find_var(var);
      if (!f.slot) {
        trap(DiagCategory::UndeclaredIdentifier,
             "use of undeclared identifier '" + var + "' in map clause",
             line);
      }
      if (f.slot->v.kind != Value::Kind::Ptr) continue;  // scalar map
      const int host_block = f.slot->v.ptr.block;
      if (host_block < 0) continue;
      // Already present anywhere? Then reuse, no copies (present table).
      bool present = false;
      for (const auto& de : data_envs) {
        if (de.shadow.count(host_block) > 0) present = true;
      }
      if (env_entry.shadow.count(host_block) > 0) present = true;
      if (present) continue;
      // Copy the block's shape out before do_alloc: growing `memory`
      // invalidates references into it.
      long long host_cells;
      int host_elem;
      std::string host_origin;
      {
        MemBlock& hb = get_block(host_block, line);
        if (hb.space == MemSpace::Device) {
          trap(DiagCategory::RuntimeFault,
               "map clause variable '" + var + "' is already device memory",
               line);
        }
        host_cells = static_cast<long long>(hb.cells.size());
        host_elem = hb.elem_size;
        host_origin = hb.origin;
      }
      const int dev_block =
          do_alloc(MemSpace::Device, host_cells, host_elem,
                   "device shadow of " + host_origin, line);
      env_entry.shadow[host_block] = dev_block;
      if (entering &&
          (mt == OmpMapType::To || mt == OmpMapType::ToFrom)) {
        raw_copy(dev_block, 0, host_block, 0, host_cells, line);
        result.stats.h2d_copies++;
      }
      ExitAction ea;
      ea.host_block = host_block;
      ea.dev_block = dev_block;
      ea.copy_back = mt == OmpMapType::From || mt == OmpMapType::ToFrom;
      env_entry.exits.push_back(ea);
    }
  }
}

void Machine::leave_data_env(int line) {
  DataEnv env_exit = std::move(data_envs.back());
  data_envs.pop_back();
  for (const auto& ea : env_exit.exits) {
    if (ea.copy_back) {
      MemBlock& db = get_block(ea.dev_block, line);
      raw_copy(ea.host_block, 0, ea.dev_block, 0,
               static_cast<long long>(db.cells.size()), line);
      result.stats.d2h_copies++;
    }
    memory[static_cast<std::size_t>(ea.dev_block)].freed = true;
  }
}

void Machine::exit_unstructured(const OmpDirective& d, int line) {
  DataEnv& root = data_envs.front();
  for (const auto& clause : d.clauses) {
    if (clause.name != "map") continue;
    const OmpMapType mt = clause.map_type.value_or(OmpMapType::From);
    for (const auto& var : clause.vars) {
      const Found f = find_var(var);
      if (!f.slot || f.slot->v.kind != Value::Kind::Ptr) continue;
      const int host_block = f.slot->v.ptr.block;
      const auto hit = root.shadow.find(host_block);
      if (hit == root.shadow.end()) continue;
      if (mt == OmpMapType::From || mt == OmpMapType::ToFrom) {
        MemBlock& db = get_block(hit->second, line);
        raw_copy(host_block, 0, hit->second, 0,
                 static_cast<long long>(db.cells.size()), line);
        result.stats.d2h_copies++;
      }
      memory[static_cast<std::size_t>(hit->second)].freed = true;
      root.shadow.erase(hit);
    }
  }
}

void Machine::exec_target_update(const OmpDirective& d, int line) {
  for (const auto& clause : d.clauses) {
    const bool to = clause.name == "to";
    const bool from = clause.name == "from";
    if (!to && !from) continue;
    for (const auto& var : clause.vars) {
      const Found f = find_var(var);
      if (!f.slot || f.slot->v.kind != Value::Kind::Ptr) continue;
      const int host_block = f.slot->v.ptr.block;
      int dev_block = -1;
      for (auto it = data_envs.rbegin(); it != data_envs.rend(); ++it) {
        const auto hit = it->shadow.find(host_block);
        if (hit != it->shadow.end()) {
          dev_block = hit->second;
          break;
        }
      }
      if (dev_block < 0) continue;  // not present: no-op per spec
      MemBlock& hb = get_block(host_block, line);
      if (to) {
        raw_copy(dev_block, 0, host_block, 0,
                 static_cast<long long>(hb.cells.size()), line);
        result.stats.h2d_copies++;
      } else {
        raw_copy(host_block, 0, dev_block, 0,
                 static_cast<long long>(hb.cells.size()), line);
        result.stats.d2h_copies++;
      }
    }
  }
}

Flow Machine::run_omp_body(const Stmt& s, const Chunk* region) {
  if (region == nullptr) return s.omp_body ? exec(*s.omp_body) : Flow::Next;
  // A compiled region left early has not popped its block scopes.
  const std::size_t base = frames.back().scopes.size();
  const Flow f = execute(*region);
  while (frames.back().scopes.size() > base) pop_scope();
  return f;
}

// The catch-all handlers below are the only ones left in the machine: a
// trap or exit() ends the run, but the region's exit bookkeeping still
// runs on the way out, so RunStats count its copy-back (d2h_copies).
Flow Machine::exec_target_data(const Stmt& s, const OmpDirective& d,
                               const Chunk* region) {
  DataEnv env_entry;
  enter_data_env(env_entry, d, s.line, true);
  data_envs.push_back(std::move(env_entry));
  Flow f = Flow::Next;
  try {
    f = run_omp_body(s, region);
  } catch (...) {
    leave_data_env(s.line);
    throw;
  }
  leave_data_env(s.line);
  return f;
}

Flow Machine::exec_target(const Stmt& s, const OmpDirective& d,
                          const Chunk* region) {
  if (!prog.caps.offload) {
    // Host fallback: no device data environment, loop runs on the host.
    result.stats.host_parallel_regions++;
    return run_omp_body(s, region);
  }
  result.stats.target_regions++;

  DataEnv env_entry;
  enter_data_env(env_entry, d, s.line, true);
  data_envs.push_back(std::move(env_entry));

  ScalarShadow shadow;
  shadow.boundary_scope_id = next_scope_id;
  // Scalars listed in map/reduction clauses are written back at exit.
  for (const auto& clause : d.clauses) {
    if (clause.name != "map" && clause.name != "reduction") continue;
    for (const auto& var : clause.vars) {
      const Found f = find_var(var);
      if (f.slot && f.slot->v.kind != Value::Kind::Ptr &&
          f.slot->v.kind != Value::Kind::ViewV) {
        shadow.writeback.insert(f.slot);
      }
    }
  }
  scalar_shadows.push_back(std::move(shadow));

  ExecEnv dev;
  dev.device = true;
  exec_envs.push_back(dev);
  result.stats.device_kernel_launches++;

  Flow f = Flow::Next;
  try {
    f = run_omp_body(s, region);
  } catch (...) {
    finish_target(s.line);
    throw;
  }
  finish_target(s.line);
  return f;
}

void Machine::finish_target(int line) {
  exec_envs.pop_back();
  ScalarShadow shadow = std::move(scalar_shadows.back());
  scalar_shadows.pop_back();
  for (VarSlot* slot : shadow.writeback) {
    const auto hit = shadow.values.find(slot);
    if (hit != shadow.values.end()) {
      slot->v = coerce_to_type(hit->second, slot->type);
    }
  }
  leave_data_env(line);
}

/// Unchecked cell copy (cudaMemcpy / map transfers).
void Machine::raw_copy(int dst_block, long long dst_off, int src_block,
                       long long src_off, long long count, int line) {
  MemBlock& dst = get_block(dst_block, line);
  MemBlock& src = get_block(src_block, line);
  if (dst_off < 0 || src_off < 0 ||
      dst_off + count > static_cast<long long>(dst.cells.size()) ||
      src_off + count > static_cast<long long>(src.cells.size())) {
    trap(DiagCategory::RuntimeFault,
         "memory copy out of bounds (dst " + dst.origin + ", src " +
             src.origin + ")",
         line);
  }
  for (long long i = 0; i < count; ++i) {
    dst.cells[static_cast<std::size_t>(dst_off + i)] =
        src.cells[static_cast<std::size_t>(src_off + i)].clone();
  }
}

// --------------------------------------------------------------- run --
RunResult Machine::run(const std::vector<std::string>& args) {
  try {
    frames.emplace_back();
    frames.back().scopes.push_back(Scope{0, {}});

    // Globals.
    for (const GlobalVarDecl* g : prog.globals) {
      exec_global(*g);
    }

    const auto mit = prog.functions.find("main");
    if (mit == prog.functions.end()) {
      trap(DiagCategory::LinkError, "undefined reference to 'main'", 0);
    }
    const FunctionDecl& mainfn = *mit->second;
    std::vector<Value> margs;
    if (mainfn.params.size() == 2) {
      const int argv_block = do_alloc(
          MemSpace::Host, static_cast<long long>(args.size()) + 1, 8,
          "argv", 0);
      MemBlock& b = memory[static_cast<std::size_t>(argv_block)];
      b.cells[0] = Value::make_str("app");
      for (std::size_t i = 0; i < args.size(); ++i) {
        b.cells[i + 1] = Value::make_str(args[i]);
      }
      margs.push_back(Value::make_int(static_cast<long long>(args.size()) + 1));
      MemRef argv_ref;
      argv_ref.block = argv_block;
      argv_ref.elem_size = 8;
      argv_ref.elem_base = BaseType::Char;
      margs.push_back(Value::make_ptr(argv_ref));
    }
    const Value ret = call_function(mainfn, std::move(margs), 0);
    result.exit_code = static_cast<int>(ret.as_int());
    result.ok = result.exit_code == 0;
  } catch (ExitSig& ex) {
    result.exit_code = ex.code;
    result.ok = ex.code == 0;
  } catch (TrapSig& trap_sig) {
    result.ok = false;
    result.exit_code = 139;
    result.diags.add(trap_sig.d);
    result.stderr_text += trap_sig.d.render() + "\n";
  }
  return std::move(result);
}

void Machine::exec_global(const GlobalVarDecl& g) {
  // Globals live in `globals`; reuse exec_decl by temporarily declaring
  // into the bottom frame scope, then moving.
  exec_decl(g.var);
  auto& vars = frames.back().scopes.back().vars;
  auto it = vars.find(g.var.name);
  if (it != vars.end()) {
    globals[g.var.name] = std::move(it->second);
    vars.erase(it);
  }
}

// ------------------------------------------------------------ InterpCtx --

int Machine::alloc_block(MemSpace space, long long cells, int elem_size,
                         std::string origin) {
  return do_alloc(space, cells, elem_size, std::move(origin), 0);
}

void Machine::free_block(int block, int line) {
  MemBlock& b = get_block(block, line);
  b.freed = true;
}

MemBlock& Machine::block(int id) { return get_block(id, 0); }

Value Machine::load(const MemRef& ref, int line) {
  return load_ref(ref, line);
}

void Machine::store(const MemRef& ref, Value v, int line) {
  store_ref(ref, std::move(v), line);
}

void Machine::copy_cells(int dst_block, long long dst_off, int src_block,
                         long long src_off, long long count, int line) {
  raw_copy(dst_block, dst_off, src_block, src_off, count, line);
}

void Machine::call_closure(const Value& lambda, std::vector<Value> args,
                           std::vector<VarSlot*> ref_slots, bool on_device,
                           int line) {
  if (lambda.kind != Value::Kind::LambdaV || !lambda.lambda) {
    trap(DiagCategory::RuntimeFault, "value is not callable", line);
  }
  const Closure& c = *lambda.lambda;
  frames.emplace_back();
  frames.back().scopes.push_back(Scope{next_scope_id++, {}});
  // Captured environment (by value).
  for (const auto& [name, v] : c.captured) {
    VarSlot slot;
    slot.v = v;  // shared handles stay shared; scalars already copied
    frames.back().scopes.back().vars[name] = std::move(slot);
  }
  push_scope();
  std::size_t ref_i = 0;
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    VarSlot slot;
    slot.type = c.params[i].type;
    if (c.params[i].by_ref) {
      // Bind to the caller-provided slot: reads/writes flow through.
      if (ref_i < ref_slots.size() && ref_slots[ref_i]) {
        // Reference params share the underlying slot by aliasing the name
        // in a dedicated scope that stores a pointer; emulate by copying
        // in and out around the body below.
        slot.v = ref_slots[ref_i]->v;
      }
      ++ref_i;
    } else if (i < args.size()) {
      slot.v = coerce_to_type(std::move(args[i]), slot.type);
    }
    declare(c.params[i].name, std::move(slot));
  }
  ExecEnv ee;
  ee.device = on_device;
  exec_envs.push_back(ee);
  run_lambda_body(*c.body);  // lambdas in our dialect return void
  exec_envs.pop_back();
  // Copy back by-ref params from the param scope, scopes[1]: a compiled
  // return leaves the body's block scopes above it.
  const Scope& param_scope = frames.back().scopes[1];
  ref_i = 0;
  for (std::size_t i = 0; i < c.params.size(); ++i) {
    if (!c.params[i].by_ref) continue;
    if (ref_i < ref_slots.size() && ref_slots[ref_i]) {
      ref_slots[ref_i]->v = param_scope.vars.at(c.params[i].name).v;
    }
    ++ref_i;
  }
  frames.pop_back();
}

bool Machine::on_device() const { return device_ctx(); }

void Machine::print(const std::string& text, bool to_stderr) {
  std::string& sink = to_stderr ? result.stderr_text : result.stdout_text;
  if (sink.size() + text.size() > limits.max_output_bytes) {
    trap(DiagCategory::RuntimeFault, "output limit exceeded", 0);
  }
  sink += text;
}

void Machine::raise(DiagCategory cat, const std::string& msg, int line) {
  trap(cat, msg, line);
}

void Machine::exit_program(int code) { throw ExitSig{code}; }

void Machine::count_device_launch() {
  result.stats.device_kernel_launches++;
}

void Machine::count_host_parallel() {
  result.stats.host_parallel_regions++;
}

double Machine::sim_time_seconds() {
  return static_cast<double>(result.stats.steps) * 1e-9;
}

long long& Machine::rand_state() { return rand_state_v; }

}  // namespace pareval::minic
