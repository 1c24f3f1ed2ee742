#include "minic/objcodec.hpp"

#include <bit>
#include <cstring>

#include "minic/diag.hpp"
#include "support/rng.hpp"

namespace pareval::minic {

namespace {

// "PVT1" little-endian: the TU payload magic. The link payload carries its
// own magic (buildsim/linkcache.cpp).
constexpr std::uint32_t kTuMagic = 0x31545650u;

/// Nesting bound for the recursive decoders: far above any AST the parser
/// can produce, low enough that a forged deeply-nested payload fails
/// cleanly instead of overflowing the stack.
constexpr int kMaxDepth = 4000;

constexpr std::uint8_t kMaxBaseType =
    static_cast<std::uint8_t>(BaseType::CurandState);
constexpr std::uint8_t kMaxExprKind =
    static_cast<std::uint8_t>(ExprKind::LambdaExpr);
constexpr std::uint8_t kMaxStmtKind = static_cast<std::uint8_t>(StmtKind::Omp);
constexpr std::uint8_t kMaxFnQual =
    static_cast<std::uint8_t>(FnQual::HostDevice);
constexpr std::uint8_t kMaxOmpConstruct =
    static_cast<std::uint8_t>(OmpConstruct::End);
constexpr std::uint8_t kMaxOmpMapType =
    static_cast<std::uint8_t>(OmpMapType::Alloc);

}  // namespace

std::uint64_t obj_stream_version(std::uint64_t pipeline_version) {
  return support::SplitMix64(pipeline_version ^
                             (0x6f626a0000000000ULL + kObjFormatVersion))
      .next();
}

// --- BinWriter / BinReader --------------------------------------------------

void BinWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v & 0xff));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void BinWriter::u32(std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    u8(static_cast<std::uint8_t>((v >> (8 * k)) & 0xff));
  }
}

void BinWriter::u64(std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    u8(static_cast<std::uint8_t>((v >> (8 * k)) & 0xff));
  }
}

void BinWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

bool BinReader::take(std::size_t n, const char** out) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = buf_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t BinReader::u8() {
  const char* p = nullptr;
  if (!take(1, &p)) return 0;
  return static_cast<std::uint8_t>(*p);
}

std::uint16_t BinReader::u16() {
  const char* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>(
      static_cast<std::uint8_t>(p[0]) |
      (static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[1])) << 8));
}

std::uint32_t BinReader::u32() {
  const char* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int k = 3; k >= 0; --k) {
    v = (v << 8) | static_cast<std::uint8_t>(p[k]);
  }
  return v;
}

std::uint64_t BinReader::u64() {
  const char* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int k = 7; k >= 0; --k) {
    v = (v << 8) | static_cast<std::uint8_t>(p[k]);
  }
  return v;
}

double BinReader::f64() { return std::bit_cast<double>(u64()); }

bool BinReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail();
  return v == 1;
}

std::string BinReader::str() {
  const std::uint32_t n = u32();
  const char* p = nullptr;
  if (!take(n, &p)) return std::string();
  return std::string(p, n);
}

// --- AST codec --------------------------------------------------------------

namespace {

void encode_type(const Type& t, BinWriter& w) {
  w.u8(static_cast<std::uint8_t>(t.base));
  w.u8(static_cast<std::uint8_t>(t.ptr_depth));
  w.boolean(t.is_const);
  w.str(t.struct_name);
  w.u8(static_cast<std::uint8_t>(t.view_elem));
  w.i32(t.view_rank);
  w.str(t.view_struct_name);
}

bool decode_type(BinReader& r, Type* out) {
  const std::uint8_t base = r.u8();
  if (base > kMaxBaseType) r.fail();
  out->base = static_cast<BaseType>(base);
  out->ptr_depth = r.u8();
  out->is_const = r.boolean();
  out->struct_name = r.str();
  const std::uint8_t elem = r.u8();
  if (elem > kMaxBaseType) r.fail();
  out->view_elem = static_cast<BaseType>(elem);
  out->view_rank = r.i32();
  out->view_struct_name = r.str();
  return r.ok();
}

void enc_stmt(const Stmt& s, BinWriter& w);
bool dec_stmt(BinReader& r, int depth, Stmt* out);

void enc_opt_expr(const ExprPtr& e, BinWriter& w);
bool dec_opt_expr(BinReader& r, int depth, ExprPtr* out);

void enc_expr(const Expr& e, BinWriter& w) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.str(e.text);
  w.i64(e.int_value);
  w.f64(e.float_value);
  w.u32(static_cast<std::uint32_t>(e.kids.size()));
  for (const auto& kid : e.kids) enc_expr(*kid, w);
  encode_type(e.type, w);
  w.boolean(e.arrow);
  w.boolean(e.postfix);
  w.i32(e.line);
  enc_opt_expr(e.launch_grid, w);
  enc_opt_expr(e.launch_block, w);
  w.u32(static_cast<std::uint32_t>(e.lambda_params.size()));
  for (const auto& p : e.lambda_params) {
    encode_type(p.type, w);
    w.str(p.name);
    w.boolean(p.by_ref);
  }
  w.boolean(e.lambda_body != nullptr);
  if (e.lambda_body != nullptr) enc_stmt(*e.lambda_body, w);
}

bool dec_expr(BinReader& r, int depth, Expr* out) {
  if (depth > kMaxDepth) {
    r.fail();
    return false;
  }
  const std::uint8_t kind = r.u8();
  if (kind > kMaxExprKind) r.fail();
  out->kind = static_cast<ExprKind>(kind);
  out->text = r.str();
  out->int_value = r.i64();
  out->float_value = r.f64();
  const std::uint32_t nkids = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nkids; ++i) {
    auto kid = std::make_unique<Expr>();
    if (!dec_expr(r, depth + 1, kid.get())) return false;
    out->kids.push_back(std::move(kid));
  }
  if (!decode_type(r, &out->type)) return false;
  out->arrow = r.boolean();
  out->postfix = r.boolean();
  out->line = r.i32();
  if (!dec_opt_expr(r, depth + 1, &out->launch_grid)) return false;
  if (!dec_opt_expr(r, depth + 1, &out->launch_block)) return false;
  const std::uint32_t nparams = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nparams; ++i) {
    Expr::Param p;
    if (!decode_type(r, &p.type)) return false;
    p.name = r.str();
    p.by_ref = r.boolean();
    out->lambda_params.push_back(std::move(p));
  }
  if (r.boolean()) {
    out->lambda_body = std::make_unique<Stmt>();
    if (!dec_stmt(r, depth + 1, out->lambda_body.get())) return false;
  }
  return r.ok();
}

void enc_opt_expr(const ExprPtr& e, BinWriter& w) {
  w.boolean(e != nullptr);
  if (e != nullptr) enc_expr(*e, w);
}

bool dec_opt_expr(BinReader& r, int depth, ExprPtr* out) {
  if (!r.boolean()) return r.ok();
  *out = std::make_unique<Expr>();
  return dec_expr(r, depth, out->get());
}

void enc_var_decl(const VarDecl& d, BinWriter& w) {
  encode_type(d.type, w);
  w.str(d.name);
  enc_opt_expr(d.init, w);
  w.u32(static_cast<std::uint32_t>(d.ctor_args.size()));
  for (const auto& a : d.ctor_args) enc_expr(*a, w);
  enc_opt_expr(d.array_size, w);
  w.i32(d.line);
}

bool dec_var_decl(BinReader& r, int depth, VarDecl* out) {
  if (!decode_type(r, &out->type)) return false;
  out->name = r.str();
  if (!dec_opt_expr(r, depth, &out->init)) return false;
  const std::uint32_t nargs = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nargs; ++i) {
    auto a = std::make_unique<Expr>();
    if (!dec_expr(r, depth, a.get())) return false;
    out->ctor_args.push_back(std::move(a));
  }
  if (!dec_opt_expr(r, depth, &out->array_size)) return false;
  out->line = r.i32();
  return r.ok();
}

void enc_omp(const OmpDirective& d, BinWriter& w) {
  w.u32(static_cast<std::uint32_t>(d.constructs.size()));
  for (const OmpConstruct c : d.constructs) {
    w.u8(static_cast<std::uint8_t>(c));
  }
  w.u32(static_cast<std::uint32_t>(d.clauses.size()));
  for (const OmpClause& c : d.clauses) {
    w.str(c.name);
    w.boolean(c.map_type.has_value());
    if (c.map_type.has_value()) w.u8(static_cast<std::uint8_t>(*c.map_type));
    w.str(c.reduction_op);
    w.u32(static_cast<std::uint32_t>(c.vars.size()));
    for (const auto& v : c.vars) w.str(v);
    w.str(c.raw_args);
    w.i64(c.int_arg);
  }
  w.str(d.raw);
  w.i32(d.line);
}

bool dec_omp(BinReader& r, OmpDirective* out) {
  const std::uint32_t ncon = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < ncon; ++i) {
    const std::uint8_t c = r.u8();
    if (c > kMaxOmpConstruct) r.fail();
    out->constructs.push_back(static_cast<OmpConstruct>(c));
  }
  const std::uint32_t ncl = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < ncl; ++i) {
    OmpClause c;
    c.name = r.str();
    if (r.boolean()) {
      const std::uint8_t m = r.u8();
      if (m > kMaxOmpMapType) r.fail();
      c.map_type = static_cast<OmpMapType>(m);
    }
    c.reduction_op = r.str();
    const std::uint32_t nvars = r.u32();
    for (std::uint32_t k = 0; r.ok() && k < nvars; ++k) {
      c.vars.push_back(r.str());
    }
    c.raw_args = r.str();
    c.int_arg = r.i64();
    out->clauses.push_back(std::move(c));
  }
  out->raw = r.str();
  out->line = r.i32();
  return r.ok();
}

void enc_stmt(const Stmt& s, BinWriter& w) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i32(s.line);
  w.u32(static_cast<std::uint32_t>(s.body.size()));
  for (const auto& b : s.body) enc_stmt(*b, w);
  enc_opt_expr(s.expr, w);
  w.u32(static_cast<std::uint32_t>(s.decls.size()));
  for (const auto& d : s.decls) enc_var_decl(d, w);
  auto opt_stmt = [&w](const std::unique_ptr<Stmt>& st) {
    w.boolean(st != nullptr);
    if (st != nullptr) enc_stmt(*st, w);
  };
  opt_stmt(s.then_branch);
  opt_stmt(s.else_branch);
  opt_stmt(s.for_init);
  enc_opt_expr(s.for_inc, w);
  opt_stmt(s.loop_body);
  w.str(s.omp_raw);
  w.boolean(s.omp.has_value());
  if (s.omp.has_value()) enc_omp(*s.omp, w);
  opt_stmt(s.omp_body);
}

bool dec_stmt(BinReader& r, int depth, Stmt* out) {
  if (depth > kMaxDepth) {
    r.fail();
    return false;
  }
  const std::uint8_t kind = r.u8();
  if (kind > kMaxStmtKind) r.fail();
  out->kind = static_cast<StmtKind>(kind);
  out->line = r.i32();
  const std::uint32_t nbody = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nbody; ++i) {
    auto b = std::make_unique<Stmt>();
    if (!dec_stmt(r, depth + 1, b.get())) return false;
    out->body.push_back(std::move(b));
  }
  if (!dec_opt_expr(r, depth + 1, &out->expr)) return false;
  const std::uint32_t ndecls = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < ndecls; ++i) {
    VarDecl d;
    if (!dec_var_decl(r, depth + 1, &d)) return false;
    out->decls.push_back(std::move(d));
  }
  auto opt_stmt = [&r, depth](std::unique_ptr<Stmt>* st) {
    if (!r.boolean()) return r.ok();
    *st = std::make_unique<Stmt>();
    return dec_stmt(r, depth + 1, st->get());
  };
  if (!opt_stmt(&out->then_branch)) return false;
  if (!opt_stmt(&out->else_branch)) return false;
  if (!opt_stmt(&out->for_init)) return false;
  if (!dec_opt_expr(r, depth + 1, &out->for_inc)) return false;
  if (!opt_stmt(&out->loop_body)) return false;
  out->omp_raw = r.str();
  if (r.boolean()) {
    OmpDirective d;
    if (!dec_omp(r, &d)) return false;
    out->omp = std::move(d);
  }
  if (!opt_stmt(&out->omp_body)) return false;
  return r.ok();
}

void enc_function(const FunctionDecl& f, BinWriter& w) {
  w.str(f.name);
  encode_type(f.return_type, w);
  w.u32(static_cast<std::uint32_t>(f.params.size()));
  for (const ParamDecl& p : f.params) {
    encode_type(p.type, w);
    w.str(p.name);
    w.boolean(p.by_ref);
  }
  w.boolean(f.body != nullptr);
  if (f.body != nullptr) enc_stmt(*f.body, w);
  w.u8(static_cast<std::uint8_t>(f.qual));
  w.boolean(f.is_static);
  w.i32(f.line);
  w.str(f.file);
}

bool dec_function(BinReader& r, FunctionDecl* out) {
  out->name = r.str();
  if (!decode_type(r, &out->return_type)) return false;
  const std::uint32_t nparams = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nparams; ++i) {
    ParamDecl p;
    if (!decode_type(r, &p.type)) return false;
    p.name = r.str();
    p.by_ref = r.boolean();
    out->params.push_back(std::move(p));
  }
  if (r.boolean()) {
    out->body = std::make_unique<Stmt>();
    if (!dec_stmt(r, 0, out->body.get())) return false;
  }
  const std::uint8_t qual = r.u8();
  if (qual > kMaxFnQual) r.fail();
  out->qual = static_cast<FnQual>(qual);
  out->is_static = r.boolean();
  out->line = r.i32();
  out->file = r.str();
  return r.ok();
}

void enc_string_list(const std::vector<std::string>& v, BinWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) w.str(s);
}

bool dec_string_list(BinReader& r, std::vector<std::string>* out) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < n; ++i) out->push_back(r.str());
  return r.ok();
}

void enc_diags(const DiagBag& bag, BinWriter& w) {
  w.u32(static_cast<std::uint32_t>(bag.all().size()));
  for (const Diag& d : bag.all()) {
    w.str(diag_category_key(d.category));
    w.u8(d.severity == Severity::Error ? 1 : 0);
    w.str(d.message);
    w.str(d.file);
    w.i32(d.line);
  }
}

bool dec_diags(BinReader& r, DiagBag* out) {
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
    Diag d;
    if (!diag_category_from_key(r.str(), &d.category)) {
      r.fail();
      return false;
    }
    const std::uint8_t sev = r.u8();
    if (sev > 1) r.fail();
    d.severity = sev == 1 ? Severity::Error : Severity::Warning;
    d.message = r.str();
    d.file = r.str();
    d.line = r.i32();
    out->add(std::move(d));
  }
  return r.ok();
}

}  // namespace

std::string encode_tu(const TranslationUnit& tu) {
  BinWriter body;
  body.str(tu.path);
  body.u32(static_cast<std::uint32_t>(tu.structs.size()));
  for (const StructDecl& s : tu.structs) {
    body.str(s.name);
    body.u32(static_cast<std::uint32_t>(s.fields.size()));
    for (const FieldDecl& f : s.fields) {
      encode_type(f.type, body);
      body.str(f.name);
      enc_opt_expr(f.array_size, body);
    }
    body.i32(s.line);
  }
  body.u32(static_cast<std::uint32_t>(tu.functions.size()));
  for (const FunctionDecl& f : tu.functions) enc_function(f, body);
  body.u32(static_cast<std::uint32_t>(tu.globals.size()));
  for (const GlobalVarDecl& g : tu.globals) {
    enc_var_decl(g.var, body);
    body.boolean(g.is_device);
  }
  enc_string_list(tu.system_headers, body);
  enc_string_list(tu.called_functions, body);
  enc_string_list(tu.resolved_files, body);
  enc_string_list(tu.missing_probes, body);
  enc_diags(tu.diags, body);

  BinWriter out;
  out.u32(kTuMagic);
  out.u32(kObjFormatVersion);
  out.u64(support::stable_hash(body.bytes()));
  std::string result = out.take();
  result += body.bytes();
  return result;
}

std::shared_ptr<TranslationUnit> decode_tu(std::string_view bytes) {
  BinReader header(bytes);
  if (header.u32() != kTuMagic) return nullptr;
  if (header.u32() != kObjFormatVersion) return nullptr;
  const std::uint64_t want_hash = header.u64();
  if (!header.ok()) return nullptr;
  const std::string_view body = bytes.substr(16);
  if (support::stable_hash(std::span<const char>(body.data(), body.size())) !=
      want_hash) {
    return nullptr;
  }

  BinReader r(body);
  auto tu = std::make_shared<TranslationUnit>();
  tu->path = r.str();
  const std::uint32_t nstructs = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nstructs; ++i) {
    StructDecl s;
    s.name = r.str();
    const std::uint32_t nfields = r.u32();
    for (std::uint32_t k = 0; r.ok() && k < nfields; ++k) {
      FieldDecl f;
      if (!decode_type(r, &f.type)) return nullptr;
      f.name = r.str();
      if (!dec_opt_expr(r, 0, &f.array_size)) return nullptr;
      s.fields.push_back(std::move(f));
    }
    s.line = r.i32();
    tu->structs.push_back(std::move(s));
  }
  const std::uint32_t nfns = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nfns; ++i) {
    FunctionDecl f;
    if (!dec_function(r, &f)) return nullptr;
    tu->functions.push_back(std::move(f));
  }
  const std::uint32_t nglobals = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < nglobals; ++i) {
    GlobalVarDecl g;
    if (!dec_var_decl(r, 0, &g.var)) return nullptr;
    g.is_device = r.boolean();
    tu->globals.push_back(std::move(g));
  }
  if (!dec_string_list(r, &tu->system_headers)) return nullptr;
  if (!dec_string_list(r, &tu->called_functions)) return nullptr;
  if (!dec_string_list(r, &tu->resolved_files)) return nullptr;
  if (!dec_string_list(r, &tu->missing_probes)) return nullptr;
  if (!dec_diags(r, &tu->diags)) return nullptr;
  if (!r.ok() || !r.at_end()) return nullptr;
  return tu;
}

}  // namespace pareval::minic
