#include "minic/parser.hpp"

#include <cstdlib>

#include "support/strings.hpp"

namespace pareval::minic {

namespace {

using codeanal::TokKind;
using codeanal::Token;

/// Thrown on unrecoverable parse errors within one declaration/statement;
/// caught at recovery points.
struct ParseError {};

/// Thrown when the nesting budget runs out. Fatal for the whole TU, like
/// clang's bracket-depth error: no recovery point catches it, so parsing
/// stops with the one diagnostic instead of re-parsing deep garbage.
struct NestingTooDeep {};

/// Nesting budget of the recursive descent (clang's default
/// -fbracket-depth). It bounds the AST depth every later pass recurses
/// on, so nested input ends in a CodeSyntax diagnostic, not a stack
/// overflow.
constexpr int kMaxNesting = 256;

class Parser {
 public:
  Parser(std::vector<Token> toks, std::string path,
         std::set<std::string> known_structs)
      : toks_(std::move(toks)),
        path_(std::move(path)),
        struct_names_(std::move(known_structs)) {}

  TranslationUnit run() {
    TranslationUnit tu;
    tu.path = path_;
    tu_ = &tu;
    while (!at_eof()) {
      try {
        parse_top_level();
      } catch (const ParseError&) {
        recover_top_level();
      } catch (const NestingTooDeep&) {
        break;
      }
    }
    return tu;
  }

 private:
  // ------------------------------------------------------------ cursor --
  const Token& peek(int off = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(off);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at_eof() const { return peek().kind == TokKind::EndOfFile; }
  Token take() {
    Token t = peek();
    if (pos_ < toks_.size() - 1) ++pos_;
    return t;
  }
  bool check_punct(std::string_view p) const { return peek().is_punct(p); }
  bool check_ident(std::string_view name) const { return peek().is_ident(name); }
  bool accept_punct(std::string_view p) {
    if (check_punct(p)) {
      take();
      return true;
    }
    return false;
  }
  bool accept_ident(std::string_view name) {
    if (check_ident(name)) {
      take();
      return true;
    }
    return false;
  }
  void expect_punct(std::string_view p, const char* context) {
    if (!accept_punct(p)) {
      syntax_error("expected '" + std::string(p) + "' " + context +
                   ", found '" + describe(peek()) + "'");
    }
  }
  std::string expect_name(const char* context) {
    if (peek().kind != TokKind::Identifier) {
      syntax_error("expected identifier " + std::string(context) +
                   ", found '" + describe(peek()) + "'");
    }
    return take().text;
  }
  static std::string describe(const Token& t) {
    switch (t.kind) {
      case TokKind::EndOfFile: return "<eof>";
      case TokKind::StringLit: return "\"" + t.text + "\"";
      default: return t.text;
    }
  }
  [[noreturn]] void syntax_error(const std::string& msg) {
    tu_->diags.error(DiagCategory::CodeSyntax, msg, path_, peek().line);
    throw ParseError{};
  }
  /// Holds units of the nesting budget for its lifetime. One is taken
  /// where the descent enters a statement, an expression, an initializer
  /// list, or a prefix operand, so each source nesting level costs one
  /// unit. A loop that builds a left-leaning chain (binary operators,
  /// postfix suffixes) starts with none and holds one more per link:
  /// each link deepens the tree without recursing.
  class Nest {
   public:
    explicit Nest(Parser& p, int units = 1) : p_(p) {
      for (int i = 0; i < units; ++i) hold();
    }
    ~Nest() { p_.depth_ -= held_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

    void hold() {
      if (p_.depth_ >= kMaxNesting) {
        p_.tu_->diags.error(DiagCategory::CodeSyntax,
                            "nesting exceeds the maximum depth of " +
                                std::to_string(kMaxNesting),
                            p_.path_, p_.peek().line);
        throw NestingTooDeep{};
      }
      ++p_.depth_;
      ++held_;
    }

   private:
    Parser& p_;
    int held_ = 0;
  };

  void recover_top_level() {
    // Skip to a likely declaration boundary.
    int depth = 0;
    while (!at_eof()) {
      const Token& t = peek();
      if (t.is_punct("{")) ++depth;
      if (t.is_punct("}")) {
        --depth;
        if (depth <= 0) {
          take();
          accept_punct(";");
          return;
        }
      }
      if (t.is_punct(";") && depth <= 0) {
        take();
        return;
      }
      take();
    }
  }

  // ------------------------------------------------------------- types --
  bool is_type_start(int off = 0) const {
    const Token& t = peek(off);
    if (t.kind != TokKind::Identifier) return false;
    static const std::set<std::string> kTypeWords = {
        "void",   "bool",     "char",   "int",         "long",
        "unsigned", "size_t", "float",  "double",      "struct",
        "const",  "dim3",     "Kokkos", "curandState", "int64_t",
        "uint64_t", "static", "inline", "__global__",  "__device__",
        "__host__", "signed"};
    if (t.text == "Kokkos") {
      // Only `Kokkos::View<...>` opens a type; `Kokkos::parallel_for(...)`
      // and friends are expressions.
      return peek(off + 1).is_punct("::") && peek(off + 2).is_ident("View");
    }
    if (kTypeWords.count(t.text) > 0) return true;
    return struct_names_.count(t.text) > 0;
  }

  Type parse_type() {
    Type t;
    while (accept_ident("const")) t.is_const = true;
    if (accept_ident("unsigned")) {
      if (accept_ident("long")) {
        accept_ident("long");
        t.base = BaseType::SizeT;
      } else if (accept_ident("int") || true) {
        // "unsigned" or "unsigned int"
        t.base = BaseType::UInt;
      }
    } else if (accept_ident("signed")) {
      accept_ident("int");
      t.base = BaseType::Int;
    } else if (accept_ident("void")) {
      t.base = BaseType::Void;
    } else if (accept_ident("bool")) {
      t.base = BaseType::Bool;
    } else if (accept_ident("char")) {
      t.base = BaseType::Char;
    } else if (accept_ident("int")) {
      t.base = BaseType::Int;
    } else if (accept_ident("long")) {
      accept_ident("long");
      accept_ident("int");
      t.base = BaseType::Long;
    } else if (accept_ident("int64_t")) {
      t.base = BaseType::Long;
    } else if (accept_ident("uint64_t") || accept_ident("size_t")) {
      t.base = BaseType::SizeT;
    } else if (accept_ident("float")) {
      t.base = BaseType::Float;
    } else if (accept_ident("double")) {
      t.base = BaseType::Double;
    } else if (accept_ident("dim3")) {
      t.base = BaseType::Dim3;
    } else if (accept_ident("curandState")) {
      t.base = BaseType::CurandState;
    } else if (check_ident("Kokkos")) {
      t = parse_kokkos_view_type();
    } else if (accept_ident("struct")) {
      t.base = BaseType::Struct;
      t.struct_name = expect_name("after 'struct'");
    } else if (peek().kind == TokKind::Identifier &&
               struct_names_.count(peek().text) > 0) {
      t.base = BaseType::Struct;
      t.struct_name = take().text;
    } else {
      syntax_error("expected a type, found '" + describe(peek()) + "'");
    }
    while (true) {
      if (accept_punct("*")) {
        ++t.ptr_depth;
      } else if (accept_ident("const")) {
        t.is_const = true;
      } else {
        break;
      }
    }
    return t;
  }

  Type parse_kokkos_view_type() {
    // Kokkos::View<double*> or Kokkos::View<int**>
    take();  // Kokkos
    expect_punct("::", "after 'Kokkos'");
    const std::string what = expect_name("after 'Kokkos::'");
    if (what != "View") {
      syntax_error("unknown Kokkos type 'Kokkos::" + what + "'");
    }
    expect_punct("<", "after 'Kokkos::View'");
    Type elem = parse_type();
    Type t;
    t.base = BaseType::View;
    t.view_elem = elem.base;
    t.view_struct_name = elem.struct_name;
    t.view_rank = elem.ptr_depth;
    if (t.view_rank < 1 || t.view_rank > 3) {
      syntax_error("Kokkos::View rank must be 1..3");
    }
    expect_view_close();
    return t;
  }

  /// Consume '>' that may have lexed as '>>' or '>>>'.
  void expect_view_close() {
    if (accept_punct(">")) return;
    if (check_punct(">>")) {
      toks_[pos_].text = ">";
      return;
    }
    if (check_punct(">>>")) {
      toks_[pos_].text = ">>";
      return;
    }
    syntax_error("expected '>' closing template arguments");
  }

  // --------------------------------------------------------- top level --
  void parse_top_level() {
    const Token& t = peek();
    if (t.kind == TokKind::PpDirective) {
      parse_pp_at_top();
      return;
    }
    if (t.is_punct(";")) {
      take();
      return;
    }
    if (check_ident("typedef")) {
      parse_typedef();
      return;
    }
    if (check_ident("struct") && peek(1).kind == TokKind::Identifier &&
        (peek(2).is_punct("{") || peek(2).is_punct(";"))) {
      parse_struct_decl();
      return;
    }
    if (check_ident("using")) {  // "using namespace ..." tolerated
      while (!at_eof() && !accept_punct(";")) take();
      return;
    }
    parse_function_or_global();
  }

  void parse_pp_at_top() {
    const Token t = take();
    const std::string body = std::string(support::trim(t.text));
    if (body.starts_with("#pragma")) {
      std::string rest = std::string(support::trim(body.substr(7)));
      if (rest.starts_with("omp")) {
        // File-scope OpenMP directives: declare target / end declare target.
        DiagBag scratch;
        auto dir = parse_omp_directive(rest.substr(3), t.line, path_, scratch);
        tu_->diags.merge(scratch);
        // declare target regions are accepted and ignored (all our
        // functions are compiled for both host and device as needed).
        return;
      }
      return;  // #pragma once etc.
    }
    // #include/#define reach the parser only when a file is parsed in
    // isolation (translation engines); they are handled at the text level
    // there, so skip them silently.
    static const char* kHandledElsewhere[] = {"#include", "#define", "#undef",
                                              "#ifndef",  "#ifdef",  "#endif",
                                              "#if",      "#else"};
    for (const char* prefix : kHandledElsewhere) {
      if (body.starts_with(prefix)) return;
    }
    tu_->diags.error(DiagCategory::CodeSyntax,
                     "invalid preprocessing directive '" + body + "'", path_,
                     t.line);
  }

  void parse_typedef() {
    take();  // typedef
    if (!accept_ident("struct")) {
      syntax_error("only 'typedef struct' is supported");
    }
    StructDecl sd;
    sd.line = peek().line;
    if (peek().kind == TokKind::Identifier) sd.name = take().text;
    expect_punct("{", "to open struct body");
    parse_struct_fields(sd);
    const std::string alias = expect_name("typedef alias");
    expect_punct(";", "after typedef");
    sd.name = alias;  // the alias is the canonical name
    struct_names_.insert(alias);
    tu_->structs.push_back(std::move(sd));
  }

  void parse_struct_decl() {
    take();  // struct
    StructDecl sd;
    sd.line = peek().line;
    sd.name = expect_name("struct name");
    struct_names_.insert(sd.name);
    if (accept_punct(";")) {  // forward declaration
      return;
    }
    expect_punct("{", "to open struct body");
    parse_struct_fields(sd);
    expect_punct(";", "after struct definition");
    tu_->structs.push_back(std::move(sd));
  }

  void parse_struct_fields(StructDecl& sd) {
    while (!accept_punct("}")) {
      if (at_eof()) syntax_error("unterminated struct body");
      FieldDecl f;
      f.type = parse_type();
      f.name = expect_name("field name");
      if (accept_punct("[")) {
        f.array_size = parse_expr();
        expect_punct("]", "after array size");
      }
      // Additional declarators: `double x, y;`
      sd.fields.push_back(std::move(f));
      while (accept_punct(",")) {
        FieldDecl g;
        g.type = sd.fields.back().type;
        g.name = expect_name("field name");
        if (accept_punct("[")) {
          g.array_size = parse_expr();
          expect_punct("]", "after array size");
        }
        sd.fields.push_back(std::move(g));
      }
      expect_punct(";", "after struct field");
    }
  }

  void parse_function_or_global() {
    FnQual qual = FnQual::None;
    bool is_static = false;
    bool is_device_global = false;
    while (true) {
      if (accept_ident("__global__")) {
        qual = FnQual::Global;
      } else if (accept_ident("__device__")) {
        qual = qual == FnQual::None ? FnQual::Device : FnQual::HostDevice;
        is_device_global = true;
      } else if (accept_ident("__host__")) {
        qual = qual == FnQual::Device ? FnQual::HostDevice : qual;
      } else if (accept_ident("static")) {
        is_static = true;
      } else if (accept_ident("inline")) {
        // accepted, no semantic effect
      } else {
        break;
      }
    }
    Type type = parse_type();
    const int line = peek().line;
    const std::string origin_file =
        peek().file.empty() ? path_ : peek().file;
    const std::string name = expect_name("declaration name");

    if (check_punct("(")) {
      // Function.
      FunctionDecl fn;
      fn.name = name;
      fn.return_type = type;
      fn.qual = qual;
      fn.is_static = is_static;
      fn.line = line;
      fn.file = origin_file;
      take();  // (
      if (!check_punct(")")) {
        do {
          if (accept_ident("void") && check_punct(")")) break;
          ParamDecl p;
          p.type = parse_type();
          if (accept_punct("&")) p.by_ref = true;
          if (peek().kind == TokKind::Identifier) p.name = take().text;
          if (accept_punct("[")) {
            expect_punct("]", "in array parameter");
            ++p.type.ptr_depth;  // T name[] == T*
          }
          fn.params.push_back(std::move(p));
        } while (accept_punct(","));
      }
      expect_punct(")", "after parameter list");
      if (accept_punct(";")) {
        tu_->functions.push_back(std::move(fn));  // prototype
        return;
      }
      fn.body = parse_block();
      tu_->functions.push_back(std::move(fn));
      return;
    }

    // Global variable(s).
    Type decl_type = type;
    std::string decl_name = name;
    while (true) {
      GlobalVarDecl g;
      g.is_device = is_device_global && qual != FnQual::None;
      g.var.type = decl_type;
      g.var.name = decl_name;
      g.var.line = line;
      if (accept_punct("[")) {
        g.var.array_size = parse_expr();
        expect_punct("]", "after array size");
      }
      if (accept_punct("=")) {
        g.var.init = check_punct("{") ? parse_init_list() : parse_assignment();
      }
      tu_->globals.push_back(std::move(g));
      if (accept_punct(",")) {
        decl_type = type;
        decl_name = expect_name("declaration name");
        continue;
      }
      expect_punct(";", "after global variable");
      return;
    }
  }

  // --------------------------------------------------------- statements --
  StmtPtr parse_block() {
    expect_punct("{", "to open block");
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::Block;
    s->line = peek().line;
    while (!check_punct("}")) {
      if (at_eof()) syntax_error("unterminated block; missing '}'");
      s->body.push_back(parse_stmt());
    }
    take();  // }
    return s;
  }

  StmtPtr parse_stmt() {
    const Nest nest(*this);
    const Token& t = peek();
    if (t.kind == TokKind::PpDirective) {
      return parse_pragma_stmt();
    }
    if (t.is_punct("{")) return parse_block();
    if (t.is_punct(";")) {
      take();
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::ExprStmt;
      s->line = t.line;
      return s;
    }
    if (check_ident("if")) return parse_if();
    if (check_ident("for")) return parse_for();
    if (check_ident("while")) return parse_while();
    if (check_ident("do")) return parse_do_while();
    if (check_ident("return")) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::Return;
      s->line = take().line;
      if (!check_punct(";")) s->expr = parse_expr();
      expect_punct(";", "after return");
      return s;
    }
    if (check_ident("break")) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::Break;
      s->line = take().line;
      expect_punct(";", "after break");
      return s;
    }
    if (check_ident("continue")) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::Continue;
      s->line = take().line;
      expect_punct(";", "after continue");
      return s;
    }
    if (is_decl_start()) return parse_decl_stmt();
    // Expression statement.
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::ExprStmt;
    s->line = t.line;
    s->expr = parse_expr();
    expect_punct(";", "after expression");
    return s;
  }

  bool is_decl_start() const {
    if (!is_type_start()) return false;
    // Disambiguate `x * y;` (expr) from `T * y;` (decl): a decl requires
    // the leading word to be a real type word or known struct name; our
    // is_type_start covers that, but identifiers that are both variable
    // and struct names don't occur in the dialect.
    const Token& t = peek();
    if (t.text == "static" || t.text == "inline" || t.text == "__global__" ||
        t.text == "__device__" || t.text == "__host__") {
      return false;  // function qualifiers are top-level only
    }
    return true;
  }

  StmtPtr parse_pragma_stmt() {
    const Token t = take();
    std::string body = std::string(support::trim(t.text));
    if (!body.starts_with("#pragma")) {
      tu_->diags.error(DiagCategory::CodeSyntax,
                       "unexpected preprocessor directive inside function",
                       path_, t.line);
      throw ParseError{};
    }
    std::string rest = std::string(support::trim(body.substr(7)));
    if (!rest.starts_with("omp")) {
      // Non-OpenMP pragma inside a function: ignore (e.g. #pragma unroll).
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::ExprStmt;
      s->line = t.line;
      return s;
    }
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::Omp;
    s->line = t.line;
    s->omp_raw = std::string(support::trim(rest.substr(3)));
    // Standalone directives (no associated statement), decided lexically so
    // parsing proceeds even for directives sema will later reject.
    const std::string& raw = s->omp_raw;
    const bool standalone =
        raw.starts_with("barrier") || raw.starts_with("target update") ||
        raw.starts_with("target enter data") ||
        raw.starts_with("target exit data");
    if (!standalone) s->omp_body = parse_stmt();
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::If;
    s->line = take().line;  // if
    expect_punct("(", "after 'if'");
    s->expr = parse_expr();
    expect_punct(")", "after if condition");
    s->then_branch = parse_stmt();
    if (accept_ident("else")) s->else_branch = parse_stmt();
    return s;
  }

  StmtPtr parse_for() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::For;
    s->line = take().line;  // for
    expect_punct("(", "after 'for'");
    if (!accept_punct(";")) {
      if (is_decl_start()) {
        s->for_init = parse_decl_stmt();
      } else {
        auto init = std::make_unique<Stmt>();
        init->kind = StmtKind::ExprStmt;
        init->expr = parse_expr();
        expect_punct(";", "after for-init");
        s->for_init = std::move(init);
      }
    }
    if (!check_punct(";")) s->expr = parse_expr();
    expect_punct(";", "after for condition");
    if (!check_punct(")")) s->for_inc = parse_expr();
    expect_punct(")", "after for clauses");
    s->loop_body = parse_stmt();
    return s;
  }

  StmtPtr parse_while() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::While;
    s->line = take().line;
    expect_punct("(", "after 'while'");
    s->expr = parse_expr();
    expect_punct(")", "after while condition");
    s->loop_body = parse_stmt();
    return s;
  }

  StmtPtr parse_do_while() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::DoWhile;
    s->line = take().line;
    s->loop_body = parse_stmt();
    if (!accept_ident("while")) syntax_error("expected 'while' after do body");
    expect_punct("(", "after 'while'");
    s->expr = parse_expr();
    expect_punct(")", "after do-while condition");
    expect_punct(";", "after do-while");
    return s;
  }

  StmtPtr parse_decl_stmt() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::Decl;
    s->line = peek().line;
    const Type base = parse_type();
    while (true) {
      VarDecl v;
      v.type = base;
      // Extra '*' per declarator: `double *a, b;`
      while (accept_punct("*")) ++v.type.ptr_depth;
      v.line = peek().line;
      v.name = expect_name("variable name");
      if (accept_punct("[")) {
        v.array_size = parse_expr();
        expect_punct("]", "after array size");
      }
      if (check_punct("(")) {
        // Constructor syntax: dim3 g(x, y); Kokkos::View v("n", N);
        take();
        if (!check_punct(")")) {
          do {
            v.ctor_args.push_back(parse_assignment());
          } while (accept_punct(","));
        }
        expect_punct(")", "after constructor arguments");
      } else if (accept_punct("=")) {
        if (check_punct("{")) {
          v.init = parse_init_list();
        } else {
          v.init = parse_assignment();
        }
      }
      s->decls.push_back(std::move(v));
      if (accept_punct(",")) continue;
      expect_punct(";", "after declaration");
      return s;
    }
  }

  // -------------------------------------------------------- expressions --
  ExprPtr parse_expr() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    const Nest nest(*this);
    ExprPtr lhs = parse_ternary();
    static const char* kAssignOps[] = {"=",  "+=", "-=", "*=", "/=",
                                       "%=", "&=", "|=", "^=", "<<=", ">>="};
    for (const char* op : kAssignOps) {
      if (check_punct(op)) {
        const Token t = take();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Assign;
        e->text = op;
        e->line = t.line;
        e->kids.push_back(std::move(lhs));
        e->kids.push_back(parse_assignment());
        return e;
      }
    }
    return lhs;
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(0);
    if (accept_punct("?")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Ternary;
      e->line = cond->line;
      e->kids.push_back(std::move(cond));
      e->kids.push_back(parse_assignment());
      expect_punct(":", "in conditional expression");
      e->kids.push_back(parse_assignment());
      return e;
    }
    return cond;
  }

  struct OpLevel {
    std::vector<std::string_view> ops;
  };
  static const std::vector<OpLevel>& levels() {
    static const std::vector<OpLevel> kLevels = {
        {{"||"}},
        {{"&&"}},
        {{"|"}},
        {{"^"}},
        {{"&"}},
        {{"==", "!="}},
        {{"<", ">", "<=", ">="}},
        {{"<<", ">>"}},
        {{"+", "-"}},
        {{"*", "/", "%"}},
    };
    return kLevels;
  }

  ExprPtr parse_binary(std::size_t level) {
    if (level >= levels().size()) return parse_unary();
    ExprPtr lhs = parse_binary(level + 1);
    Nest chain(*this, 0);
    while (true) {
      bool matched = false;
      for (std::string_view op : levels()[level].ops) {
        if (check_punct(op)) {
          chain.hold();
          const Token t = take();
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::Binary;
          e->text = std::string(op);
          e->line = t.line;
          e->kids.push_back(std::move(lhs));
          e->kids.push_back(parse_binary(level + 1));
          lhs = std::move(e);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  ExprPtr parse_unary() {
    static const char* kPrefix[] = {"-", "!", "~", "*", "&", "++", "--", "+"};
    for (const char* op : kPrefix) {
      if (check_punct(op)) {
        const Token t = take();
        const Nest nest(*this);
        if (t.text == "+") return parse_unary();  // unary plus: no-op
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Unary;
        e->text = t.text;
        e->line = t.line;
        e->kids.push_back(parse_unary());
        return e;
      }
    }
    if (check_ident("sizeof")) {
      const Token t = take();
      auto e = std::make_unique<Expr>();
      e->line = t.line;
      expect_punct("(", "after sizeof");
      if (is_type_start()) {
        e->kind = ExprKind::SizeofType;
        e->type = parse_type();
      } else {
        e->kind = ExprKind::SizeofType;
        ExprPtr inner = parse_expr();  // sizeof(expr): treated as 8 bytes
        e->type = Type::make(BaseType::Double);
        e->kids.push_back(std::move(inner));
      }
      expect_punct(")", "after sizeof");
      return e;
    }
    // Cast: '(' type ')' unary
    if (check_punct("(") && is_type_start(1)) {
      // Lookahead: a cast's type is followed by ')'; make sure it is not a
      // parenthesised expression starting with a constructor-ish name.
      const std::size_t save = pos_;
      take();  // (
      try {
        Type t = parse_type();
        if (accept_punct(")")) {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::Cast;
          e->type = t;
          e->line = peek().line;
          const Nest nest(*this);
          e->kids.push_back(parse_unary());
          return e;
        }
      } catch (const ParseError&) {
        // fall through to expression
      }
      pos_ = save;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    Nest chain(*this, 0);
    while (true) {
      if (check_punct("(")) {
        e = finish_call(std::move(e), nullptr, nullptr);
      } else if (check_punct("<<<")) {
        take();
        ExprPtr grid = parse_assignment();
        expect_punct(",", "between launch configuration arguments");
        ExprPtr block = parse_assignment();
        if (!accept_punct(">>>")) {
          syntax_error("expected '>>>' after kernel launch configuration");
        }
        e = finish_call(std::move(e), std::move(grid), std::move(block));
      } else if (accept_punct("[")) {
        auto idx = std::make_unique<Expr>();
        idx->kind = ExprKind::Index;
        idx->line = e->line;
        idx->kids.push_back(std::move(e));
        idx->kids.push_back(parse_expr());
        expect_punct("]", "after index");
        e = std::move(idx);
      } else if (check_punct(".") || check_punct("->")) {
        const Token t = take();
        auto m = std::make_unique<Expr>();
        m->kind = ExprKind::Member;
        m->arrow = t.text == "->";
        m->line = t.line;
        m->kids.push_back(std::move(e));
        m->text = expect_name("member name");
        e = std::move(m);
      } else if (check_punct("++") || check_punct("--")) {
        const Token t = take();
        auto u = std::make_unique<Expr>();
        u->kind = ExprKind::Unary;
        u->text = t.text;
        u->postfix = true;
        u->line = t.line;
        u->kids.push_back(std::move(e));
        e = std::move(u);
      } else {
        return e;
      }
      chain.hold();
    }
  }

  ExprPtr finish_call(ExprPtr callee, ExprPtr grid, ExprPtr block) {
    if (callee->kind != ExprKind::Ident) {
      syntax_error("called object is not a function name");
    }
    auto call = std::make_unique<Expr>();
    call->kind = ExprKind::Call;
    call->text = callee->text;
    call->int_value = callee->int_value;  // template rank for policy types
    call->line = callee->line;
    call->launch_grid = std::move(grid);
    call->launch_block = std::move(block);
    expect_punct("(", "in call");
    if (!check_punct(")")) {
      do {
        if (check_punct("{")) {
          call->kids.push_back(parse_init_list());
        } else {
          call->kids.push_back(parse_assignment());
        }
      } while (accept_punct(","));
    }
    expect_punct(")", "after call arguments");
    return call;
  }

  ExprPtr parse_init_list() {
    const Nest nest(*this);
    expect_punct("{", "to open initializer list");
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::InitList;
    e->line = peek().line;
    if (!check_punct("}")) {
      do {
        if (check_punct("{")) {
          e->kids.push_back(parse_init_list());
        } else {
          e->kids.push_back(parse_assignment());
        }
      } while (accept_punct(","));
    }
    expect_punct("}", "to close initializer list");
    return e;
  }

  ExprPtr parse_lambda() {
    const Token open = take();  // [
    if (!accept_punct("=")) {
      syntax_error("only capture-by-value lambdas ('[=]') are supported");
    }
    expect_punct("]", "after lambda capture");
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::LambdaExpr;
    e->line = open.line;
    parse_lambda_params_and_body(*e);
    return e;
  }

  void parse_lambda_params_and_body(Expr& e) {
    expect_punct("(", "to open lambda parameter list");
    if (!check_punct(")")) {
      do {
        Expr::Param p;
        p.type = parse_type();
        if (accept_punct("&")) p.by_ref = true;
        p.name = expect_name("lambda parameter name");
        e.lambda_params.push_back(std::move(p));
      } while (accept_punct(","));
    }
    expect_punct(")", "after lambda parameters");
    e.lambda_body = parse_block();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    if (t.is_punct("[")) return parse_lambda();
    if (t.is_punct("(")) {
      take();
      ExprPtr e = parse_expr();
      expect_punct(")", "after parenthesised expression");
      return e;
    }
    if (t.kind == TokKind::IntLit) {
      const Token lit = take();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::IntLit;
      e->line = lit.line;
      e->text = lit.text;
      std::string digits = lit.text;
      while (!digits.empty() &&
             (digits.back() == 'u' || digits.back() == 'U' ||
              digits.back() == 'l' || digits.back() == 'L')) {
        digits.pop_back();
      }
      e->int_value = std::strtoll(digits.c_str(), nullptr, 0);
      return e;
    }
    if (t.kind == TokKind::FloatLit) {
      const Token lit = take();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::FloatLit;
      e->line = lit.line;
      e->text = lit.text;
      e->float_value = std::strtod(lit.text.c_str(), nullptr);
      return e;
    }
    if (t.kind == TokKind::StringLit) {
      const Token lit = take();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::StringLit;
      e->line = lit.line;
      e->text = lit.text;
      return e;
    }
    if (t.kind == TokKind::CharLit) {
      const Token lit = take();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::CharLit;
      e->line = lit.line;
      e->text = lit.text;
      e->int_value = lit.text.empty() ? 0 : lit.text[0];
      return e;
    }
    if (t.kind == TokKind::Identifier) {
      if (t.text == "KOKKOS_LAMBDA") {
        const Token kw = take();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::LambdaExpr;
        e->line = kw.line;
        parse_lambda_params_and_body(*e);
        return e;
      }
      // Identifier, possibly qualified (Kokkos::parallel_for) and possibly
      // carrying template arguments we normalise away.
      Token id = take();
      std::string name = id.text;
      while (check_punct("::")) {
        take();
        name += "::" + expect_name("after '::'");
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Ident;
      e->text = name;
      e->line = id.line;
      // Template suffix on policy types: MDRangePolicy<Kokkos::Rank<2>>.
      if (check_punct("<") && (name == "Kokkos::MDRangePolicy" ||
                               name == "Kokkos::RangePolicy" ||
                               name == "MDRangePolicy" ||
                               name == "RangePolicy")) {
        take();  // <
        int rank = 1;
        int depth = 1;
        while (depth > 0 && !at_eof()) {
          const Token& in = peek();
          if (in.is_punct("<")) ++depth;
          if (in.is_punct(">")) --depth;
          if (in.is_punct(">>")) depth -= 2;
          if (in.kind == TokKind::IntLit) {
            rank = static_cast<int>(std::strtoll(in.text.c_str(), nullptr, 0));
          }
          take();
        }
        e->int_value = rank;
      }
      return e;
    }
    syntax_error("expected expression, found '" + describe(t) + "'");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // nesting levels currently held (see Nest)
  std::string path_;
  TranslationUnit* tu_ = nullptr;
  std::set<std::string> struct_names_;
};

}  // namespace

TranslationUnit parse_tokens(std::vector<codeanal::Token> tokens,
                             const std::string& path,
                             const std::set<std::string>& known_structs) {
  return Parser(std::move(tokens), path, known_structs).run();
}

TranslationUnit parse_source(std::string_view source,
                             const std::string& path) {
  codeanal::LexResult lexed = codeanal::lex(source);
  TranslationUnit tu = parse_tokens(std::move(lexed.tokens), path);
  for (const auto& err : lexed.errors) {
    tu.diags.error(DiagCategory::CodeSyntax, err.message, path, err.line);
  }
  return tu;
}

}  // namespace pareval::minic
