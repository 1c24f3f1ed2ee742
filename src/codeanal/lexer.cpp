#include "codeanal/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace pareval::codeanal {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators; the lexer picks the longest match.
constexpr std::array<std::string_view, 28> kMultiPuncts = {
    "<<<", ">>>", "<<=", ">>=", "...", "->*",
    "::",  "->",  "++",  "--",  "<<",  ">>",  "<=", ">=", "==", "!=",
    "&&",  "||",  "+=",  "-=",  "*=",  "/=",  "%=", "&=", "|=", "^=",
    "##",  ".*"};

}  // namespace

std::string strip_comments(std::string_view src) {
  std::string out;
  out.reserve(src.size());
  std::size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') out += '\n';  // preserve line numbers
        ++i;
      }
      i = i + 2 <= src.size() ? i + 2 : src.size();
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      out += src[i++];
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) {
          out += src[i++];
        }
        if (i < src.size()) out += src[i++];
      }
      if (i < src.size()) out += src[i++];
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

LexResult lex(std::string_view src) {
  LexResult result;
  const std::size_t n = src.size();
  int line = 1, col = 1;
  std::size_t i = 0;

  // Move past src[i, j), which holds no newline.
  auto skip_to = [&](std::size_t j) {
    col += static_cast<int>(j - i);
    i = j;
  };
  // Move past src[i, j), which may span lines.
  auto move_to = [&](std::size_t j) {
    const std::string_view run = src.substr(i, j - i);
    const std::size_t last_nl = run.rfind('\n');
    if (last_nl == std::string_view::npos) {
      col += static_cast<int>(run.size());
    } else {
      line += static_cast<int>(std::count(run.begin(), run.end(), '\n'));
      col = static_cast<int>(run.size() - last_nl);
    }
    i = j;
  };
  auto digits_end = [&](std::size_t j) {
    while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) ++j;
    return j;
  };
  // Push src[begin, i) as one token starting at (line, tc).
  auto push_slice = [&](TokKind kind, std::size_t begin, int tc) {
    result.tokens.push_back(
        Token{kind, std::string(src.substr(begin, i - begin)), line, tc, {}});
  };

  bool at_line_start = true;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      at_line_start = true;
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      skip_to(i + 1);
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      skip_to(std::min(src.find('\n', i), n));
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t close = src.find("*/", i + 2);
      if (close == std::string_view::npos) {
        result.errors.push_back({"unterminated block comment", line});
        move_to(n);
      } else {
        move_to(close + 2);
      }
      continue;
    }
    // Preprocessor lines (only when '#' is the first non-space on the
    // line). Each backslash-newline folds to one space.
    if (c == '#' && at_line_start) {
      const int tl = line, tc = col;
      std::string text;
      std::size_t run = i;
      for (;;) {
        const std::size_t nl = std::min(src.find('\n', i), n);
        if (nl == n || src[nl - 1] != '\\') {
          skip_to(nl);
          break;
        }
        text.append(src.substr(run, nl - 1 - run)).push_back(' ');
        i = run = nl + 1;
        ++line;
        col = 1;
      }
      text.append(src.substr(run, i - run));
      result.tokens.push_back(
          Token{TokKind::PpDirective, std::move(text), tl, tc, {}});
      continue;
    }
    at_line_start = false;
    const std::size_t begin = i;
    const int tc = col;
    // Identifiers / keywords.
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      skip_to(j);
      push_slice(TokKind::Identifier, begin, tc);
      continue;
    }
    // Numbers (also handles ".5" floats).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      bool is_float = false;
      std::size_t j = i;
      if (c == '0' && i + 1 < n && (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        j += 2;
        while (j < n && std::isxdigit(static_cast<unsigned char>(src[j]))) {
          ++j;
        }
      } else {
        j = digits_end(j);
        if (j < n && src[j] == '.') {
          is_float = true;
          j = digits_end(j + 1);
        }
        if (j < n && (src[j] == 'e' || src[j] == 'E')) {
          is_float = true;
          ++j;
          if (j < n && (src[j] == '+' || src[j] == '-')) ++j;
          j = digits_end(j);
        }
      }
      // Suffixes: u, l, f (any order/case). 'f' forces float.
      while (j < n && (src[j] == 'u' || src[j] == 'U' || src[j] == 'l' ||
                       src[j] == 'L' || src[j] == 'f' || src[j] == 'F')) {
        if (src[j] == 'f' || src[j] == 'F') is_float = true;
        ++j;
      }
      skip_to(j);
      push_slice(is_float ? TokKind::FloatLit : TokKind::IntLit, begin, tc);
      continue;
    }
    // Strings and chars: each run of plain bytes is appended at once.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int tl = line;
      skip_to(i + 1);
      std::string value;
      bool closed = false;
      while (i < n) {
        std::size_t j = i;
        while (j < n && src[j] != quote && src[j] != '\n' && src[j] != '\\') {
          ++j;
        }
        value.append(src.substr(i, j - i));
        skip_to(j);
        if (i == n || src[i] == '\n') break;
        if (src[i] == quote) {
          skip_to(i + 1);
          closed = true;
          break;
        }
        if (i + 1 == n) {  // a backslash ending the source is plain
          value += '\\';
          skip_to(n);
          break;
        }
        const char e = src[i + 1];
        switch (e) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case 'r': value += '\r'; break;
          case '0': value += '\0'; break;
          default: value += e; break;  // \\, \", \' and unknown escapes
        }
        move_to(i + 2);  // an escaped newline continues the literal
      }
      if (!closed) {
        result.errors.push_back(
            {quote == '"' ? "unterminated string literal"
                          : "unterminated character literal",
             tl});
      }
      result.tokens.push_back(Token{
          quote == '"' ? TokKind::StringLit : TokKind::CharLit,
          std::move(value), tl, tc, {}});
      continue;
    }
    // Punctuators, longest first; only those starting with `c` can match.
    std::size_t len = 0;
    const std::string_view rest = src.substr(i);
    for (std::string_view p : kMultiPuncts) {
      if (p[0] == c && p.size() > len && rest.starts_with(p)) len = p.size();
    }
    static constexpr std::string_view kSingles = "+-*/%<>=!&|^~?:;,.(){}[]";
    if (len == 0 && kSingles.find(c) != std::string_view::npos) len = 1;
    if (len != 0) {
      skip_to(i + len);
      push_slice(TokKind::Punct, begin, tc);
      continue;
    }
    result.errors.push_back(
        {std::string("unexpected character '") + c + "'", line});
    skip_to(i + 1);
  }
  result.tokens.push_back(Token{TokKind::EndOfFile, "", line, col, {}});
  return result;
}

}  // namespace pareval::codeanal
