#include "support/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pareval::support {

namespace {
const Json kNull;
const std::string kEmpty;

// Length of the leading run of `n` bytes at `p` that a JSON string holds
// verbatim: every byte except '"', '\\' and the control bytes below 0x20.
// Eight bytes at a time: a word is skipped whole when none of its bytes
// can be special (the SWAR zero-byte test has no false negatives), and a
// word that may hold one is finished bytewise.
[[gnu::always_inline]] inline std::size_t plain_run(const char* p,
                                                    std::size_t n) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + j, 8);
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t slash = w ^ (kOnes * '\\');
    const std::uint64_t special = ((quote - kOnes) & ~quote) |
                                  ((slash - kOnes) & ~slash) |
                                  ((w - kOnes * 0x20) & ~w);
    if ((special & kHigh) != 0) break;
  }
  for (; j < n; ++j) {
    const unsigned char u = static_cast<unsigned char>(p[j]);
    if (u == '"' || u == '\\' || u < 0x20) break;
  }
  return j;
}
}  // namespace

const std::string& Json::as_string() const noexcept {
  return type_ == Type::String ? str_ : kEmpty;
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const noexcept {
  if (type_ != Type::Array || i >= arr_.size()) return kNull;
  return arr_[i];
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const Member& m : obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Json& Json::operator[](std::string_view key) const noexcept {
  const Json* j = find(key);
  return j != nullptr ? *j : kNull;
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  for (Member& m : obj_) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  arr_.push_back(std::move(value));
}

// --- serialization ----------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  std::size_t i = 0;
  while (true) {
    // UTF-8 (and any high byte) passes through verbatim with the run.
    const std::size_t run = plain_run(s.data() + i, s.size() - i);
    out.append(s, i, run);
    i += run;
    if (i == s.size()) break;
    const char c = s[i++];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned char>(c));
        out += buf;
      }
    }
  }
  out += '"';
}

void dump_double(double v, std::string& out) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf
    out += "null";
    return;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
  // Keep the double/int distinction visible so a round trip restores the
  // same Json type ("1" parses as Int, "1.0" as Double).
  if (std::strpbrk(buf, ".eEn") == nullptr) out += ".0";
}

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      return;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Type::Int: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld", int_);
      out += buf;
      return;
    }
    case Type::Double:
      dump_double(dbl_, out);
      return;
    case Type::String:
      dump_string(str_, out);
      return;
    case Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& j : arr_) {
        if (!first) out += ',';
        first = false;
        j.dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      out += '{';
      bool first = true;
      for (const Member& m : obj_) {
        if (!first) out += ',';
        first = false;
        dump_string(m.first, out);
        out += ':';
        m.second.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_to(out);
  return out;
}

// --- parsing ----------------------------------------------------------------

struct Json::Parser {
  static constexpr int kMaxDepth = 192;

  std::string_view s;
  std::size_t i = 0;
  std::string err;
  // Elements and members of the arrays and objects still open, innermost
  // last. A container moves its own tail into one exactly sized vector
  // when it closes, instead of growing its vector element by element.
  std::vector<Json> elems;
  std::vector<Member> members;

  bool fail(const char* msg) {
    if (err.empty()) {
      err = "byte " + std::to_string(i) + ": " + msg;
    }
    return false;
  }

  void skip_ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
      ++i;
    }
  }

  bool consume(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return fail("invalid literal");
    i += word.size();
    return true;
  }

  static void encode_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool parse_hex4(unsigned* out) {
    if (i + 4 > s.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s[i + k];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    i += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    while (true) {
      const std::size_t run = plain_run(s.data() + i, s.size() - i);
      out->append(s.data() + i, run);
      i += run;
      if (i >= s.size()) return fail("unterminated string");
      const char c = s[i++];
      if (c == '"') return true;
      if (c != '\\') return fail("raw control character in string");
      if (i >= s.size()) return fail("unterminated escape");
      const char e = s[i++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xd800 && cp < 0xdc00 && s.substr(i, 2) == "\\u") {
            i += 2;
            unsigned lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xdc00 || lo > 0xdfff) return fail("bad surrogate pair");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          }
          encode_utf8(cp, *out);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_number(Json* out) {
    const std::size_t start = i;
    if (consume('-')) {
    }
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    bool integral = true;
    if (consume('.')) {
      integral = false;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      integral = false;
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    const std::string text(s.substr(start, i - start));
    if (text.empty() || text == "-") return fail("invalid number");
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno == 0 && end == text.c_str() + text.size()) {
        *out = Json(v);
        return true;
      }
      // fall through to double on int64 overflow
    }
    errno = 0;
    const double d = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return fail("invalid number");
    *out = Json(d);
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    switch (s[i]) {
      case 'n':
        return literal("null") && (*out = Json(), true);
      case 't':
        return literal("true") && (*out = Json(true), true);
      case 'f':
        return literal("false") && (*out = Json(false), true);
      case '"':
        out->type_ = Type::String;
        return parse_string(&out->str_);
      case '[': {
        ++i;
        out->type_ = Type::Array;
        skip_ws();
        if (consume(']')) return true;
        if (elems.capacity() == 0) elems.reserve(16);
        const std::size_t base = elems.size();
        while (true) {
          Json elem;
          if (!parse_value(&elem, depth + 1)) return false;
          elems.push_back(std::move(elem));
          skip_ws();
          if (consume(']')) break;
          if (!consume(',')) return fail("expected ',' or ']'");
        }
        out->arr_.assign(std::make_move_iterator(elems.begin() + base),
                         std::make_move_iterator(elems.end()));
        elems.erase(elems.begin() + base, elems.end());
        return true;
      }
      case '{': {
        ++i;
        out->type_ = Type::Object;
        skip_ws();
        if (consume('}')) return true;
        if (members.capacity() == 0) members.reserve(16);
        const std::size_t base = members.size();
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (!consume(':')) return fail("expected ':'");
          Json value;
          if (!parse_value(&value, depth + 1)) return false;
          // A repeated key keeps its first position, last value wins
          // (what set() does).
          auto m = members.begin() + base;
          while (m != members.end() && m->first != key) ++m;
          if (m != members.end()) {
            m->second = std::move(value);
          } else {
            members.emplace_back(std::move(key), std::move(value));
          }
          skip_ws();
          if (consume('}')) break;
          if (!consume(',')) return fail("expected ',' or '}'");
        }
        out->obj_.assign(std::make_move_iterator(members.begin() + base),
                         std::make_move_iterator(members.end()));
        members.erase(members.begin() + base, members.end());
        return true;
      }
      default:
        return parse_number(out);
    }
  }
};

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser p;
  p.s = text;
  Json out;
  if (!p.parse_value(&out, 0)) {
    if (error != nullptr) *error = p.err;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    p.fail("trailing characters after document");
    if (error != nullptr) *error = p.err;
    return std::nullopt;
  }
  return out;
}

}  // namespace pareval::support
