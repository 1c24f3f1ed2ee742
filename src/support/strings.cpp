#include "support/strings.hpp"

#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace pareval::support {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      std::size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.emplace_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) out.emplace_back(s.substr(start));
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (true) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out += s.substr(pos);
      return out;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string format_number(double v, int digits) {
  if (std::isnan(v)) return "nan";
  if (v == static_cast<long long>(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string u64_to_hex(std::uint64_t v) {
  return strfmt("%016llx", static_cast<unsigned long long>(v));
}

namespace {

// Value of every hex digit byte, -1 for any other byte.
constexpr std::array<std::int8_t, 256> make_hex_values() {
  std::array<std::int8_t, 256> values{};
  for (auto& v : values) v = -1;
  for (int i = 0; i < 10; ++i) values['0' + i] = static_cast<std::int8_t>(i);
  for (int i = 0; i < 6; ++i) {
    values['a' + i] = static_cast<std::int8_t>(10 + i);
    values['A' + i] = static_cast<std::int8_t>(10 + i);
  }
  return values;
}

constexpr std::array<std::int8_t, 256> kHexValues = make_hex_values();

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Sextet value of every byte, -1 for a byte outside the alphabet ('='
// included: padding is only ever read by position).
constexpr std::array<std::int8_t, 256> make_b64_values() {
  std::array<std::int8_t, 256> values{};
  for (auto& v : values) v = -1;
  for (int i = 0; i < 64; ++i) {
    values[static_cast<unsigned char>(kB64Alphabet[i])] =
        static_cast<std::int8_t>(i);
  }
  return values;
}

constexpr std::array<std::int8_t, 256> kB64Values = make_b64_values();

int b64_value(char c) { return kB64Values[static_cast<unsigned char>(c)]; }

}  // namespace

bool u64_from_hex(std::string_view hex, std::uint64_t* out) {
  // Strict: strtoull would accept signs, whitespace, and "0x" prefixes,
  // any of which would silently mangle a hand-edited cache key.
  if (hex.empty() || hex.size() > 16) return false;
  std::uint64_t v = 0;
  int bad = 0;  // goes negative on the first non-digit
  for (const char c : hex) {
    const int digit = kHexValues[static_cast<unsigned char>(c)];
    bad |= digit;
    v = (v << 4) | static_cast<std::uint64_t>(digit & 0xf);
  }
  if (bad < 0) return false;
  *out = v;
  return true;
}

std::string base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += kB64Alphabet[(v >> 6) & 63];
    out += kB64Alphabet[v & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const unsigned v = static_cast<unsigned char>(bytes[i]) << 16;
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += "==";
  } else if (rest == 2) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8);
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += kB64Alphabet[(v >> 6) & 63];
    out += '=';
  }
  return out;
}

bool base64_decode(std::string_view text, std::string* out) {
  out->clear();
  const auto reject = [out] {
    out->clear();
    return false;
  };
  if (text.size() % 4 != 0) return false;
  if (text.empty()) return true;
  out->resize(text.size() / 4 * 3);
  char* dst = out->data();
  const char* src = text.data();
  const char* const last = src + text.size() - 4;
  // Every quad but the last is four alphabet bytes: one table lookup
  // each, and a negative OR flags any byte outside the alphabet.
  for (; src != last; src += 4, dst += 3) {
    const int a = b64_value(src[0]), b = b64_value(src[1]);
    const int c = b64_value(src[2]), d = b64_value(src[3]);
    if ((a | b | c | d) < 0) return reject();
    const unsigned v = (static_cast<unsigned>(a) << 18) |
                       (static_cast<unsigned>(b) << 12) |
                       (static_cast<unsigned>(c) << 6) |
                       static_cast<unsigned>(d);
    dst[0] = static_cast<char>(v >> 16);
    dst[1] = static_cast<char>(v >> 8);
    dst[2] = static_cast<char>(v);
  }
  int pad = 0;
  if (src[3] == '=') pad = src[2] == '=' ? 2 : 1;
  unsigned v = 0;
  for (int k = 0; k < 4; ++k) {
    const int sextet = k < 4 - pad ? b64_value(src[k]) : 0;
    if (sextet < 0) return reject();
    v = (v << 6) | static_cast<unsigned>(sextet);
  }
  // Stray low bits mean this was not produced by encode: reject rather
  // than silently truncate.
  if ((pad == 2 && (v & 0xffff) != 0) || (pad == 1 && (v & 0xff) != 0)) {
    return reject();
  }
  dst[0] = static_cast<char>(v >> 16);
  dst[1] = static_cast<char>(v >> 8);
  dst[2] = static_cast<char>(v);
  out->resize(out->size() - static_cast<std::size_t>(pad));
  return true;
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace pareval::support
