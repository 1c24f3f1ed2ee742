#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace ps = pareval::support;

TEST(Rng, DeterministicForSameSeed) {
  ps::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  ps::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  ps::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  ps::Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  ps::Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  ps::Rng r(5);
  const std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 12000; ++i) {
    const std::size_t idx = r.weighted_index(w);
    ASSERT_LT(idx, w.size());
    counts[idx]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  ps::Rng r(5);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(r.weighted_index(w), w.size());
}

TEST(Rng, StableHashIsStable) {
  EXPECT_EQ(ps::stable_hash(std::string("abc")),
            ps::stable_hash(std::string("abc")));
  EXPECT_NE(ps::stable_hash(std::string("abc")),
            ps::stable_hash(std::string("abd")));
}

TEST(Rng, SplitProducesIndependentStreams) {
  ps::Rng parent(9);
  ps::Rng child = parent.split();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) {
    seen.insert(parent.next_u64());
    seen.insert(child.next_u64());
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Strings, Split) {
  const auto parts = ps::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitLinesHandlesCrlfAndTrailing) {
  const auto lines = ps::split_lines("one\r\ntwo\nthree\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[2], "three");
}

TEST(Strings, SplitWs) {
  const auto parts = ps::split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, Trim) {
  EXPECT_EQ(ps::trim("  x \t"), "x");
  EXPECT_EQ(ps::trim(""), "");
  EXPECT_EQ(ps::trim(" \n "), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ps::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ps::replace_all("hello", "xyz", "q"), "hello");
}

TEST(Strings, FormatNumber) {
  EXPECT_EQ(ps::format_number(0.5, 2), "0.5");
  EXPECT_EQ(ps::format_number(3.0), "3");
  EXPECT_EQ(ps::format_number(0.123456, 2), "0.12");
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(ps::strfmt("%d-%s", 7, "x"), "7-x");
}

TEST(Table, RendersAlignedColumns) {
  ps::TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(HeatMap, EmptyCellsRenderBlank) {
  ps::HeatMap hm("title", {"r1", "r2"}, {"c1", "c2"});
  hm.set(0, 0, 0.5);
  EXPECT_FALSE(hm.at(1, 1).has_value());
  EXPECT_EQ(*hm.at(0, 0), 0.5);
  const std::string out = hm.render();
  EXPECT_NE(out.find("0.5"), std::string::npos);
}

TEST(HeatMap, OutOfRangeSetThrows) {
  ps::HeatMap hm("t", {"r"}, {"c"});
  EXPECT_THROW(hm.set(1, 0, 1.0), std::out_of_range);
}

TEST(HeatMap, SideBySideJoinsTitles) {
  ps::HeatMap a("left", {"r"}, {"c"});
  ps::HeatMap b("right", {"r"}, {"c"});
  const std::string out = ps::render_side_by_side({a, b});
  EXPECT_NE(out.find("left"), std::string::npos);
  EXPECT_NE(out.find("right"), std::string::npos);
}

TEST(Par, ParallelForCoversRange) {
  std::vector<int> hit(1000, 0);
  ps::parallel_for(0, hit.size(), [&](std::size_t i) { hit[i]++; });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Par, ParallelForPropagatesException) {
  EXPECT_THROW(
      ps::parallel_for(0, 100,
                       [&](std::size_t i) {
                         if (i == 50) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(Par, EmptyRangeIsNoop) {
  ps::parallel_for(5, 5, [&](std::size_t) { FAIL(); });
}

// --- Json -------------------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  for (const char* text :
       {"null", "true", "false", "0", "-7", "9223372036854775807",
        "\"hello\"", "1.5", "-0.25", "[]", "{}"}) {
    const auto j = ps::Json::parse(text);
    ASSERT_TRUE(j.has_value()) << text;
    EXPECT_EQ(j->dump(), text);
  }
}

TEST(Json, IntegersAreExact) {
  const auto j = ps::Json::parse("[9007199254740993,-9007199254740993]");
  ASSERT_TRUE(j.has_value());
  // Beyond double's 2^53 integer range: must not round.
  EXPECT_EQ(j->at(0).as_int(), 9007199254740993LL);
  EXPECT_EQ(j->at(1).as_int(), -9007199254740993LL);

  // A double truncates toward zero while it fits in long long; outside
  // that range, or non-finite, it reads as the fallback.
  const auto d = ps::Json::parse("[2.9,-2.9,1e300,-1e300,9.3e18,-9.2e18]");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->at(0).as_int(7), 2);
  EXPECT_EQ(d->at(1).as_int(7), -2);
  EXPECT_EQ(d->at(2).as_int(7), 7);
  EXPECT_EQ(d->at(3).as_int(7), 7);
  EXPECT_EQ(d->at(4).as_int(7), 7);
  EXPECT_EQ(d->at(5).as_int(7), -9200000000000000000LL);
  EXPECT_EQ(ps::Json(-0x1p63).as_int(7), LLONG_MIN);
  EXPECT_EQ(ps::Json(0x1p63).as_int(7), 7);
  EXPECT_EQ(ps::Json(std::numeric_limits<double>::infinity()).as_int(7), 7);
  EXPECT_EQ(ps::Json(std::numeric_limits<double>::quiet_NaN()).as_int(7), 7);
}

TEST(Json, DoublesRoundTripBitExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 123456.789012345678, 1e-300,
                         -2.5e17, 3.0}) {
    const std::string text = ps::Json(v).dump();
    const auto back = ps::Json::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->as_double(), v) << text;
    // "3.0" must stay a Double (not collapse to the Int 3) so that
    // operator== on round-tripped values holds.
    EXPECT_EQ(back->type(), ps::Json::Type::Double) << text;
  }
}

TEST(Json, StringEscapes) {
  const std::string nasty = "a\"b\\c\nd\te\x01f/\xc3\xa9";
  const std::string text = ps::Json(nasty).dump();
  const auto back = ps::Json::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), nasty);

  // Escapes we accept but never emit.
  const auto unicode = ps::Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\\/\"");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->as_string(), "A\xc3\xa9\xf0\x9f\x98\x80/");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  ps::Json obj = ps::Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("zebra", 3);  // replace keeps the original position
  EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
  EXPECT_EQ(obj["zebra"].as_int(), 3);
  EXPECT_EQ(obj["missing"].type(), ps::Json::Type::Null);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, NestedStructureRoundTrip) {
  const char* text =
      "{\"a\":[1,2,{\"b\":\"c\"}],\"d\":{\"e\":[true,null,1.5]}}";
  const auto j = ps::Json::parse(text);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->dump(), text);
  EXPECT_EQ((*j)["a"].at(2)["b"].as_string(), "c");
  EXPECT_EQ((*j)["d"]["e"].size(), 3u);
}

TEST(Json, ParseErrorsAreRejected) {
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "01e",
        "1 2", "[1] trailing", "{\"a\" 1}", "\"\\q\"", "nan"}) {
    EXPECT_FALSE(ps::Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    error.clear();
  }
  // Deep nesting is bounded, not a stack overflow.
  EXPECT_FALSE(
      ps::Json::parse(std::string(400, '[') + std::string(400, ']'))
          .has_value());
}

// --- codec differentials ------------------------------------------------------
//
// The base64 decoder and the JSON string scan/emit work a run or a table
// lookup at a time. Each is checked here against a copy of the
// byte-at-a-time loop it replaced, which defines the accepted inputs, the
// bytes produced, and the error text.

namespace {

std::string seeded_bytes(std::size_t n, std::uint64_t seed) {
  ps::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next_u64() & 0xffu);
  return out;
}

/// The per-digit branching hex parser.
std::optional<std::uint64_t> oracle_u64_from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return std::nullopt;
  }
  return v;
}

int oracle_b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

/// The per-quad, push_back base64 decoder.
std::optional<std::string> oracle_base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  std::string out;
  for (std::size_t i = 0; i < text.size(); i += 4) {
    const bool last = i + 4 == text.size();
    int pad = 0;
    if (last && text[i + 3] == '=') pad = text[i + 2] == '=' ? 2 : 1;
    int vals[4] = {0, 0, 0, 0};
    for (int k = 0; k < 4 - pad; ++k) {
      vals[k] = oracle_b64_value(text[i + static_cast<std::size_t>(k)]);
      if (vals[k] < 0) return std::nullopt;
    }
    const unsigned v = (static_cast<unsigned>(vals[0]) << 18) |
                       (static_cast<unsigned>(vals[1]) << 12) |
                       (static_cast<unsigned>(vals[2]) << 6) |
                       static_cast<unsigned>(vals[3]);
    if (pad == 2 && (v & 0xffff) != 0) return std::nullopt;
    if (pad == 1 && (v & 0xff) != 0) return std::nullopt;
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

/// base64_decode as an optional: the decoded bytes, or nullopt on reject
/// (when `*out` must also be left empty).
std::optional<std::string> decode(std::string_view text) {
  std::string out = "stale";
  if (!ps::base64_decode(text, &out)) {
    EXPECT_TRUE(out.empty()) << "rejected \"" << text << "\" left output";
    return std::nullopt;
  }
  return out;
}

/// The per-byte JSON string emitter.
std::string oracle_dump_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + '"';
}

/// The per-byte JSON string scanner, for a document that is one string
/// (optionally followed by whitespace): the decoded value, or the exact
/// "byte N: ..." error Json::parse reports.
struct OracleStringParse {
  std::string_view s;
  std::size_t i = 0;
  std::string err{};

  bool fail(const char* msg) {
    err = "byte " + std::to_string(i) + ": " + msg;
    return false;
  }

  bool hex4(unsigned* out) {
    if (i + 4 > s.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s[i + static_cast<std::size_t>(k)];
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

  static void utf8(unsigned cp, std::string& out) {
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

  bool scan(std::string* out) {
    ++i;  // opening quote
    while (true) {
      if (i >= s.size()) return fail("unterminated string");
      const char c = s[i++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return fail("raw control character in string");
        }
        *out += c;
        continue;
      }
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
          if (!hex4(&cp)) return false;
          if (cp >= 0xd800 && cp < 0xdc00 && s.substr(i, 2) == "\\u") {
            i += 2;
            unsigned lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xdc00 || lo > 0xdfff) return fail("bad surrogate pair");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          }
          utf8(cp, *out);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  /// "ok:<value>" or "err:<message>".
  static std::string run(std::string_view doc) {
    OracleStringParse p{doc};
    std::string value;
    if (!p.scan(&value)) return "err:" + p.err;
    while (p.i < doc.size() && (doc[p.i] == ' ' || doc[p.i] == '\t' ||
                                doc[p.i] == '\n' || doc[p.i] == '\r')) {
      ++p.i;
    }
    if (p.i != doc.size()) {
      p.fail("trailing characters after document");
      return "err:" + p.err;
    }
    return "ok:" + value;
  }
};

/// Json::parse of a one-string document, in OracleStringParse's shape.
std::string parse_string_doc(std::string_view doc) {
  std::string error;
  const auto j = ps::Json::parse(doc, &error);
  if (!j) return "err:" + error;
  if (!j->is_string()) return "not a string";
  return "ok:" + j->as_string();
}

/// A string mixing long plain runs, every escape the emitter writes, raw
/// control bytes, quotes, backslashes, and high (UTF-8) bytes.
std::string mixed_string(std::size_t n, std::uint64_t seed) {
  ps::Rng rng(seed);
  std::string out;
  while (out.size() < n) {
    const auto pick = rng.next_below(8);
    if (pick == 0) {
      out += static_cast<char>(rng.next_below(0x20));
    } else if (pick == 1) {
      out += "\"\\"[rng.next_below(2)];
    } else if (pick == 2) {
      out += static_cast<char>(0x80 + rng.next_below(0x80));
    } else {
      // A plain run of 0-40 printable bytes, so 8-byte words land both
      // wholly inside runs and straddling their ends.
      const auto len = rng.next_below(41);
      for (std::uint64_t k = 0; k < len; ++k) {
        char c = static_cast<char>(0x20 + rng.next_below(0x5f));
        if (c == '"' || c == '\\') c = 'x';
        out += c;
      }
    }
  }
  out.resize(n);
  return out;
}

}  // namespace

TEST(Hex, ParsesExactlyWhatTheBranchingParserDid) {
  const std::string digits = "0123456789abcDEF0";
  for (std::size_t len = 0; len <= digits.size(); ++len) {
    for (std::size_t pos = 0; pos < std::max<std::size_t>(len, 1); ++pos) {
      for (int b = 0; b < 256; ++b) {
        std::string text = digits.substr(0, len);
        if (len > 0) text[pos] = static_cast<char>(b);
        std::uint64_t got = 0;
        const bool ok = ps::u64_from_hex(text, &got);
        const auto want = oracle_u64_from_hex(text);
        ASSERT_EQ(ok, want.has_value()) << "byte " << b << " at " << pos;
        if (ok) {
          ASSERT_EQ(got, *want) << text;
        }
      }
    }
  }
}

TEST(Base64, RoundTripsEveryLengthUpTo300) {
  const std::string bytes = seeded_bytes(300, 0xb64);
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::string_view raw(bytes.data(), len);
    const std::string text = ps::base64_encode(raw);
    ASSERT_EQ(text.size(), (len + 2) / 3 * 4);
    const auto back = decode(text);
    ASSERT_TRUE(back.has_value()) << "length " << len;
    EXPECT_EQ(*back, raw) << "length " << len;
    EXPECT_EQ(back, oracle_base64_decode(text)) << "length " << len;
  }
}

TEST(Base64, AcceptsAndRejectsExactlyWhatTheBytewiseDecoderDid) {
  // Three 12-char inputs (no padding, "=" and "==" in the last quad);
  // every byte value at every position must be accepted or rejected
  // exactly as before, with the same bytes when accepted.
  for (const std::string& valid :
       {ps::base64_encode("ninebytes"), ps::base64_encode("8 bytes!"),
        ps::base64_encode("7 bytes")}) {
    ASSERT_EQ(valid.size(), 12u);
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (int b = 0; b < 256; ++b) {
        std::string text = valid;
        text[pos] = static_cast<char>(b);
        ASSERT_EQ(decode(text), oracle_base64_decode(text))
            << "byte " << b << " at " << pos << " of " << valid;
      }
    }
  }
  int accepted = 0;
  for (const char* text :
       {"", "A", "AB", "ABC", "ABCDE", "AB=C", "A=BC", "=ABC", "AB==CDEF",
        "ABC=DEFG", "A===", "====", "QR==", "QQ==", "QUI=", "QUJ=", "QUJD",
        "QUJDRA==", "QUJDRB==", "QUJDREU=", "QUJDREV=", "Q\nJD", "QUJD\n"}) {
    const auto got = decode(text);
    EXPECT_EQ(got, oracle_base64_decode(text)) << '"' << text << '"';
    accepted += got.has_value();
  }
  // "", "QQ==", "QUI=", "QUJD", "QUJDRA==", "QUJDREU=".
  EXPECT_EQ(accepted, 6);
}

TEST(Base64, DecodesALargePayloadLikeTheBytewiseDecoder) {
  const std::string bytes = seeded_bytes(std::size_t{1} << 16, 0x64);
  const std::string text = ps::base64_encode(bytes);
  EXPECT_EQ(decode(text), bytes);
  std::string flipped = text;
  flipped[text.size() / 2] = '*';
  EXPECT_EQ(decode(flipped), std::nullopt);
  EXPECT_EQ(oracle_base64_decode(flipped), std::nullopt);
}

TEST(JsonCodec, DumpMatchesBytewiseEmitterForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    for (const std::string& s :
         {std::string(1, static_cast<char>(b)),
          "plain run " + std::string(1, static_cast<char>(b)) + " and more",
          std::string(17, static_cast<char>(b))}) {
      EXPECT_EQ(ps::Json(s).dump(), oracle_dump_string(s)) << "byte " << b;
    }
  }
}

TEST(JsonCodec, LongMixedStringsDumpAndParseLikeTheBytewiseLoops) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string s = mixed_string(seed * 97, seed);
    const std::string text = ps::Json(s).dump();
    ASSERT_EQ(text, oracle_dump_string(s)) << "seed " << seed;
    ASSERT_EQ(parse_string_doc(text), "ok:" + s) << "seed " << seed;
    // Object keys take the same path as values.
    ps::Json obj = ps::Json::object();
    obj.set(s, s);
    const std::string obj_text = obj.dump();
    EXPECT_EQ(obj_text, "{" + text + ":" + text + "}");
    const auto back = ps::Json::parse(obj_text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ((*back)[s].as_string(), s);
  }
}

TEST(JsonCodec, ParsedContainersKeepOrderNestingAndLastDuplicate) {
  // Containers nest inside each other's open member and element lists.
  const char* nested =
      "[{\"a\":[1,{\"b\":[]},[2,3]],\"c\":{}},[],[[{}]],"
      "{\"d\":{\"e\":{\"f\":[true,null]}},\"g\":-1.5}]";
  const auto j = ps::Json::parse(nested);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->dump(), nested);
  EXPECT_EQ(j->size(), 4u);
  EXPECT_EQ(j->at(0)["a"].at(2).at(1).as_int(), 3);
  EXPECT_EQ(j->at(3)["d"]["e"]["f"].size(), 2u);
  // A repeated key keeps its first position and its last value, as set()
  // does; the repeat may follow a nested object with the same key.
  const auto dup = ps::Json::parse(
      "{\"a\":1,\"b\":{\"a\":5,\"a\":6},\"a\":3,\"c\":[],\"b\":2}");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->dump(), "{\"a\":3,\"b\":2,\"c\":[]}");
  ps::Json built = ps::Json::object();
  built.set("a", 1);
  built.set("b", 0);
  built.set("a", 3);
  built.set("c", ps::Json::array());
  built.set("b", 2);
  EXPECT_EQ(*dup, built);
  // Keys repeat across nesting levels without colliding.
  const char* shadowed = "{\"a\":1,\"b\":{\"a\":5,\"b\":[{\"a\":7}]}}";
  EXPECT_EQ(ps::Json::parse(shadowed)->dump(), shadowed);
  // A failure deep inside nested containers reports the same offset and
  // message as before.
  std::string error;
  EXPECT_FALSE(ps::Json::parse("[{\"a\":[1,{\"b\":[}]}]", &error));
  EXPECT_EQ(error, "byte 15: invalid number");
}

TEST(JsonCodec, ParseResultsAndErrorsMatchTheBytewiseScanner) {
  // Every byte value inside a string, at the start, middle and end of a
  // plain run: raw control bytes must fail at the same offset with the
  // same message, everything else must decode to the same value.
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    for (const std::string& doc :
         {"\"" + c + "\"", "\"abcdefghijk" + c + "lmnop\"",
          "\"0123456789abcdef" + c + "\"", "\"abc" + c}) {
      EXPECT_EQ(parse_string_doc(doc), OracleStringParse::run(doc))
          << "byte " << b << " in " << doc;
    }
  }
  // Every prefix of a document rich in escapes: unterminated strings,
  // unterminated and truncated escapes, cut surrogate pairs.
  const std::string rich =
      "\"plain text run \\\" \\\\ \\/ \\n\\r\\t\\b\\f \\u0041\\u00e9"
      "\\ud83d\\ude00 long plain run after the escapes \xc3\xa9\"";
  for (std::size_t cut = 1; cut <= rich.size(); ++cut) {
    const std::string doc = rich.substr(0, cut);
    EXPECT_EQ(parse_string_doc(doc), OracleStringParse::run(doc))
        << "prefix " << cut;
  }
  for (const char* doc :
       {"\"\\q\"", "\"\\u12G4\"", "\"\\ud83d\\u0041\"", "\"\\ud83dx\"",
        "\"abc\" x", "\"abcdefghijklmnopqrstuvwxyz\\", "\"\\u00"}) {
    EXPECT_EQ(parse_string_doc(doc), OracleStringParse::run(doc)) << doc;
  }
  EXPECT_EQ(parse_string_doc("\"abcdefghij\x01\""),
            "err:byte 12: raw control character in string");
  EXPECT_EQ(parse_string_doc("\"abcdefghij"),
            "err:byte 11: unterminated string");
}
