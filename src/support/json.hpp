#pragma once
// Minimal JSON value + parser/serializer for the harness's on-disk
// artifacts: shard files, merged sweeps, and the persistent score cache.
//
// Deliberately not a general-purpose library. The properties the sweep
// subsystem actually needs are guaranteed instead:
//  - objects preserve insertion order, so serialization is deterministic
//    (byte-identical files for identical values);
//  - integers round-trip exactly as long long (cache keys and seeds are
//    carried as hex strings, token counts as integers);
//  - doubles serialize with round-trip precision (shortest of %.15g/%.16g/
//    %.17g that parses back bit-identical), so TaskResult::avg_tokens
//    survives a save/load cycle under operator==.

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pareval::support {

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };
  using Member = std::pair<std::string, Json>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(long long v) : type_(Type::Int), int_(v) {}
  Json(double v) : type_(Type::Double), dbl_(v) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}

  static Json array() { Json j; j.type_ = Type::Array; return j; }
  static Json object() { Json j; j.type_ = Type::Object; return j; }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_number() const noexcept {
    return type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  /// A Double truncates toward zero; one that is non-finite or outside
  /// long long's range returns `fallback`, like a non-number.
  long long as_int(long long fallback = 0) const noexcept {
    if (type_ == Type::Int) return int_;
    if (type_ == Type::Double && dbl_ >= -0x1p63 && dbl_ < 0x1p63) {
      return static_cast<long long>(dbl_);
    }
    return fallback;
  }
  double as_double(double fallback = 0.0) const noexcept {
    if (type_ == Type::Double) return dbl_;
    if (type_ == Type::Int) return static_cast<double>(int_);
    return fallback;
  }
  const std::string& as_string() const noexcept;

  /// Array element count / object member count; 0 for scalars.
  std::size_t size() const noexcept;
  /// Array element by index (a shared null when out of range / not array).
  const Json& at(std::size_t i) const noexcept;
  const std::vector<Json>& items() const noexcept { return arr_; }

  /// Object member lookup; nullptr / a shared null when absent.
  const Json* find(std::string_view key) const noexcept;
  const Json& operator[](std::string_view key) const noexcept;
  const std::vector<Member>& members() const noexcept { return obj_; }

  /// Object append-or-replace (turns a Null into an Object).
  void set(std::string key, Json value);
  /// Array append (turns a Null into an Array).
  void push_back(Json value);

  /// Compact serialization (no whitespace). Non-finite doubles emit null.
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Strict parse of one JSON document (trailing garbage is an error).
  /// On failure returns nullopt and, when `error` is non-null, a
  /// "byte N: message" diagnostic.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

  bool operator==(const Json&) const = default;

 private:
  struct Parser;  // json.cpp: builds values in place

  Type type_ = Type::Null;
  bool bool_ = false;
  long long int_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<Member> obj_;
};

/// An index or count: a JSON integer in [0, INT_MAX]. A fraction, exponent
/// or int64 overflow (all of which parse as doubles), a negative value and
/// anything an int cast would wrap are rejected, leaving `*out` unchanged.
/// `Int` is the field's type (int or long long); the range is the same.
template <class Int>
bool index_from_json(const Json& j, Int* out) {
  if (j.type() != Json::Type::Int || j.as_int() < 0 ||
      j.as_int() > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<Int>(j.as_int());
  return true;
}

}  // namespace pareval::support
