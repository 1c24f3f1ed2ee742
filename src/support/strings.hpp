#pragma once
// Small string utilities shared across the harness. All functions are pure.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pareval::support {

/// Split on a single-character delimiter. Keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Split into lines, treating both "\n" and "\r\n" as terminators.
/// A trailing newline does not produce a final empty line.
std::vector<std::string> split_lines(std::string_view s);

/// Split on any run of whitespace. Never yields empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Strip leading and trailing whitespace (space, tab, \r, \n).
std::string_view trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Replace every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// ASCII lowercase.
std::string to_lower(std::string_view s);

/// True if `s` contains `needle`.
bool contains(std::string_view s, std::string_view needle);

/// Pad or truncate to exactly `width` columns (left-aligned).
std::string pad_right(std::string_view s, std::size_t width);
/// Pad to at least `width` columns (right-aligned); longer strings unchanged.
std::string pad_left(std::string_view s, std::size_t width);

/// Format a double with `digits` significant decimals, trimming trailing
/// zeros ("0.5" not "0.500000"); integral values print without a point.
std::string format_number(double v, int digits = 3);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-width lowercase hex encoding of a u64 ("%016llx") and its strict
/// inverse: exactly 1-16 hex digits, no sign/whitespace/"0x" accepted.
/// Shared by the persistent ScoreCache and the shard JSON codecs so keys
/// and seeds have one on-disk spelling.
std::string u64_to_hex(std::uint64_t v);
bool u64_from_hex(std::string_view hex, std::uint64_t* out);

/// Standard (RFC 4648) base64 with '=' padding, and its strict inverse:
/// decode rejects any string that is not exactly what encode produces
/// (bad alphabet, wrong padding, stray bits) by returning false and
/// leaving `*out` empty. Used to embed binary cache payloads (serialized
/// TU objects, link images) inside the JSON journal records.
std::string base64_encode(std::string_view bytes);
bool base64_decode(std::string_view text, std::string* out);

}  // namespace pareval::support
