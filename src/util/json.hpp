// Minimal JSON document model + recursive-descent parser for the
// machine-readable artifacts the project itself emits (BENCH_*.json
// records, report JSON). This is a reader for our own well-formed,
// flat-ish schemas — not a general-purpose JSON library: numbers are
// doubles, objects are ordered maps, and errors throw JsonError naming
// the byte offset. The writers stay hand-rolled (report_json.cpp,
// bench_record.cpp) so the serialization remains dependency-free and
// byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace dbfs::util {

struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;               ///< kArray
  std::map<std::string, JsonValue> members;   ///< kObject

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  bool has(const std::string& key) const {
    return members.find(key) != members.end();
  }
  /// Member access; throws JsonError when the key is absent or this is
  /// not an object.
  const JsonValue& at(const std::string& key) const;

  /// Typed accessors; throw JsonError on kind mismatch.
  double as_number() const;
  std::int64_t as_int() const;  ///< number, truncated toward zero
  bool as_bool() const;
  const std::string& as_string() const;

  /// at(key) with a fallback when the key is absent (kind mismatch on a
  /// present key still throws — a wrong type is a schema bug, not an
  /// optional field).
  double number_or(const std::string& key, double fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
};

/// Deepest array/object nesting parse_json accepts; deeper input throws
/// JsonError (the parser recurses once per level).
inline constexpr int kMaxJsonDepth = 512;

/// Parse one JSON document; trailing non-whitespace content is an error.
JsonValue parse_json(const std::string& text);

}  // namespace dbfs::util
