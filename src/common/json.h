// Self-contained JSON value model, parser and writer.
//
// Used for model serialization (trees, forests, watermark bundles). Supports
// the full JSON grammar except for \u escapes beyond the BMP surrogate pairs
// (which are passed through as UTF-8). Numbers are stored as double; the
// writer emits integers without a decimal point when the value is integral,
// and round-trips doubles with 17 significant digits.

#ifndef TREEWM_COMMON_JSON_H_
#define TREEWM_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace treewm {

/// A JSON document node: null, bool, number, string, array or object.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  // std::map keeps object keys sorted, making serialization deterministic.
  using Object = std::map<std::string, JsonValue>;

  /// Constructs null.
  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}    // NOLINT
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}       // NOLINT
  JsonValue(int64_t i)                                         // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(size_t i)                                          // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  JsonValue(std::string s)                                        // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}     // NOLINT
  JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  /// Factory helpers for empty containers.
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error (assert).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt64() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Checked conversions for untrusted documents (model files, bundles):
  /// ParseError instead of an assert on type mismatch. ToInt64 also rejects
  /// non-integers and values outside int64 range — a corrupt file must fail
  /// closed, never load as a rounded or wrapped value.
  [[nodiscard]] Result<double> ToDouble() const;
  [[nodiscard]] Result<int64_t> ToInt64() const;
  /// ToInt64, then ParseError outside int range (never a silent wrap).
  [[nodiscard]] Result<int> ToInt() const;

  /// Float fields (tree thresholds, dataset cells). JSON numbers cannot
  /// carry ±inf, so they are written as the strings "inf" and "-inf";
  /// finite values stay numbers and round-trip exactly. NaN has no
  /// encoding: it is written null, which ToFloat rejects.
  static JsonValue FromFloat(float f);
  /// Inverse of FromFloat. ParseError on a finite number outside float
  /// range (it would narrow to ±inf) and on any other type or string.
  [[nodiscard]] Result<float> ToFloat() const;

  /// Object field lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Object field lookup with error status when missing.
  [[nodiscard]] Result<const JsonValue*> Get(std::string_view key) const;

  /// Typed object lookups: Get + checked conversion in one step, with the
  /// field name in the error message.
  [[nodiscard]] Result<int64_t> GetInt64(std::string_view key) const;
  [[nodiscard]] Result<int> GetInt(std::string_view key) const;
  [[nodiscard]] Result<float> GetFloat(std::string_view key) const;
  /// Get + must-be-array check; returns the array-typed node.
  [[nodiscard]] Result<const JsonValue*> GetArray(std::string_view key) const;

  /// Inserts/overwrites an object field. Must be an object.
  void Set(std::string key, JsonValue value);

  /// Appends to an array. Must be an array.
  void Append(JsonValue value);

  /// Serializes compactly (no whitespace).
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a document from `text`.
  [[nodiscard]] static Result<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Reads an entire file into a string.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, truncating.
[[nodiscard]] Status WriteStringToFile(const std::string& path, std::string_view contents);

}  // namespace treewm

#endif  // TREEWM_COMMON_JSON_H_
