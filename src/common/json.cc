#include "common/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace treewm {

bool JsonValue::AsBool() const {
  assert(is_bool());
  return bool_;
}

double JsonValue::AsDouble() const {
  assert(is_number());
  return number_;
}

int64_t JsonValue::AsInt64() const {
  assert(is_number());
  return static_cast<int64_t>(std::llround(number_));
}

const std::string& JsonValue::AsString() const {
  assert(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  assert(is_array());
  return array_;
}

JsonValue::Array& JsonValue::AsArray() {
  assert(is_array());
  return array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  assert(is_object());
  return object_;
}

JsonValue::Object& JsonValue::AsObject() {
  assert(is_object());
  return object_;
}

namespace {

const char* TypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
  }
  return "?";
}

/// Names the key in a failed typed lookup.
template <typename T>
Result<T> WithKey(std::string_view key, Result<T> converted) {
  if (converted.ok()) return converted;
  return Status::ParseError(StrFormat("key '%.*s': %s",
                                      static_cast<int>(key.size()), key.data(),
                                      converted.status().message().c_str()));
}

}  // namespace

Result<double> JsonValue::ToDouble() const {
  if (!is_number()) {
    return Status::ParseError(StrFormat("expected number, got %s", TypeName(type_)));
  }
  return number_;
}

Result<int64_t> JsonValue::ToInt64() const {
  if (!is_number()) {
    return Status::ParseError(StrFormat("expected number, got %s", TypeName(type_)));
  }
  // Reject NaN/inf and magnitudes int64 cannot represent; 2^63 is exactly
  // representable as double, so the open upper bound is exact.
  if (!(number_ >= -9223372036854775808.0 && number_ < 9223372036854775808.0)) {
    return Status::ParseError(StrFormat("number %g out of int64 range", number_));
  }
  if (number_ != std::trunc(number_)) {  // rounding would hide corruption
    return Status::ParseError(StrFormat("number %g is not an integer", number_));
  }
  return static_cast<int64_t>(number_);
}

Result<int> JsonValue::ToInt() const {
  TREEWM_ASSIGN_OR_RETURN(const int64_t value, ToInt64());
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::ParseError(StrFormat("number %lld out of int range",
                                        static_cast<long long>(value)));
  }
  return static_cast<int>(value);
}

JsonValue JsonValue::FromFloat(float f) {
  if (std::isinf(f)) return JsonValue(f > 0 ? "inf" : "-inf");
  return JsonValue(static_cast<double>(f));
}

Result<float> JsonValue::ToFloat() const {
  if (is_string() && (string_ == "inf" || string_ == "-inf")) {
    const float inf = std::numeric_limits<float>::infinity();
    return string_ == "inf" ? inf : -inf;
  }
  TREEWM_ASSIGN_OR_RETURN(const double value, ToDouble());  // other strings fail
  // A finite number past float range would silently narrow to ±inf.
  if (!(std::fabs(value) <= std::numeric_limits<float>::max())) {
    return Status::ParseError(StrFormat("number %g out of float range", value));
  }
  return static_cast<float>(value);
}

Result<int64_t> JsonValue::GetInt64(std::string_view key) const {
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* value, Get(key));
  return WithKey(key, value->ToInt64());
}

Result<int> JsonValue::GetInt(std::string_view key) const {
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* value, Get(key));
  return WithKey(key, value->ToInt());
}

Result<float> JsonValue::GetFloat(std::string_view key) const {
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* value, Get(key));
  return WithKey(key, value->ToFloat());
}

Result<const JsonValue*> JsonValue::GetArray(std::string_view key) const {
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* value, Get(key));
  if (!value->is_array()) {
    return Status::ParseError(StrFormat("key '%.*s': expected array, got %s",
                                        static_cast<int>(key.size()), key.data(),
                                        TypeName(value->type_)));
  }
  return value;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    return Status::NotFound(StrFormat("missing JSON key '%.*s'",
                                      static_cast<int>(key.size()), key.data()));
  }
  return found;
}

void JsonValue::Set(std::string key, JsonValue value) {
  assert(is_object());
  object_[std::move(key)] = std::move(value);
}

void JsonValue::Append(JsonValue value) {
  assert(is_array());
  array_.push_back(std::move(value));
}

namespace {

void EscapeStringTo(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void NumberTo(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; serialize as null (and accept data loss loudly).
    out->append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

void Indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      NumberTo(out, number_);
      break;
    case Type::kString:
      EscapeStringTo(out, string_);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : array_) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        item.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) Indent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        EscapeStringTo(out, key);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) Indent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    TREEWM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& what) const {
    return Status::ParseError(StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        TREEWM_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      TREEWM_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      TREEWM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      TREEWM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            TREEWM_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            // Surrogate pair handling.
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                pos_ += 2;
                TREEWM_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
                if (low >= 0xDC00 && low <= 0xDFFF) {
                  cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                } else {
                  return Error("invalid low surrogate");
                }
              } else {
                return Error("lone high surrogate");
              }
            }
            AppendUtf8(&out, cp);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit");
      }
    }
    return value;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value;
    if (pos_ == start || !ParseDouble(text_.substr(start, pos_ - start), &value)) {
      return Error("invalid number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failure: " + path);
  return buffer.str();
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::IoError("write failure: " + path);
  return Status::OK();
}

}  // namespace treewm
