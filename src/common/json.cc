#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace seagull {

namespace {
const Json kNullJson;
}  // namespace

const Json& Json::operator[](const std::string& key) const {
  if (type_ != Type::kObject) return kNullJson;
  auto it = obj_.find(key);
  return it == obj_.end() ? kNullJson : it->second;
}

Json& Json::operator[](const std::string& key) {
  if (type_ != Type::kObject) {
    type_ = Type::kObject;
    obj_.clear();
  }
  return obj_[key];
}

bool Json::Contains(const std::string& key) const {
  return type_ == Type::kObject && obj_.count(key) > 0;
}

Result<double> Json::GetNumber(const std::string& key) const {
  const Json& v = (*this)[key];
  if (!v.is_number()) return Status::NotFound("missing number field: " + key);
  return v.AsDouble();
}

Result<int64_t> Json::GetInt64(const std::string& key) const {
  if (!Contains(key)) return Status::NotFound("missing number field: " + key);
  const Json& v = obj_.at(key);
  auto value = v.ToInt64("");
  // Spell out the field's name only when there is an error to report.
  return value.ok() ? value : v.ToInt64("field " + key);
}

Result<int64_t> Json::ToInt64(std::string_view what) const {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  // The negated comparison also rejects NaN.
  if (!is_number() || !(std::fabs(num_) <= kMaxExact) ||
      num_ != std::trunc(num_)) {
    return Status::Invalid(std::string(what) +
                           " must be an integer within +/-2^53");
  }
  return static_cast<int64_t>(num_);
}

Result<std::string> Json::GetString(const std::string& key) const {
  const Json& v = (*this)[key];
  if (!v.is_string()) return Status::NotFound("missing string field: " + key);
  return v.AsString();
}

Result<bool> Json::GetBool(const std::string& key) const {
  const Json& v = (*this)[key];
  if (!v.is_bool()) return Status::NotFound("missing bool field: " + key);
  return v.AsBool();
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void AppendNumber(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else if (std::isfinite(d)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  } else {
    *out += "null";  // JSON has no Inf/NaN.
  }
}

void Indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  *out += '\n';
  out->append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, num_);
      break;
    case Type::kString:
      AppendEscaped(out, str_);
      break;
    case Type::kArray: {
      *out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) *out += ',';
        first = false;
        Indent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!arr_.empty()) Indent(out, indent, depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) *out += ',';
        first = false;
        Indent(out, indent, depth + 1);
        AppendEscaped(out, k);
        *out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (!obj_.empty()) Indent(out, indent, depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Parse() {
    SkipWs();
    SEAGULL_ASSIGN_OR_RETURN(Json v, ParseValue(0));
    SkipWs();
    if (pos_ != s_.size()) return Err("trailing characters after JSON value");
    return v;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::Invalid(
        StringPrintf("JSON parse error at offset %zu: %s", pos_, msg.c_str()));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  Result<Json> ParseValue(int depth) {
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    char c = s_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxJsonDepth) {
      return Err(StringPrintf("nesting deeper than %d levels", kMaxJsonDepth));
    }
    switch (c) {
      case '{':
        return ParseObject(depth + 1);
      case '[':
        return ParseArray(depth + 1);
      case '"': {
        SEAGULL_ASSIGN_OR_RETURN(std::string str, ParseString());
        return Json(std::move(str));
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return Json(true);
        }
        return Err("invalid literal");
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return Json(false);
        }
        return Err("invalid literal");
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return Json();
        }
        return Err("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json::Object obj;
    SkipWs();
    if (Consume('}')) return Json(std::move(obj));
    while (true) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Err("expected key");
      SEAGULL_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      SEAGULL_ASSIGN_OR_RETURN(Json v, ParseValue(depth));
      obj.emplace(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    return Json(std::move(obj));
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json::Array arr;
    SkipWs();
    if (Consume(']')) return Json(std::move(arr));
    while (true) {
      SkipWs();
      SEAGULL_ASSIGN_OR_RETURN(Json v, ParseValue(depth));
      arr.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    return Json(std::move(arr));
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Err("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad hex digit in \\u escape");
              }
            }
            if (code > 0x7f) return Err("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    auto v = ParseDouble(std::string_view(s_).substr(start, pos_ - start));
    if (!v.ok()) return Err("malformed number");
    return Json(*v);
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return num_ == other.num_;
    case Type::kString:
      return str_ == other.str_;
    case Type::kArray:
      return arr_ == other.arr_;
    case Type::kObject:
      return obj_ == other.obj_;
  }
  return false;
}

}  // namespace seagull
