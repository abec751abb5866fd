/// \file json.h
/// \brief Minimal JSON value model, parser, and serializer.
///
/// Used by the document store (Cosmos DB analog), the model registry, and
/// the dashboard for structured records. Supports the full JSON grammar
/// except for \u escapes beyond the ASCII range (telemetry never needs
/// them).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace seagull {

/// Deepest array/object nesting `Json::Parse` accepts; deeper input is
/// `Invalid`. Parsing, `Dump` and destruction all recurse once per level,
/// so without the bound one hostile request line could overflow the
/// stack of a long-lived process.
inline constexpr int kMaxJsonDepth = 512;

/// \brief A JSON value: null, bool, number, string, array, or object.
class Json {
 public:
  enum class Type : int8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Constructs null.
  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}         // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}            // NOLINT
  Json(int64_t i)                                           // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}    // NOLINT
  Json(std::string s)                                       // NOLINT
      : type_(Type::kString), str_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// \name Typed accessors. Calling the wrong one is a programming error
  /// (checked by assert in debug builds); prefer the Get* result forms
  /// when handling untrusted documents.
  /// @{
  bool AsBool() const { return bool_; }
  double AsDouble() const { return num_; }
  int64_t AsInt() const { return static_cast<int64_t>(num_); }
  const std::string& AsString() const { return str_; }
  const Array& AsArray() const { return arr_; }
  Array& AsArray() { return arr_; }
  const Object& AsObject() const { return obj_; }
  Object& AsObject() { return obj_; }
  /// @}

  /// Object member access; returns null Json for missing keys.
  const Json& operator[](const std::string& key) const;
  /// Mutable object member access; inserts null for missing keys.
  Json& operator[](const std::string& key);

  /// True if this is an object containing `key`.
  bool Contains(const std::string& key) const;

  /// Checked member lookup on objects.
  Result<double> GetNumber(const std::string& key) const;
  /// Checked integer member for untrusted documents: NotFound when `key`
  /// is absent, else `ToInt64` of its value.
  Result<int64_t> GetInt64(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;

  /// Checked integer conversion for untrusted documents, shared by
  /// `GetInt64` and array elements: Invalid when this value is not a
  /// number, is not integral, or lies beyond ±2^53 (past which a double
  /// no longer holds every integer). NaN and ±inf fail the same way.
  /// `what` names the value in the status text.
  Result<int64_t> ToInt64(std::string_view what) const;

  /// Appends to an array value.
  void Append(Json v) { arr_.push_back(std::move(v)); }

  /// Serializes to compact JSON text.
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses JSON text; nesting deeper than `kMaxJsonDepth` is Invalid.
  static Result<Json> Parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace seagull
