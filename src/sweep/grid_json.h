// Minimal JSON reader for sweep grid files (docs/sweep.md). Supports the
// full JSON value grammar except exotic number forms and \u escapes beyond
// ASCII; errors carry line/column. This is deliberately a reader, not a
// serializer: every export writes through src/base/json.h's JsonWriter,
// whose byte layout stays under the determinism contract's control.
#ifndef SRC_SWEEP_GRID_JSON_H_
#define SRC_SWEEP_GRID_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace artemis::sweep {

class JsonValue;
using JsonValuePtr = std::shared_ptr<const JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const { return boolean_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValuePtr>& array() const { return array_; }
  // Insertion order is not preserved; lookups only.
  const std::map<std::string, JsonValuePtr>& object() const { return object_; }

  // Object member or nullptr.
  JsonValuePtr Find(const std::string& key) const;

  static JsonValuePtr MakeNull();
  static JsonValuePtr MakeBool(bool value);
  static JsonValuePtr MakeNumber(double value);
  static JsonValuePtr MakeString(std::string value);
  static JsonValuePtr MakeArray(std::vector<JsonValuePtr> items);
  static JsonValuePtr MakeObject(std::map<std::string, JsonValuePtr> members);

 private:
  Type type_ = Type::kNull;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValuePtr> array_;
  std::map<std::string, JsonValuePtr> object_;
};

// Parses one JSON document (trailing whitespace allowed, nothing else).
StatusOr<JsonValuePtr> ParseJson(const std::string& text);

}  // namespace artemis::sweep

#endif  // SRC_SWEEP_GRID_JSON_H_
