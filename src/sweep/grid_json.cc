#include "src/sweep/grid_json.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace artemis::sweep {

JsonValuePtr JsonValue::Find(const std::string& key) const {
  const auto it = object_.find(key);
  return it != object_.end() ? it->second : nullptr;
}

JsonValuePtr JsonValue::MakeNull() { return std::make_shared<JsonValue>(); }

JsonValuePtr JsonValue::MakeBool(bool value) {
  auto v = std::make_shared<JsonValue>();
  v->type_ = Type::kBool;
  v->boolean_ = value;
  return v;
}

JsonValuePtr JsonValue::MakeNumber(double value) {
  auto v = std::make_shared<JsonValue>();
  v->type_ = Type::kNumber;
  v->number_ = value;
  return v;
}

JsonValuePtr JsonValue::MakeString(std::string value) {
  auto v = std::make_shared<JsonValue>();
  v->type_ = Type::kString;
  v->string_ = std::move(value);
  return v;
}

JsonValuePtr JsonValue::MakeArray(std::vector<JsonValuePtr> items) {
  auto v = std::make_shared<JsonValue>();
  v->type_ = Type::kArray;
  v->array_ = std::move(items);
  return v;
}

JsonValuePtr JsonValue::MakeObject(std::map<std::string, JsonValuePtr> members) {
  auto v = std::make_shared<JsonValue>();
  v->type_ = Type::kObject;
  v->object_ = std::move(members);
  return v;
}

namespace {

// How deep containers may nest; a grid file needs 3. The bound keeps the
// recursive descent's stack depth fixed whatever the input.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValuePtr> Parse() {
    StatusOr<JsonValuePtr> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::Invalid("json: " + message + " at line " + std::to_string(line) +
                           ", column " + std::to_string(col));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  StatusOr<JsonValuePtr> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      StatusOr<JsonValuePtr> container = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return container;
    }
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return JsonValuePtr(JsonValue::MakeString(std::move(s).value()));
    }
    if (ConsumeWord("true")) {
      return JsonValuePtr(JsonValue::MakeBool(true));
    }
    if (ConsumeWord("false")) {
      return JsonValuePtr(JsonValue::MakeBool(false));
    }
    if (ConsumeWord("null")) {
      return JsonValuePtr(JsonValue::MakeNull());
    }
    return ParseNumber();
  }

  StatusOr<JsonValuePtr> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Error("bad number '" + token + "'");
    }
    return JsonValuePtr(JsonValue::MakeNumber(value));
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected '\"'");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Error("truncated \\u escape");
            }
            const std::string hex = text_.substr(pos_, 4);
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end == nullptr || *end != '\0' || code > 0x7F) {
              return Error("unsupported \\u escape '" + hex + "' (ASCII only)");
            }
            pos_ += 4;
            out += static_cast<char>(code);
            break;
          }
          default:
            return Error(std::string("bad escape '\\") + esc + "'");
        }
        continue;
      }
      out += c;
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValuePtr> ParseArray() {
    Consume('[');
    std::vector<JsonValuePtr> items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValuePtr(JsonValue::MakeArray(std::move(items)));
    }
    for (;;) {
      StatusOr<JsonValuePtr> item = ParseValue();
      if (!item.ok()) {
        return item;
      }
      items.push_back(std::move(item).value());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValuePtr(JsonValue::MakeArray(std::move(items)));
      }
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<JsonValuePtr> ParseObject() {
    Consume('{');
    std::map<std::string, JsonValuePtr> members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValuePtr(JsonValue::MakeObject(std::move(members)));
    }
    for (;;) {
      SkipWhitespace();
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      StatusOr<JsonValuePtr> value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      members[std::move(key).value()] = std::move(value).value();
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValuePtr(JsonValue::MakeObject(std::move(members)));
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

}  // namespace

StatusOr<JsonValuePtr> ParseJson(const std::string& text) { return Parser(text).Parse(); }

}  // namespace artemis::sweep
