// The one JSON writer behind every artemis-*/1 rendering (sweep, fleet,
// trace, Perfetto, flight dump and diagnostics): quoting, escaping,
// separators, indentation and number text live here and nowhere else.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace artemis {

// `value` with `digits` (at most 32) decimals: the bytes of printf("%.*f")
// for every finite value, DBL_MAX and denormals included.
std::string FormatFixed(double value, int digits);

// How a container separates its members:
//   kCompact  `,` and `:`, all on one line (JSONL, flight dump, Perfetto);
//   kInline   `, ` and `: `, all on one line;
//   kBlock    one member per line, indented by the writer's width times
//             the container depth, with `: ` after keys.
// An empty container is `[]` or `{}` in every layout.
enum class JsonLayout : std::uint8_t { kCompact, kInline, kBlock };

// Streaming writer that appends to a caller's string. It keeps only the
// open-container stack, so the caller may drain and clear the string
// between records. Misuse (a value without a key inside an object,
// unbalanced End) is not diagnosed.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out, int indent = 2) : out_(out), indent_(indent) {}

  JsonWriter& BeginObject(JsonLayout layout) { return Open('{', '}', layout); }
  JsonWriter& BeginArray(JsonLayout layout) { return Open('[', ']', layout); }
  // Closes the innermost open container.
  JsonWriter& End();

  JsonWriter& Key(std::string_view key);
  // Escapes `"` and `\` with a backslash, newline and tab as \n and \t,
  // every other byte below 0x20 as \u00xx; all other bytes pass through.
  JsonWriter& String(std::string_view text) {
    BeforeValue();
    Quote(text);
    return *this;
  }
  // Any integer type, signed or unsigned.
  template <typename T>
    requires std::is_integral_v<T>
  JsonWriter& Int(T value) {
    char buf[24];
    return Raw(std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr - buf));
  }
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  JsonWriter& Fixed(double value, int digits) { return Raw(FormatFixed(value, digits)); }

 private:
  struct Frame {
    char close;
    JsonLayout layout;
    bool empty;
  };

  JsonWriter& Open(char open, char close, JsonLayout layout);
  // Writes the separator and indentation a key or value needs here.
  void BeforeValue();
  void NewLine(std::size_t depth);
  void Quote(std::string_view text);
  JsonWriter& Raw(std::string_view text) {
    BeforeValue();
    out_->append(text);
    return *this;
  }

  std::string* out_;
  int indent_;
  bool after_key_ = false;
  std::vector<Frame> frames_;  // the open containers, innermost last
};

}  // namespace artemis

#endif  // SRC_BASE_JSON_H_
