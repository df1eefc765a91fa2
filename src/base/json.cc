#include "src/base/json.h"

#include <limits>

namespace artemis {

std::string FormatFixed(double value, int digits) {
  // Room for any finite double: DBL_MAX has 309 integer digits.
  char buf[std::numeric_limits<double>::max_exponent10 + 36];
  return std::string(
      buf, std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, digits).ptr);
}

JsonWriter& JsonWriter::Open(char open, char close, JsonLayout layout) {
  BeforeValue();
  out_->push_back(open);
  frames_.push_back(Frame{close, layout, true});
  return *this;
}

JsonWriter& JsonWriter::End() {
  const Frame frame = frames_.back();
  frames_.pop_back();
  if (frame.layout == JsonLayout::kBlock && !frame.empty) {
    NewLine(frames_.size());
  }
  out_->push_back(frame.close);
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  BeforeValue();
  Quote(key);
  out_->append(frames_.back().layout == JsonLayout::kCompact ? ":" : ": ");
  after_key_ = true;
  return *this;
}

void JsonWriter::BeforeValue() {
  if (after_key_ || frames_.empty()) {
    after_key_ = false;
    return;
  }
  Frame& frame = frames_.back();
  if (!frame.empty) {
    out_->append(frame.layout == JsonLayout::kInline ? ", " : ",");
  }
  if (frame.layout == JsonLayout::kBlock) {
    NewLine(frames_.size());
  }
  frame.empty = false;
}

void JsonWriter::NewLine(std::size_t depth) {
  out_->push_back('\n');
  out_->append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::Quote(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_->push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out_->append(text.data() + run, i - run).push_back('\\');
    run = i + 1;
    if (c == '"' || c == '\\') {
      out_->push_back(static_cast<char>(c));
    } else if (c == '\n' || c == '\t') {
      out_->push_back(c == '\n' ? 'n' : 't');
    } else {
      out_->append("u00").push_back(kHex[c >> 4]);
      out_->push_back(kHex[c & 0xf]);
    }
  }
  out_->append(text.data() + run, text.size() - run).push_back('"');
}

}  // namespace artemis
