#include "src/spec/lexer.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>

#include "src/base/units.h"

namespace artemis {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

}  // namespace

Lexer::Lexer(std::string_view source) : source_(source) {}

char Lexer::PeekChar(int ahead) const {
  const std::size_t at = pos_ + static_cast<std::size_t>(ahead);
  return at < source_.size() ? source_[at] : '\0';
}

char Lexer::AdvanceChar() {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    const char c = PeekChar();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      AdvanceChar();
    } else if (c == '#' || (c == '/' && PeekChar(1) == '/')) {
      while (!AtEnd() && PeekChar() != '\n') {
        AdvanceChar();
      }
    } else if (c == '/' && PeekChar(1) == '*') {
      AdvanceChar();
      AdvanceChar();
      while (!AtEnd() && !(PeekChar() == '*' && PeekChar(1) == '/')) {
        AdvanceChar();
      }
      if (!AtEnd()) {
        AdvanceChar();
        AdvanceChar();
      }
    } else {
      break;
    }
  }
}

Token Lexer::Make(TokenKind kind, std::string text) const {
  Token token;
  token.kind = kind;
  token.text = std::move(text);
  token.line = token_line_;
  token.column = token_column_;
  return token;
}

Token Lexer::Next() {
  SkipWhitespaceAndComments();
  token_line_ = line_;
  token_column_ = column_;
  if (AtEnd()) {
    return Make(TokenKind::kEndOfInput, "");
  }
  const char c = AdvanceChar();
  switch (c) {
    case ':':
      return Make(TokenKind::kColon, ":");
    case ';':
      return Make(TokenKind::kSemicolon, ";");
    case '{':
      return Make(TokenKind::kLBrace, "{");
    case '}':
      return Make(TokenKind::kRBrace, "}");
    case '[':
      return Make(TokenKind::kLBracket, "[");
    case ']':
      return Make(TokenKind::kRBracket, "]");
    case '(':
      return Make(TokenKind::kLParen, "(");
    case ')':
      return Make(TokenKind::kRParen, ")");
    case ',':
      return Make(TokenKind::kComma, ",");
    case '-':
      if (PeekChar() == '>') {
        AdvanceChar();
        return Make(TokenKind::kArrow, "->");
      }
      break;  // Falls through to the number path ("-3").
    default:
      break;
  }

  if (IsIdentStart(c)) {
    std::string text(1, c);
    while (!AtEnd() && IsIdentChar(PeekChar())) {
      text += AdvanceChar();
    }
    return Make(TokenKind::kIdentifier, std::move(text));
  }

  if (IsDigit(c) || (c == '-' && IsDigit(PeekChar()))) {
    std::string text(1, c);
    bool seen_dot = false;
    while (!AtEnd() && (IsDigit(PeekChar()) || (PeekChar() == '.' && !seen_dot))) {
      seen_dot = seen_dot || PeekChar() == '.';
      text += AdvanceChar();
    }
    // A unit suffix glued to the number makes it a duration or power
    // literal.
    if (!AtEnd() && IsIdentStart(PeekChar())) {
      std::string unit;
      while (!AtEnd() && IsIdentChar(PeekChar())) {
        unit += AdvanceChar();
      }
      if (const std::optional<SimDuration> d = ParseDuration(text + unit); d.has_value()) {
        Token token = Make(TokenKind::kDuration, text + unit);
        token.duration = *d;
        return token;
      }
      if (const std::optional<Milliwatts> p = ParsePower(text + unit); p.has_value()) {
        Token token = Make(TokenKind::kPower, text + unit);
        token.power = *p;
        return token;
      }
      return Make(TokenKind::kError, text + unit);
    }
    double number = 0.0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), number);
    if (error != std::errc() || end != text.data() + text.size()) {
      return Make(TokenKind::kError, text);  // Past double range.
    }
    Token token = Make(TokenKind::kNumber, text);
    token.number = number;
    return token;
  }

  return Make(TokenKind::kError, std::string(1, c));
}

std::vector<Token> Lexer::Tokenize() {
  std::vector<Token> tokens;
  while (true) {
    Token token = Next();
    const bool stop =
        token.kind == TokenKind::kEndOfInput || token.kind == TokenKind::kError;
    tokens.push_back(std::move(token));
    if (stop) {
      break;
    }
  }
  return tokens;
}

StatusOr<TokenCursor> TokenCursor::Lex(std::string_view source) {
  std::vector<Token> tokens = Lexer(source).Tokenize();
  if (tokens.back().kind == TokenKind::kError) {
    const Token& bad = tokens.back();
    return Status::Invalid("lex error at line " + std::to_string(bad.line) + ":" +
                           std::to_string(bad.column) + ": unexpected '" + bad.text + "'");
  }
  return TokenCursor(std::move(tokens));
}

bool TokenCursor::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status TokenCursor::Expect(TokenKind kind, const std::string& context) {
  if (Match(kind)) {
    return Status::Ok();
  }
  return ErrorAt(Peek(), "expected " + std::string(TokenKindName(kind)) +
                             (context.empty() ? "" : " " + context) + ", found " +
                             Peek().Describe());
}

Status TokenCursor::ErrorAt(const Token& token, const std::string& message) {
  return Status::Invalid("line " + std::to_string(token.line) + ":" +
                         std::to_string(token.column) + ": " + message);
}

template <typename T>
Status TokenCursor::ReadWhole(const Token& key, const std::string& name, T max,
                              const std::string& missing, T* out) {
  if (!Check(TokenKind::kNumber)) {
    return ErrorAt(Peek(), missing);
  }
  const double value = Advance().number;
  if (value < 0 || value != std::floor(value)) {
    return ErrorAt(key, name + " must be a non-negative integer");
  }
  if (value > static_cast<double>(max)) {
    return ErrorAt(key, name + " must be at most " + std::to_string(max));
  }
  *out = static_cast<T>(value);
  return Status::Ok();
}

Status TokenCursor::ReadCount(const Token& key, const std::string& missing,
                              std::uint64_t* out) {
  return ReadWhole(key, "count", std::uint64_t{1} << 53, missing, out);
}

Status TokenCursor::ReadUint32(const Token& key, const std::string& missing,
                               std::uint32_t* out) {
  return ReadWhole(key, key.text, std::numeric_limits<std::uint32_t>::max(), missing, out);
}

Status TokenCursor::ReadDuration(const Token& key, const std::string& missing,
                                 SimDuration* out) {
  if (Check(TokenKind::kDuration)) {
    *out = Advance().duration;
    return Status::Ok();
  }
  if (!Check(TokenKind::kNumber)) {
    return ErrorAt(Peek(), missing);
  }
  // Bare numbers are milliseconds (ParseDuration's convention and bound).
  const std::optional<SimDuration> duration = ParseDuration(Advance().text);
  if (!duration.has_value()) {
    return ErrorAt(key, "duration must be between 0 and 1.8e16 milliseconds");
  }
  *out = *duration;
  return Status::Ok();
}

Status TokenCursor::ReadPower(const Token& key, const std::string& missing, Milliwatts* out) {
  if (Check(TokenKind::kPower)) {
    *out = Advance().power;
    return Status::Ok();
  }
  double value = 0.0;
  if (Status status = ReadNumber(missing, &value); !status.ok()) {
    return status;
  }
  if (value < 0) {
    return ErrorAt(key, "power must not be negative");  // Bare milliwatts.
  }
  *out = value;
  return Status::Ok();
}

Status TokenCursor::ReadNumber(const std::string& missing, double* out) {
  if (!Check(TokenKind::kNumber)) {
    return ErrorAt(Peek(), missing);
  }
  *out = Advance().number;
  return Status::Ok();
}

}  // namespace artemis
