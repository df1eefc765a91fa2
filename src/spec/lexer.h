// Lexer and token cursor shared by the three surface languages: the
// property specification language (parser.h), its Mayfly-style
// alternative (mayfly_frontend.h) and the app description language
// (app_lang.h).
//
// Handles the Figure 5 surface syntax: identifiers, numbers, duration
// literals with attached units (5min, 100ms), punctuation, line comments
// (// and #) and block comments (/* */).
#ifndef SRC_SPEC_LEXER_H_
#define SRC_SPEC_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/spec/token.h"

namespace artemis {

class Lexer {
 public:
  explicit Lexer(std::string_view source);

  // Tokenizes the entire input. The final token is always kEndOfInput.
  // Malformed input, a number literal that does not fit a double included,
  // yields a kError token at the offending position and stops.
  std::vector<Token> Tokenize();

 private:
  Token Next();
  void SkipWhitespaceAndComments();
  char PeekChar(int ahead = 0) const;
  char AdvanceChar();
  bool AtEnd() const { return pos_ >= source_.size(); }
  Token Make(TokenKind kind, std::string text) const;

  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int token_line_ = 1;
  int token_column_ = 1;
};

// A parser's position in a tokenized source. Each language's parser derives
// from it, so consuming tokens, positioning errors and reading numbers are
// written once. Errors read "line L:C: <message>".
class TokenCursor {
 public:
  // Tokenizes `source`; a kError token becomes
  // "lex error at line L:C: unexpected '<text>'".
  static StatusOr<TokenCursor> Lex(std::string_view source);

 protected:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool CheckWord(std::string_view word) const {
    return Check(TokenKind::kIdentifier) && Peek().text == word;
  }
  bool Match(TokenKind kind);
  // Consumes a `kind` token, or fails with
  // "expected <kind> <context>, found <token>" (no context: no space).
  Status Expect(TokenKind kind, const std::string& context = "");
  static Status ErrorAt(const Token& token, const std::string& message);

  // Number readers: the only way a parser turns a token into a value. Each
  // fails with `missing` at the current token when that token is not a
  // number of its kind, and with a range error at `key` (the token that
  // asked for the number) when the value does not fit:
  //  * a count is a whole number in [0, 2^53];
  //  * ReadUint32 (an attempt bound or a path number) is a whole number in
  //    [0, 2^32-1], named by `key`'s text in the error;
  //  * a duration is a literal or bare milliseconds, read by ParseDuration's
  //    rules (non-negative, at most 1.8e19 us);
  //  * a power is a literal or bare non-negative milliwatts.
  Status ReadCount(const Token& key, const std::string& missing, std::uint64_t* out);
  Status ReadUint32(const Token& key, const std::string& missing, std::uint32_t* out);
  Status ReadDuration(const Token& key, const std::string& missing, SimDuration* out);
  Status ReadPower(const Token& key, const std::string& missing, Milliwatts* out);
  Status ReadNumber(const std::string& missing, double* out);

 private:
  explicit TokenCursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}
  // A whole number in [0, max], named `name` in its range errors.
  template <typename T>
  Status ReadWhole(const Token& key, const std::string& name, T max, const std::string& missing,
                   T* out);

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace artemis

#endif  // SRC_SPEC_LEXER_H_
