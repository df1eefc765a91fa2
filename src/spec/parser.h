// Recursive-descent parser for the ARTEMIS property specification language.
//
// Grammar (Figure 5 surface syntax, plus the hot-swap migrate block from
// docs/hotswap.md):
//   spec     := (block | migrate)*
//   block    := IDENT ':'? '{' property* '}'
//   migrate  := 'migrate' '{' rule* '}'     // 'migrate' is reserved at the
//                                            // top level (not as task name)
//   rule     := 'machine' IDENT '->' IDENT ';'
//             | 'state' IDENT ':' IDENT '->' IDENT ';'
//             | 'slot'  IDENT ':' IDENT '->' IDENT ';'
//   property := key ':' value modifier* ';'
//   key      := maxTries | maxDuration | MITD | collect | dpData | period
//             | minEnergy
//   modifier := 'dpTask' ':' IDENT
//             | 'onFail' ':' action          // 1st binds the property,
//                                            // a 2nd after maxAttempt binds
//                                            // the attempt-exhausted case
//             | 'maxAttempt' ':' NUMBER
//             | 'Path' ':' NUMBER
//             | 'Range' ':' '[' NUMBER ',' NUMBER ']'
//             | 'jitter' ':' DURATION
#ifndef SRC_SPEC_PARSER_H_
#define SRC_SPEC_PARSER_H_

#include <string_view>

#include "src/base/status.h"
#include "src/spec/ast.h"
#include "src/spec/lexer.h"

namespace artemis {

class SpecParser : private TokenCursor {
 public:
  // Parses a whole specification; the returned status carries the first
  // syntax error with line/column info.
  static StatusOr<SpecAst> Parse(std::string_view source);

 private:
  explicit SpecParser(TokenCursor tokens) : TokenCursor(std::move(tokens)) {}

  StatusOr<SpecAst> ParseSpec();
  Status ParseBlock(SpecAst* spec);
  Status ParseMigrate(SpecAst* spec);
  Status ParseProperty(TaskBlockAst* block);
  Status ParseModifiers(PropertyAst* property);
};

}  // namespace artemis

#endif  // SRC_SPEC_PARSER_H_
