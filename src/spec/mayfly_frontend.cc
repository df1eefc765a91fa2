#include "src/spec/mayfly_frontend.h"

#include <map>
#include <vector>

#include "src/spec/lexer.h"

namespace artemis {
namespace {

class Parser : private TokenCursor {
 public:
  explicit Parser(TokenCursor tokens) : TokenCursor(std::move(tokens)) {}

  StatusOr<SpecAst> Run() {
    // Gather properties per consuming task, then emit one block per task in
    // first-appearance order.
    std::vector<std::string> task_order;
    std::map<std::string, TaskBlockAst> blocks;

    while (!Check(TokenKind::kEndOfInput)) {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected 'expires' or 'collect'");
      }
      const Token keyword = Advance();
      PropertyAst property;
      property.line = keyword.line;
      property.column = keyword.column;
      if (keyword.text == "expires") {
        property.kind = PropertyKind::kMitd;
      } else if (keyword.text == "collect") {
        property.kind = PropertyKind::kCollect;
      } else {
        return ErrorAt(keyword, "unknown construct '" + keyword.text + "'");
      }
      // Mayfly's reaction is always a task-graph (path) restart.
      property.on_fail = ActionType::kRestartPath;
      property.has_on_fail = true;

      if (Status status = Expect(TokenKind::kLParen); !status.ok()) {
        return status;
      }
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected the producing task");
      }
      property.dp_task = Advance().text;
      if (Status status = Expect(TokenKind::kArrow); !status.ok()) {
        return status;
      }
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected the consuming task");
      }
      const std::string consumer = Advance().text;
      if (Status status = Expect(TokenKind::kComma); !status.ok()) {
        return status;
      }
      Status status =
          property.kind == PropertyKind::kMitd
              ? ReadDuration(keyword, "expected an expiration window", &property.duration)
              : ReadCount(keyword, "expected a sample count", &property.count);
      if (status.ok()) {
        status = Expect(TokenKind::kRParen);
      }
      // Optional: "path N".
      if (status.ok() && CheckWord("path")) {
        const Token path = Advance();
        status = ReadUint32(path, "expected a path number", &property.path);
      }
      if (status.ok()) {
        status = Expect(TokenKind::kSemicolon);
      }
      if (!status.ok()) {
        return status;
      }

      if (blocks.find(consumer) == blocks.end()) {
        task_order.push_back(consumer);
        blocks[consumer].task = consumer;
        blocks[consumer].line = keyword.line;
        blocks[consumer].column = keyword.column;
      }
      blocks[consumer].properties.push_back(std::move(property));
    }

    SpecAst spec;
    for (const std::string& task : task_order) {
      spec.blocks.push_back(std::move(blocks[task]));
    }
    return spec;
  }
};

}  // namespace

StatusOr<SpecAst> MayflyFrontend::Parse(std::string_view source) {
  StatusOr<TokenCursor> tokens = TokenCursor::Lex(source);
  if (!tokens.ok()) {
    return tokens.status();
  }
  return Parser(std::move(tokens).value()).Run();
}

}  // namespace artemis
