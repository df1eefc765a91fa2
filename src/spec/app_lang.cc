#include "src/spec/app_lang.h"

#include <vector>

#include "src/kernel/channel.h"
#include "src/spec/lexer.h"

namespace artemis {
namespace {

class Parser : private TokenCursor {
 public:
  explicit Parser(TokenCursor tokens) : TokenCursor(std::move(tokens)) {}

  StatusOr<AppDescription> Run() {
    AppDescription app;
    if (!CheckWord("app")) {
      return ErrorAt(Peek(), "expected 'app'");
    }
    Advance();
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected the application name");
    }
    app.name = Advance().text;
    if (Status status = Expect(TokenKind::kLBrace); !status.ok()) {
      return status;
    }
    while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEndOfInput)) {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected 'task' or 'path'");
      }
      if (Peek().text == "task") {
        if (Status status = ParseTask(&app); !status.ok()) {
          return status;
        }
      } else if (Peek().text == "path") {
        if (Status status = ParsePath(&app); !status.ok()) {
          return status;
        }
      } else {
        return ErrorAt(Peek(), "unknown declaration '" + Peek().text + "'");
      }
    }
    if (Status status = Expect(TokenKind::kRBrace); !status.ok()) {
      return status;
    }
    if (Status status = app.graph.Validate(); !status.ok()) {
      return status;
    }
    return app;
  }

 private:
  Status ParseTask(AppDescription* app) {
    Advance();  // 'task'
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected a task name");
    }
    const Token name = Advance();
    if (app->graph.FindTask(name.text).has_value()) {
      return ErrorAt(name, "duplicate task '" + name.text + "'");
    }
    if (Status status = Expect(TokenKind::kLBrace); !status.ok()) {
      return status;
    }

    TaskDef def;
    def.name = name.text;
    double value_mean = 1.0;
    double value_stddev = 0.0;
    while (Check(TokenKind::kIdentifier)) {
      const Token attr = Advance();
      if (Status status = Expect(TokenKind::kColon); !status.ok()) {
        return status;
      }
      Status status = Status::Ok();
      if (attr.text == "duration") {
        status = ReadDuration(attr, "expected a duration", &def.work.duration);
      } else if (attr.text == "power") {
        status = ReadPower(attr, "expected a power (e.g. 9mW)", &def.work.power);
      } else if (attr.text == "value" && CheckWord("gaussian")) {
        Advance();
        status = Expect(TokenKind::kLParen);
        if (status.ok()) {
          status = ReadNumber("expected the gaussian mean", &value_mean);
        }
        if (status.ok()) {
          status = Expect(TokenKind::kComma);
        }
        if (status.ok()) {
          status = ReadNumber("expected the gaussian stddev", &value_stddev);
        }
        if (status.ok()) {
          status = Expect(TokenKind::kRParen);
        }
      } else if (attr.text == "value") {
        value_stddev = 0.0;
        status = ReadNumber("expected a number or gaussian(mean, stddev)", &value_mean);
      } else if (attr.text == "monitors") {
        if (!Check(TokenKind::kIdentifier)) {
          return ErrorAt(Peek(), "expected a variable name");
        }
        def.monitored_var = Advance().text;
      } else {
        return ErrorAt(attr, "unknown task attribute '" + attr.text + "'");
      }
      if (status.ok()) {
        status = Expect(TokenKind::kSemicolon);
      }
      if (!status.ok()) {
        return status;
      }
    }
    if (Status status = Expect(TokenKind::kRBrace); !status.ok()) {
      return status;
    }

    const bool monitored = def.monitored_var.has_value();
    def.effect = [value_mean, value_stddev, monitored](TaskContext& ctx) {
      const double value =
          value_stddev > 0.0 ? ctx.rng().Gaussian(value_mean, value_stddev) : value_mean;
      ctx.Push(value);
      if (monitored) {
        ctx.SetMonitored(value);
      }
    };
    app->graph.AddTask(std::move(def));
    return Status::Ok();
  }

  Status ParsePath(AppDescription* app) {
    const Token keyword = Advance();  // 'path'
    PathId number = kNoPath;
    if (Status status = ReadUint32(keyword, "expected the path number", &number); !status.ok()) {
      return status;
    }
    if (number != app->graph.path_count() + 1) {
      return ErrorAt(keyword, "paths must be declared in order; expected path " +
                                  std::to_string(app->graph.path_count() + 1));
    }
    if (Status status = Expect(TokenKind::kColon); !status.ok()) {
      return status;
    }
    std::vector<std::string> names;
    while (true) {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected a task name in the path");
      }
      names.push_back(Advance().text);
      if (!Match(TokenKind::kArrow)) {
        break;
      }
    }
    if (Status status = Expect(TokenKind::kSemicolon); !status.ok()) {
      return status;
    }
    StatusOr<PathId> added = app->graph.AddPathByNames(names);
    if (!added.ok()) {
      return Status::NotFound("line " + std::to_string(keyword.line) + ": " +
                              added.status().message());
    }
    return Status::Ok();
  }
};

}  // namespace

StatusOr<AppDescription> ParseAppDescription(std::string_view source) {
  StatusOr<TokenCursor> tokens = TokenCursor::Lex(source);
  if (!tokens.ok()) {
    return tokens.status();
  }
  return Parser(std::move(tokens).value()).Run();
}

}  // namespace artemis
