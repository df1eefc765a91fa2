#include "src/spec/parser.h"

namespace artemis {
namespace {

bool PropertyKeyFromName(const std::string& name, PropertyKind* out) {
  if (name == "maxTries") {
    *out = PropertyKind::kMaxTries;
  } else if (name == "maxDuration") {
    *out = PropertyKind::kMaxDuration;
  } else if (name == "MITD") {
    *out = PropertyKind::kMitd;
  } else if (name == "collect") {
    *out = PropertyKind::kCollect;
  } else if (name == "dpData") {
    *out = PropertyKind::kDpData;
  } else if (name == "period") {
    *out = PropertyKind::kPeriod;
  } else if (name == "minEnergy") {
    *out = PropertyKind::kMinEnergy;
  } else {
    return false;
  }
  return true;
}

}  // namespace

StatusOr<SpecAst> SpecParser::Parse(std::string_view source) {
  StatusOr<TokenCursor> tokens = TokenCursor::Lex(source);
  if (!tokens.ok()) {
    return tokens.status();
  }
  return SpecParser(std::move(tokens).value()).ParseSpec();
}

StatusOr<SpecAst> SpecParser::ParseSpec() {
  SpecAst spec;
  while (!Check(TokenKind::kEndOfInput)) {
    // `migrate` is reserved at the top level: it opens the hot-swap
    // migration-override block instead of a task block (docs/hotswap.md).
    const Status status = CheckWord("migrate") ? ParseMigrate(&spec) : ParseBlock(&spec);
    if (!status.ok()) {
      return status;
    }
  }
  return spec;
}

Status SpecParser::ParseMigrate(SpecAst* spec) {
  const Token keyword = Advance();  // 'migrate'
  if (!spec->migration.empty()) {
    return ErrorAt(keyword, "duplicate migrate block (merge the rules into one block)");
  }
  if (Status status = Expect(TokenKind::kLBrace, "to open the migrate block"); !status.ok()) {
    return status;
  }
  while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEndOfInput)) {
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected a migrate rule (machine|state|slot), found " +
                                 Peek().Describe());
    }
    const Token head = Advance();
    MigrationRuleAst rule;
    rule.line = head.line;
    rule.column = head.column;
    if (head.text == "machine") {
      rule.kind = MigrationRuleAst::Kind::kMachine;
    } else if (head.text == "state") {
      rule.kind = MigrationRuleAst::Kind::kState;
    } else if (head.text == "slot") {
      rule.kind = MigrationRuleAst::Kind::kSlot;
    } else {
      return ErrorAt(head, "unknown migrate rule '" + head.text + "' (machine|state|slot)");
    }
    if (rule.kind != MigrationRuleAst::Kind::kMachine) {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected a machine name, found " + Peek().Describe());
      }
      rule.machine = Advance().text;
      if (Status status = Expect(TokenKind::kColon, "after the machine name"); !status.ok()) {
        return status;
      }
    }
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected the old name, found " + Peek().Describe());
    }
    rule.from = Advance().text;
    if (Status status = Expect(TokenKind::kArrow, "between the old and new names");
        !status.ok()) {
      return status;
    }
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected the new name, found " + Peek().Describe());
    }
    rule.to = Advance().text;
    if (Status status = Expect(TokenKind::kSemicolon, "to end the migrate rule");
        !status.ok()) {
      return status;
    }
    spec->migration.rules.push_back(std::move(rule));
  }
  if (Status status = Expect(TokenKind::kRBrace, "to close the migrate block"); !status.ok()) {
    return status;
  }
  return Status::Ok();
}

Status SpecParser::ParseBlock(SpecAst* spec) {
  if (!Check(TokenKind::kIdentifier)) {
    return ErrorAt(Peek(), "expected a task name, found " + Peek().Describe());
  }
  TaskBlockAst block;
  block.task = Peek().text;
  block.line = Peek().line;
  block.column = Peek().column;
  Advance();
  Match(TokenKind::kColon);  // Optional: both "send: {" and "calcAvg {" occur in Figure 5.
  if (Status status = Expect(TokenKind::kLBrace, "to open task block '" + block.task + "'");
      !status.ok()) {
    return status;
  }
  while (!Check(TokenKind::kRBrace) && !Check(TokenKind::kEndOfInput)) {
    if (Status status = ParseProperty(&block); !status.ok()) {
      return status;
    }
  }
  if (Status status = Expect(TokenKind::kRBrace, "to close task block '" + block.task + "'");
      !status.ok()) {
    return status;
  }
  spec->blocks.push_back(std::move(block));
  return Status::Ok();
}

Status SpecParser::ParseProperty(TaskBlockAst* block) {
  if (!Check(TokenKind::kIdentifier)) {
    return ErrorAt(Peek(), "expected a property key, found " + Peek().Describe());
  }
  const Token key = Advance();
  PropertyAst property;
  property.line = key.line;
  property.column = key.column;
  if (!PropertyKeyFromName(key.text, &property.kind)) {
    return ErrorAt(key, "unknown property '" + key.text + "'");
  }
  if (Status status = Expect(TokenKind::kColon, "after property key"); !status.ok()) {
    return status;
  }

  // Main value.
  Status value = Status::Ok();
  switch (property.kind) {
    case PropertyKind::kMaxTries:
    case PropertyKind::kCollect:
      value = ReadCount(key, "expected a count, found " + Peek().Describe(), &property.count);
      break;
    case PropertyKind::kMaxDuration:
    case PropertyKind::kMitd:
    case PropertyKind::kPeriod:
      value = ReadDuration(key, "expected a duration, found " + Peek().Describe(),
                           &property.duration);
      break;
    case PropertyKind::kDpData:
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected a variable name, found " + Peek().Describe());
      }
      property.dp_data_var = Advance().text;
      break;
    case PropertyKind::kMinEnergy:
      value = ReadNumber("expected an energy fraction, found " + Peek().Describe(),
                         &property.min_energy);
      break;
  }

  if (!value.ok()) {
    return value;
  }
  if (Status status = ParseModifiers(&property); !status.ok()) {
    return status;
  }
  if (Status status = Expect(TokenKind::kSemicolon, "to end the property"); !status.ok()) {
    return status;
  }
  block->properties.push_back(std::move(property));
  return Status::Ok();
}

Status SpecParser::ParseModifiers(PropertyAst* property) {
  bool seen_max_attempt = false;
  while (Check(TokenKind::kIdentifier)) {
    const Token word = Advance();
    if (Status status = Expect(TokenKind::kColon, "after '" + word.text + "'"); !status.ok()) {
      return status;
    }
    if (word.text == "dpTask") {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected a task name after dpTask");
      }
      property->dp_task = Advance().text;
    } else if (word.text == "onFail") {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorAt(Peek(), "expected an action after onFail");
      }
      const Token action = Advance();
      ActionType parsed = ActionType::kNone;
      if (!ParseActionName(action.text, &parsed)) {
        return ErrorAt(action, "unknown action '" + action.text + "'");
      }
      // The first onFail binds the property; an onFail after maxAttempt
      // binds the attempt-exhausted case (Figure 5 line 6).
      if (seen_max_attempt && !property->has_max_attempt_action) {
        property->max_attempt_action = parsed;
        property->has_max_attempt_action = true;
      } else if (!property->has_on_fail) {
        property->on_fail = parsed;
        property->has_on_fail = true;
      } else {
        return ErrorAt(action, "duplicate onFail");
      }
    } else if (word.text == "maxAttempt") {
      if (Status status =
              ReadUint32(word, "expected a count after maxAttempt", &property->max_attempt);
          !status.ok()) {
        return status;
      }
      seen_max_attempt = true;
    } else if (word.text == "Path") {
      if (Status status = ReadUint32(word, "expected a path number after Path", &property->path);
          !status.ok()) {
        return status;
      }
    } else if (word.text == "Range") {
      if (Status status = Expect(TokenKind::kLBracket, "to open Range"); !status.ok()) {
        return status;
      }
      if (Status status = ReadNumber("expected the Range lower bound", &property->range_lo);
          !status.ok()) {
        return status;
      }
      if (Status status = Expect(TokenKind::kComma, "between Range bounds"); !status.ok()) {
        return status;
      }
      if (Status status = ReadNumber("expected the Range upper bound", &property->range_hi);
          !status.ok()) {
        return status;
      }
      if (Status status = Expect(TokenKind::kRBracket, "to close Range"); !status.ok()) {
        return status;
      }
      property->has_range = true;
    } else if (word.text == "jitter") {
      if (Status status = ReadDuration(word, "expected a duration after jitter", &property->jitter);
          !status.ok()) {
        return status;
      }
    } else {
      return ErrorAt(word, "unknown modifier '" + word.text + "'");
    }
  }
  return Status::Ok();
}

}  // namespace artemis
