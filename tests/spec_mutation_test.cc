// Seeded token-level mutation of the three surface languages. Every mutant
// of the shipped health.prop, health.mayfly and sensornet.app must end in
// an ok result or an error Status: no exception, no crash. A spec runs
// parse -> validate -> lower -> compile -> AnalyzeMachines against the
// health app; an app file runs ParseAppDescription and, when it parses,
// carries sensornet.prop through the same pipeline.
//
// Mutations: delete a token, duplicate one, swap two, or replace one with
// an extreme literal (400 digits, -1, 2^32+1, 1e-7). Deterministic: the
// mutants depend only on the seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/spec/app_lang.h"
#include "src/spec/lexer.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

constexpr int kMutantsPerSource = 300;

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs/" + name);
  EXPECT_TRUE(in.good()) << name;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// The source's token spellings, comments dropped.
std::vector<std::string> Spellings(const std::string& source) {
  std::vector<std::string> out;
  for (const Token& token : Lexer(source).Tokenize()) {
    if (token.kind != TokenKind::kEndOfInput) {
      out.push_back(token.text);
    }
  }
  return out;
}

std::string Mutate(std::vector<std::string> tokens, Rng& rng) {
  static const std::string kExtremes[] = {std::string(400, '9'), "-1", "4294967297",
                                          "0.0000001"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformU64(0, n - 1));
  };
  const std::size_t at = pick(tokens.size());
  switch (pick(4)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), tokens[at]);
      break;
    case 2:
      std::swap(tokens[at], tokens[pick(tokens.size())]);
      break;
    default:
      tokens[at] = kExtremes[pick(4)];
      break;
  }
  std::string out;
  for (const std::string& token : tokens) {
    out += token + " ";
  }
  return out;
}

// Validate -> lower -> compile -> analyze, stopping at the first error.
void RunBackHalf(const StatusOr<SpecAst>& spec, const AppGraph& graph) {
  if (!spec.ok() || !SpecValidator::Validate(spec.value(), graph).ok()) {
    return;
  }
  StatusOr<std::vector<StateMachine>> machines = LowerSpec(spec.value(), graph, {});
  if (!machines.ok()) {
    return;
  }
  for (const StateMachine& machine : machines.value()) {
    (void)CompileStateMachine(machine);
  }
  (void)AnalyzeMachines(machines.value(), graph);
}

TEST(SpecMutationTest, EveryMutantEndsInOkOrAnErrorStatus) {
  const HealthApp health = BuildHealthApp();
  const std::string sensornet_spec = ReadExample("sensornet.prop");
  Rng rng(20241019);
  const auto for_each_mutant = [&rng](const char* name, const auto& run) {
    const std::vector<std::string> tokens = Spellings(ReadExample(name));
    ASSERT_FALSE(tokens.empty()) << name;
    for (int i = 0; i < kMutantsPerSource; ++i) {
      const std::string mutant = Mutate(tokens, rng);
      try {
        run(mutant);
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " mutant " << i << " threw " << e.what() << ":\n" << mutant;
      }
    }
  };
  for_each_mutant("health.prop", [&](const std::string& text) {
    RunBackHalf(SpecParser::Parse(text), health.graph);
  });
  for_each_mutant("health.mayfly", [&](const std::string& text) {
    RunBackHalf(MayflyFrontend::Parse(text), health.graph);
  });
  for_each_mutant("sensornet.app", [&](const std::string& text) {
    StatusOr<AppDescription> app = ParseAppDescription(text);
    if (app.ok()) {
      RunBackHalf(SpecParser::Parse(sensornet_spec), app.value().graph);
    }
  });
}

}  // namespace
}  // namespace artemis
