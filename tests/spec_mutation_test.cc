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
//
// Sweep grid files get byte-level mutants instead (delete, duplicate or
// replace a byte, or insert deep brackets or an out-of-range number), plus
// hand-made deep nesting and out-of-range numbers: each must end in a
// grid or an error Status from ParseGridJson.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <filesystem>
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
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

constexpr int kMutantsPerSource = 300;

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::string ReadExample(const std::string& name) {
  return ReadFile(std::filesystem::path(ARTEMIS_SOURCE_DIR) / "examples/specs" / name);
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

std::string MutateBytes(std::string text, Rng& rng) {
  static const std::string kInserts[] = {std::string(100, '['), std::string(100, '{'),
                                         std::string(400, '9'), "1e999", "-1e999",
                                         "18446744073709551616", "\\u00ff", "\""};
  static const std::string kBytes = "{}[]\",:-.eE0 \\tfn";
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformU64(0, n - 1));
  };
  const std::size_t at = pick(text.size());
  switch (pick(4)) {
    case 0:
      text.erase(at, 1);
      break;
    case 1:
      text.insert(at, 1, text[at]);
      break;
    case 2:
      text[at] = kBytes[pick(kBytes.size())];
      break;
    default:
      text.insert(at, kInserts[pick(std::size(kInserts))]);
      break;
  }
  return text;
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

TEST(SpecMutationTest, EveryGridMutantEndsInAGridOrAnErrorStatus) {
  const std::filesystem::path root(ARTEMIS_SOURCE_DIR);
  std::vector<std::filesystem::path> grids = {root /
                                              "tests/golden/sweep/health_errors.grid.json"};
  for (const auto& entry : std::filesystem::directory_iterator(root / "examples/sweeps")) {
    grids.push_back(entry.path());
  }
  const auto parse = [](const std::string& name, const std::string& text) {
    try {
      (void)sweep::ParseGridJson(text, [](const std::string&) -> StatusOr<std::string> {
        return std::string("accel: {}");
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " threw " << e.what() << ":\n" << text;
    }
  };
  Rng rng(20261019);
  for (const std::filesystem::path& grid : grids) {
    const std::string text = ReadFile(grid);
    ASSERT_FALSE(text.empty()) << grid;
    for (int i = 0; i < kMutantsPerSource; ++i) {
      parse(grid.filename().string() + " mutant " + std::to_string(i), MutateBytes(text, rng));
    }
  }
  const std::size_t kDeep = 50'000;
  const std::string extremes[] = {
      std::string(kDeep, '['),
      "{\"seeds\": " + std::string(kDeep, '[') + std::string(kDeep, ']') + "}",
      [] {
        std::string nested;
        for (std::size_t i = 0; i < kDeep; ++i) {
          nested += "{\"a\": ";
        }
        return nested;
      }(),
      R"({"seeds": [1e400]})",
      R"({"seeds": [-1e400]})",
      R"({"budgets": [1e400, -1e400, 1e-400]})",
      R"({"flight_bytes": 1e400})",
      R"({"flight_bytes": 18446744073709551616})",
      R"({"seeds": [)" + std::string(400, '9') + "]}",
  };
  for (const std::string& text : extremes) {
    parse("extreme grid", text);
  }
}

}  // namespace
}  // namespace artemis
