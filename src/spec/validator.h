// Semantic validation of a parsed property specification against the
// application graph, plus structural lint warnings. The Section 7
// "Property Consistency Checking" analysis itself runs on the lowered
// machines (src/analysis, ART009/ART010).
#ifndef SRC_SPEC_VALIDATOR_H_
#define SRC_SPEC_VALIDATOR_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/spec/ast.h"

namespace artemis {

struct ValidationResult {
  Status status;                       // First hard error, or OK.
  std::vector<std::string> warnings;   // Non-fatal consistency lint.

  bool ok() const { return status.ok(); }
};

class SpecValidator {
 public:
  // Checks:
  //  * every task block names a task in the graph
  //  * dpTask present and resolvable for MITD/collect; absent elsewhere
  //  * Path references an existing path that contains the task
  //  * Range present (and lo <= hi) for dpData; dpData names the task's
  //    monitored variable
  //  * every property carries an onFail action; maxAttempt carries a second
  //  * positive durations/counts, minEnergy in (0, 1]
  // Warnings:
  //  * maxAttempt on non-time properties (Table 1 scopes it to MITD/period)
  //  * a task block for a task that is on no path
  //  * a maxDuration shorter than the task's modelled work duration
  //  * MITD/collect where the dependency task never precedes the dependent
  //    task on any shared/earlier path
  static ValidationResult Validate(const SpecAst& spec, const AppGraph& graph);
};

}  // namespace artemis

#endif  // SRC_SPEC_VALIDATOR_H_
