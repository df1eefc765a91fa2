// Ablation: monitor placement alternatives (Section 7 "Implementation
// Alternatives") — the separate component the paper ships, compiler-inlined
// checks, and monitors deployed on an external wirelessly-connected device.
//
// Expected trade-off (as the paper argues): inlining removes the interface
// cost but blows up .text (the Section 6 anti-AOP memory argument); remote
// monitors maximize modularity but wireless I/O dwarfs local checking.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/runtime.h"
#include "src/spec/parser.h"
#include "src/ir/codegen_c.h"
#include "src/ir/lowering.h"

using namespace artemis;
using namespace artemis::bench;

int main() {
  std::printf("=== Ablation: monitor placement (continuous power) ===\n\n");
  std::printf("%-12s %-18s %-18s %-12s %-14s\n", "placement", "runtime overhead",
              "monitor overhead", "energy", ".text proxy");

  // .text proxies per placement.
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  const std::size_t separate_text = CCodeGenerator::EstimateTextBytes(machines.value());
  // Each task boundary (start + end) is an inlining site.
  const std::size_t call_sites = 2 * app.graph.task_count();
  const std::size_t inlined_text = MonitorSet::InlinedTextBytes(separate_text, call_sites);
  const std::size_t remote_text = 0;  // Monitors live on the external device.

  for (const MonitorPlacement placement :
       {MonitorPlacement::kSeparate, MonitorPlacement::kInlined, MonitorPlacement::kRemote}) {
    HealthApp run_app = BuildHealthApp();
    auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
    ArtemisConfig config;
    config.placement = placement;
    auto runtime = ArtemisRuntime::Create(&run_app.graph, HealthAppSpec(), mcu.get(), config);
    if (!runtime.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
      return 1;
    }
    const KernelRunResult result = runtime.value()->Run();
    const OverheadBreakdown b = BreakdownFromStats(result.stats);
    const std::size_t text = placement == MonitorPlacement::kSeparate  ? separate_text
                             : placement == MonitorPlacement::kInlined ? inlined_text
                                                                       : remote_text;
    std::printf("%-12s %-18s %-18s %-12s %-14zu\n", MonitorPlacementName(placement),
                FormatDuration(b.runtime_overhead).c_str(),
                FormatDuration(b.monitor_overhead).c_str(),
                FormatEnergy(result.stats.TotalEnergy()).c_str(), text);
  }

  std::printf("\nshape: inlined folds checking into the runtime bar and removes the call\n"
              "cost but multiplies .text by the inline sites; remote frees local .text\n"
              "but the radio round-trip per event costs orders of magnitude more energy.\n");
  return 0;
}
