// Ablation (Section III-B discussion): the cache-bypass policy.
//
//   Baseline   — cacheable property, host atomics
//   UC-NoPIM   — uncacheable property WITHOUT PIM atomics: host atomics
//                degrade to bus locking ("huge performance degradation")
//   GraphPIM   — uncacheable property WITH PIM atomics
//
// This isolates the paper's claim that bypassing the cache only pays off
// when combined with PIM-atomic offloading.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationBypass(const BenchContext& ctx) {
  PrintHeader("Ablation: cache bypass with/without PIM atomics", ctx);

  std::printf("%-8s %12s %12s %12s\n", "workload", "Baseline", "UC-NoPIM",
              "GraphPIM");
  const std::vector<std::string> names = {"bfs", "dc", "ccomp", "kcore"};
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    auto exp = ctx.MakeExperiment(name);
    return RunPaired(*exp,
                     {core::Mode::kBaseline, core::Mode::kUncacheNoPim,
                      core::Mode::kGraphPim},
                     ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    std::printf("%-8s %11.2fx %11.2fx %11.2fx\n", names[i].c_str(), 1.0,
                core::Speedup(base, rows[i][1]), core::Speedup(base, rows[i][2]));
  }
  std::printf("\nexpected: UC-NoPIM well below 1x (bus-locked atomics);\n"
              "bypass helps only together with PIM-atomic offloading\n");
}
