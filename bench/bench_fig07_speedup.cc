// Figure 7: speedups over the baseline system.
//
// Paper shape: GraphPIM up to 2.4x (PRank), >2x for BFS/CComp/DC, ~1 for
// kCore/TC, ~1.1 for BC; GraphPIM beats the idealized U-PEI by ~20% on
// average; average GraphPIM speedup ~1.6x.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig07Speedup(const BenchContext& ctx) {
  PrintHeader("Fig 7: speedup over baseline (Baseline / U-PEI / GraphPIM)", ctx);

  std::printf("%-8s %8s %8s %10s\n", "workload", "U-PEI", "GraphPIM", "(cycles,B)");
  double sum_upei = 0;
  double sum_pim = 0;
  auto names = workloads::EvalWorkloadNames();
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    return RunPaired(
        *exp, {core::Mode::kBaseline, core::Mode::kUPei, core::Mode::kGraphPim},
        ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    double su = core::Speedup(base, rows[i][1]);
    double sp = core::Speedup(base, rows[i][2]);
    sum_upei += su;
    sum_pim += sp;
    std::printf("%-8s %7.2fx %7.2fx %10.3f  |%s\n", names[i].c_str(), su, sp,
                static_cast<double>(base.cycles) / 1e9, Bar(sp / 2.5).c_str());
  }
  std::printf("%-8s %7.2fx %7.2fx\n", "average",
              sum_upei / static_cast<double>(names.size()),
              sum_pim / static_cast<double>(names.size()));
  std::printf("\npaper: GraphPIM avg 1.6x, max 2.4x (PRank); >2x BFS/CComp/DC;\n"
              "       ~1x kCore/TC; GraphPIM > U-PEI by ~20%% on average\n");
}
