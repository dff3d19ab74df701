// Figure 2: execution-cycle breakdown (top-down style) and cache MPKI of
// graph workloads on the baseline machine.
//
// Paper shape: Backend dominates (up to >90%); L2/L3 provide little help;
// L3 MPKI up to ~145 (DCentr).
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig02Breakdown(const BenchContext& ctx) {
  PrintHeader("Fig 2: cycle breakdown + MPKI (baseline machine)", ctx);

  std::printf("%-8s %8s %9s %8s %8s | %8s %8s %8s\n", "workload", "backend",
              "frontend", "badspec", "retire", "L1D-MPKI", "L2-MPKI", "L3-MPKI");
  const auto names = workloads::AllWorkloadNames();
  const core::SimConfig cfg = ctx.MakeConfig(core::Mode::kBaseline);
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    return ctx.MakeExperiment(name)->Run(cfg);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& r = rows[i];
    std::printf("%-8s %7.1f%% %8.1f%% %7.1f%% %7.1f%% | %8.1f %8.1f %8.1f\n",
                names[i].c_str(), 100 * r.frac_backend, 100 * r.frac_frontend,
                100 * r.frac_badspec, 100 * r.frac_retiring, r.l1_mpki, r.l2_mpki,
                r.l3_mpki);
  }
  std::printf("\npaper: backend-caused stalls dominate (>90%% for some GT\n"
              "workloads); caches provide little benefit for GT/DG\n");
}
