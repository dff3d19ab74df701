// Figure 12: normalized HMC link bandwidth consumption with the
// request/response breakdown.
//
// Paper shape: GraphPIM cuts total traffic by ~30% for BFS/CComp/DC/SSSP/
// PRank (mostly on the response side); negligible change for kCore/TC;
// U-PEI saves less than GraphPIM (no cache bypass).
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig12Bandwidth(const BenchContext& ctx) {
  PrintHeader("Fig 12: normalized bandwidth (request/response FLITs)", ctx);

  std::printf("%-8s %-9s %9s %9s %9s\n", "workload", "config", "request",
              "response", "total");
  const auto names = workloads::EvalWorkloadNames();
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    return RunPaired(
        *exp, {core::Mode::kBaseline, core::Mode::kUPei, core::Mode::kGraphPim},
        ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    double norm = base.req_flits + base.resp_flits;
    for (const core::SimResults& r : rows[i]) {
      std::printf("%-8s %-9s %9.3f %9.3f %9.3f\n", names[i].c_str(),
                  r.mode.c_str(), r.req_flits / norm, r.resp_flits / norm,
                  (r.req_flits + r.resp_flits) / norm);
    }
  }
  std::printf("\npaper: ~30%% reduction for the atomic-heavy workloads,\n"
              "mostly from the response side\n");
}
