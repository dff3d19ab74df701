// Figure 13: speedup over the original-bandwidth baseline with halved and
// doubled HMC link bandwidth.
//
// Paper shape: insensitive — HMC's link bandwidth is rich enough that
// neither the baseline nor GraphPIM moves with bandwidth, so GraphPIM's
// traffic savings do not translate into performance.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig13LinkBandwidth(const BenchContext& ctx) {
  PrintHeader("Fig 13: sensitivity to HMC link bandwidth", ctx);

  const double scales[] = {0.5, 1.0, 2.0};
  std::printf("%-8s | %-23s | %-23s\n", "", "Baseline", "GraphPIM");
  std::printf("%-8s   %6s %6s %6s    %6s %6s %6s\n", "workload", "half", "1x",
              "double", "half", "1x", "double");
  const auto names = workloads::EvalWorkloadNames();
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    std::vector<core::SimConfig> cfgs;
    for (core::Mode mode : {core::Mode::kBaseline, core::Mode::kGraphPim}) {
      for (double s : scales) {
        core::SimConfig cfg = ctx.MakeConfig(mode);
        cfg.hmc.link_bw_scale = s;
        cfgs.push_back(cfg);
      }
    }
    return exec::ParallelMap(ctx.Pool(), cfgs.size(), [&](std::size_t k) {
      return exp->Run(cfgs[k]);
    });
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Reference: baseline at 1x bandwidth (index 1 in the scales order).
    const core::SimResults& ref = rows[i][1];
    std::printf("%-8s  ", names[i].c_str());
    for (std::size_t k = 0; k < rows[i].size(); ++k) {
      std::printf(" %5.2fx", core::Speedup(ref, rows[i][k]));
      if ((k + 1) % 3 == 0) std::printf("   ");
    }
    std::printf("\n");
  }
  std::printf("\npaper: both systems insensitive to link bandwidth variations\n");
}
