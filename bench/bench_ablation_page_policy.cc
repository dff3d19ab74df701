// Ablation: HMC DRAM row-buffer policy (open vs closed page) under both
// machines. Scattered PIM atomics conflict in open-page mode (precharge +
// activate on almost every access), so closed-page can help atomic-heavy
// GraphPIM workloads while costing the baseline's streaming fills.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationPagePolicy(const BenchContext& ctx) {
  PrintHeader("Ablation: HMC row-buffer policy (open vs closed page)", ctx);

  std::printf("%-8s | %-21s | %-21s\n", "", "Baseline cycles", "GraphPIM speedup");
  std::printf("%-8s   %10s %10s   %10s %10s\n", "workload", "open", "closed",
              "open", "closed");
  const std::vector<std::string> names = {"dc", "bfs", "kcore", "prank"};
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    std::vector<core::SimConfig> cfgs;
    for (bool closed : {false, true}) {
      core::SimConfig bcfg = ctx.MakeConfig(core::Mode::kBaseline);
      bcfg.hmc.closed_page = closed;
      core::SimConfig pcfg = ctx.MakeConfig(core::Mode::kGraphPim);
      pcfg.hmc.closed_page = closed;
      cfgs.push_back(bcfg);
      cfgs.push_back(pcfg);
    }
    return exec::ParallelMap(ctx.Pool(), cfgs.size(), [&](std::size_t k) {
      return exp->Run(cfgs[k]);
    });
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Order per workload: base/open, pim/open, base/closed, pim/closed.
    const auto& rs = rows[i];
    std::printf("%-8s   %10.0f %10.0f   %9.2fx %9.2fx\n", names[i].c_str(),
                static_cast<double>(rs[0].cycles),
                static_cast<double>(rs[2].cycles), core::Speedup(rs[0], rs[1]),
                core::Speedup(rs[2], rs[3]));
  }
  std::printf("\nexpected: policies within a few percent of each other —\n"
              "scattered property traffic defeats the row buffer either way\n");
}
