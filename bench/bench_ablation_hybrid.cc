// Ablation (Section III-B): hybrid HMC + DRAM systems.
//
// "GraphPIM can be applied on systems equipped with both HMCs and DRAMs.
// In this case, the graph property data allocated in DRAMs will be
// processed in the conventional way, while the graph data in HMCs can
// still receive the same benefit from PIM-Atomic." The sweep places a
// fraction of the property pages in the HMC.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationHybrid(const BenchContext& ctx) {
  PrintHeader("Ablation: hybrid HMC+DRAM property placement", ctx);

  const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::printf("%-8s", "workload");
  for (double f : fractions) std::printf("  HMC=%.0f%%", 100 * f);
  std::printf("\n");
  const std::vector<std::string> names = {"dc", "bfs", "prank"};
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    std::vector<core::SimConfig> cfgs = {ctx.MakeConfig(core::Mode::kBaseline)};
    for (double f : fractions) {
      core::SimConfig cfg = ctx.MakeConfig(core::Mode::kGraphPim);
      cfg.pmr_hmc_fraction = f;
      cfgs.push_back(cfg);
    }
    return exec::ParallelMap(ctx.Pool(), cfgs.size(), [&](std::size_t k) {
      return exp->Run(cfgs[k]);
    });
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    std::printf("%-8s", names[i].c_str());
    for (std::size_t k = 1; k < rows[i].size(); ++k) {
      std::printf(" %7.2fx", core::Speedup(base, rows[i][k]));
    }
    std::printf("\n");
  }
  std::printf("\nexpected: benefit scales with the HMC-resident fraction;\n"
              "0%% degenerates to the baseline (conventional processing)\n");
}
