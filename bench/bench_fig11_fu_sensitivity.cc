// Figure 11: GraphPIM speedup with different numbers of PIM functional
// units per HMC vault.
//
// Paper shape: essentially flat — even one FU per vault sustains the
// atomic throughput, because vault interleaving and dependent instructions
// keep PIM-atomics sparse in the request stream.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig11FuSensitivity(const BenchContext& ctx) {
  PrintHeader("Fig 11: speedup vs PIM FUs per vault (GraphPIM)", ctx);

  const std::uint32_t fus[] = {16, 8, 4, 2, 1};
  std::printf("%-8s", "workload");
  for (std::uint32_t f : fus) std::printf("   FU=%-2u", f);
  std::printf("\n");
  const auto names = workloads::EvalWorkloadNames();
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    auto exp = ctx.MakeExperiment(name);
    std::vector<core::SimConfig> cfgs = {ctx.MakeConfig(core::Mode::kBaseline)};
    for (std::uint32_t f : fus) {
      core::SimConfig cfg = ctx.MakeConfig(core::Mode::kGraphPim);
      cfg.hmc.fus_per_vault = f;
      cfgs.push_back(cfg);
    }
    return RunGrid(*exp, cfgs, ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    std::printf("%-8s", names[i].c_str());
    for (std::size_t k = 1; k < rows[i].size(); ++k) {
      std::printf(" %6.2fx", core::Speedup(base, rows[i][k]));
    }
    std::printf("\n");
  }
  std::printf("\npaper: no noticeable impact down to one FU per vault\n");
}
