// Figure 15: uncore energy breakdown normalized to the baseline.
//
// Paper shape: GraphPIM reduces uncore energy by ~37% on average; savings
// come from caches, HMC links and the logic layer; FU energy negligible
// except the FP workloads (BC, PRank); never worse than the baseline.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig15Energy(const BenchContext& ctx) {
  PrintHeader("Fig 15: uncore energy breakdown (normalized to baseline)", ctx);

  std::printf("%-8s %-9s %8s %8s %8s %8s %8s %8s\n", "workload", "config",
              "caches", "link", "FU", "logic", "DRAM", "total");
  double sum = 0;
  int n = 0;
  const auto names = workloads::EvalWorkloadNames();
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    return RunPaired(*exp, {core::Mode::kBaseline, core::Mode::kGraphPim}, ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const core::SimResults& base = rows[i][0];
    const core::SimResults& pim = rows[i][1];
    double norm = base.energy.Total();
    for (const core::SimResults* r : {&base, &pim}) {
      std::printf("%-8s %-9s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n", name.c_str(),
                  r->mode.c_str(), r->energy.caches_j / norm, r->energy.link_j / norm,
                  r->energy.fu_j / norm, r->energy.logic_j / norm,
                  r->energy.dram_j / norm, r->energy.Total() / norm);
    }
    sum += pim.energy.Total() / norm;
    ++n;
  }
  std::printf("%-8s %-9s %48s %8.3f\n", "average", "GraphPIM", "", sum / n);
  std::printf("\npaper: ~37%% average uncore energy reduction; links + logic\n"
              "layer dominate HMC energy; FP FU visible only for BC/PRank\n");
}
