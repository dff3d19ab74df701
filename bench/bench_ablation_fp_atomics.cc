// Ablation (Section III-C): the floating-point add/sub extension to the
// HMC atomic set. Without it, BC and PRank cannot offload (Table III) and
// their FP atomics fall back to the host — with an uncacheable PMR this
// degrades to bus locking, the hazard Section III-B warns about.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationFpAtomics(const BenchContext& ctx) {
  PrintHeader("Ablation: FP atomic extension (Section III-C)", ctx);

  std::printf("%-8s %14s %14s %16s\n", "workload", "GraphPIM+FP", "GraphPIM-noFP",
              "offloaded (+FP)");
  const std::vector<std::string> names = {"prank", "bc", "bfs", "dc"};
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    auto exp = ctx.MakeExperiment(name);
    core::SimConfig without = ctx.MakeConfig(core::Mode::kGraphPim);
    without.hmc.enable_fp_atomics = false;
    return RunGrid(*exp,
                   {ctx.MakeConfig(core::Mode::kBaseline),
                    ctx.MakeConfig(core::Mode::kGraphPim), without},
                   ctx);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i][0];
    const core::SimResults& rw = rows[i][1];
    const core::SimResults& ro = rows[i][2];
    std::printf("%-8s %13.2fx %13.2fx %11llu/%llu\n", names[i].c_str(),
                core::Speedup(base, rw), core::Speedup(base, ro),
                static_cast<unsigned long long>(rw.offloaded_atomics),
                static_cast<unsigned long long>(rw.atomics));
  }
  std::printf("\nexpected: FP workloads (prank, bc) lose their benefit without\n"
              "the extension; integer workloads (bfs, dc) are unaffected\n");
}
