// Table II: PIM offloading targets — the host atomic instruction each
// workload uses and the PIM-atomic it maps to, verified against the ops
// actually observed offloading in a GraphPIM run.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Table2OffloadTargets(const BenchContext& ctx) {
  PrintHeader("Table II: summary of PIM offloading targets", ctx);

  std::printf("%-26s %-28s %-18s %10s\n", "workload", "offloading target",
              "PIM-atomic type", "offloaded");
  const core::SimConfig cfg = ctx.MakeConfig(core::Mode::kGraphPim);
  auto run_all = [&](const std::vector<std::string>& names) {
    const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
      return ctx.MakeExperiment(name)->Run(cfg);
    });
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto wl = workloads::CreateWorkload(names[i]);
      const core::SimResults& pim = rows[i];
      double pct =
          pim.atomics > 0 ? 100.0 * pim.offloaded_atomics / pim.atomics : 0.0;
      std::printf("%-26s %-28s %-18s %9.1f%%\n", wl->info().display.c_str(),
                  wl->info().host_instr.c_str(), wl->info().pim_op.c_str(), pct);
    }
  };
  run_all({"bfs", "dc", "sssp", "kcore", "ccomp", "tc"});
  std::printf("\nWith the Section III-C FP extension:\n");
  run_all({"bc", "prank"});
}
