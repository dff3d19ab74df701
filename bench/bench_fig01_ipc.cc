// Figure 1: instructions per cycle (IPC) of graph workloads on the
// conventional (baseline) machine, grouped by category.
//
// Paper shape: most workloads far below IPC 1; GT lowest (often < 0.1),
// DG a bit higher, RP highest.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig01Ipc(const BenchContext& ctx) {
  PrintHeader("Fig 1: IPC of graph workloads (baseline machine)", ctx);

  std::printf("%-8s %-4s %8s\n", "workload", "cat", "IPC");
  const auto names = workloads::AllWorkloadNames();
  const core::SimConfig cfg = ctx.MakeConfig(core::Mode::kBaseline);
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    return ctx.MakeExperiment(name)->Run(cfg);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto wl = workloads::CreateWorkload(names[i]);
    WorkloadCategory cat = wl->info().category;
    const core::SimResults& base = rows[i];
    std::printf("%-8s %-4s %8.3f  |%s\n", names[i].c_str(), ToString(cat),
                base.ipc, Bar(base.ipc / 0.7).c_str());
  }
  std::printf("\npaper: GT workloads often below 0.1 IPC; all well below 1\n");
}
