// Figure 10: cache miss rate of offloading candidates (atomic accesses to
// the graph property) on the baseline machine.
//
// Paper shape: >80% miss for most workloads; kCore, TC and BC show lower
// rates (limited accesses / data locality).
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig10Missrate(const BenchContext& ctx) {
  PrintHeader("Fig 10: cache miss rate of offloading candidates", ctx);

  // Offloading candidates are the PMR (property) accesses — the atomics
  // plus the loads feeding them, all of which GraphPIM routes around the
  // caches. Reported: the fraction that miss the whole hierarchy in the
  // baseline.
  std::printf("%-8s %10s %12s %14s\n", "workload", "miss-rate", "candidates",
              "atomic-miss");
  const auto names = workloads::EvalWorkloadNames();
  const core::SimConfig cfg = ctx.MakeConfig(core::Mode::kBaseline);
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    return ctx.MakeExperiment(name)->Run(cfg);
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::SimResults& base = rows[i];
    double acc = base.raw.Get("cache.access.property");
    double miss = base.raw.Get("cache.l3_miss.property");
    double rate = acc > 0 ? miss / acc : 0.0;
    std::printf("%-8s %9.1f%% %12.0f %13.1f%%  |%s\n", names[i].c_str(),
                100 * rate, acc, 100 * base.atomic_miss_rate, Bar(rate).c_str());
  }
  std::printf("\npaper: >80%% for most workloads; kCore/TC/BC lower\n");
}
