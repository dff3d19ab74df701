// Figure 9: breakdown of normalized execution time into Atomic-inCore,
// Atomic-inCache, and Other, for the baseline and GraphPIM.
//
// The total atomic share is measured by ablation (replaying the trace with
// atomics replaced by plain read+write, as in Fig 4) and split between
// in-core and in-cache using the core's attribution counters; this mirrors
// the paper's definitions (in-core: pipeline freezing + write-buffer
// draining; in-cache: cache checking + coherence traffic).
//
// Paper shape: baseline >50% atomic time for BFS/CComp/DC/PRank with
// in-core the larger part; kCore/TC small; GraphPIM bars shrink to ~1/2x
// with almost no atomic component.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/runner.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig09TimeBreakdown(const BenchContext& ctx) {
  PrintHeader("Fig 9: normalized execution-time breakdown", ctx);

  std::printf("%-8s %-9s %10s %14s %15s %8s\n", "workload", "config", "norm-time",
              "atomic-inCore", "atomic-inCache", "other");
  const auto names = workloads::EvalWorkloadNames();
  struct Row {
    core::SimResults with[2];
    core::SimResults without[2];
  };
  const auto rows = ParallelMap(names, ctx, [&](const std::string& name) {
    auto exp = ctx.MakeExperiment(name);
    workloads::Trace plain = workloads::ReplaceAtomicsWithPlain(exp->trace());
    Row r;
    int i = 0;
    for (core::Mode mode : {core::Mode::kBaseline, core::Mode::kGraphPim}) {
      core::SimConfig cfg = ctx.MakeConfig(mode);
      r.with[i] = exp->Run(cfg);
      r.without[i] =
          core::RunSimulation(plain, cfg, exp->pmr_base(), exp->pmr_end(),
                              core::RunOptions{});
      ++i;
    }
    return r;
  });
  for (std::size_t wi = 0; wi < names.size(); ++wi) {
    const std::string& name = names[wi];
    double base_cycles = static_cast<double>(rows[wi].with[0].cycles);
    for (int mi = 0; mi < 2; ++mi) {
      const core::SimResults& with = rows[wi].with[mi];
      const core::SimResults& without = rows[wi].without[mi];
      double norm = static_cast<double>(with.cycles) / base_cycles;
      double atomic_share = std::max(
          0.0, 1.0 - static_cast<double>(without.cycles) /
                         static_cast<double>(with.cycles));
      // Split the ablated share by the attribution counters' ratio.
      double ic = with.frac_atomic_incore;
      double ca = with.frac_atomic_incache;
      double denom = ic + ca > 0 ? ic + ca : 1.0;
      double incore = atomic_share * ic / denom;
      double incache = atomic_share * ca / denom;
      std::printf("%-8s %-9s %10.2f %13.1f%% %14.1f%% %7.1f%%\n", name.c_str(),
                  with.mode.c_str(), norm, 100 * norm * incore,
                  100 * norm * incache, 100 * norm * (1.0 - incore - incache));
    }
  }
  std::printf("\npaper: baseline atomic share >50%% for BFS/CComp/DC/PRank\n"
              "(in-core > 30%%, in-cache up to ~20%%); GraphPIM removes it\n");
}
