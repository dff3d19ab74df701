// Figure 4: atomic-instruction overhead of graph workloads on the baseline
// machine — each workload is replayed with its atomics included and with
// them replaced by plain read+write pairs (the paper's micro-benchmark
// methodology).
//
// Paper shape: 29.8% average performance degradation from atomics, up to
// ~64% for Degree Centrality.
#include <cstdio>

#include "bench_util.h"
#include "core/runner.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig04AtomicOverhead(const BenchContext& ctx) {
  PrintHeader("Fig 4: host atomic-instruction overhead (baseline machine)", ctx);

  core::SimConfig cfg = ctx.MakeConfig(core::Mode::kBaseline);
  std::printf("%-8s %14s %14s %10s\n", "workload", "with-atomic", "plain-rw",
              "overhead");
  double sum = 0;
  int n = 0;
  auto names = workloads::EvalWorkloadNames();
  struct Row {
    core::SimResults with;
    core::SimResults without;
  };
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    Row r;
    r.with = exp->Run(cfg);
    workloads::Trace plain = workloads::ReplaceAtomicsWithPlain(exp->trace());
    r.without = core::RunSimulation(plain, cfg, exp->pmr_base(), exp->pmr_end(),
                                    core::RunOptions{});
    return r;
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Row& r = rows[i];
    double overhead = static_cast<double>(r.with.cycles) /
                          static_cast<double>(r.without.cycles) -
                      1.0;
    sum += overhead;
    ++n;
    std::printf("%-8s %14llu %14llu %9.1f%%  |%s\n", names[i].c_str(),
                static_cast<unsigned long long>(r.with.cycles),
                static_cast<unsigned long long>(r.without.cycles), 100 * overhead,
                Bar(overhead).c_str());
  }
  std::printf("%-8s %40.1f%%\n", "average", 100 * sum / n);
  std::printf("\npaper: 29.8%% average degradation, up to 64%% (DCentr)\n");
}
