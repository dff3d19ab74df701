// Ablation (Section III-B): fusing comparison instruction blocks into
// CAS-if-less PIM atomics.
//
// SSSP's relax and CComp's min-label update compile to load/compare/
// branch/CAS blocks because x86 has no single "update-if-less" atomic.
// The paper proposes identifying such blocks and offloading each as ONE
// PIM command — halving the property round trips.
#include <cstdio>

#include "bench_util.h"
#include "core/runner.h"
#include "workloads/fusion.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationFusion(const BenchContext& ctx) {
  PrintHeader("Ablation: comparison-block fusion (CAS-if-less)", ctx);

  std::printf("%-8s %12s %14s %12s %12s\n", "workload", "GraphPIM", "GraphPIM+fuse",
              "blocks", "ops saved");
  const std::vector<std::string> names = {"sssp", "ccomp", "bfs"};
  struct Row {
    core::SimResults base;
    core::SimResults pim;
    core::SimResults fused;
    workloads::FusionStats fstats;
  };
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    auto exp = ctx.MakeExperiment(names[i]);
    auto rs = RunPaired(*exp, {core::Mode::kBaseline, core::Mode::kGraphPim}, ctx);
    Row r;
    r.base = std::move(rs[0]);
    r.pim = std::move(rs[1]);

    // The fusion pass needs the address-space classification; rebuild one
    // (the segment layout is static).
    graph::AddressSpace space;
    workloads::Trace fused =
        workloads::FuseComparisonBlocks(exp->trace(), space, &r.fstats);
    r.fused = core::RunSimulation(fused, ctx.MakeConfig(core::Mode::kGraphPim),
                                  exp->pmr_base(), exp->pmr_end(),
                                  core::RunOptions{});
    return r;
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-8s %11.2fx %13.2fx %12llu %12llu\n", names[i].c_str(),
                core::Speedup(r.base, r.pim), core::Speedup(r.base, r.fused),
                static_cast<unsigned long long>(r.fstats.fused_with_cas +
                                                r.fstats.fused_compare_only),
                static_cast<unsigned long long>(r.fstats.ops_removed));
  }
  std::printf("\nexpected: sssp/ccomp gain from one PIM round trip per relax;\n"
              "bfs (already a single CAS per edge) is unchanged\n");
}
