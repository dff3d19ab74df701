// Figure 14 (+ Table VI): sensitivity to input graph size.
//
//   (a) GraphPIM improvement over U-PEI: positive for large graphs,
//       shrinking (even negative for BC) as the graph starts fitting in the
//       LLC and cache bypass loses value.
//   (b) GraphPIM speedup over baseline: stays high across sizes (avoided
//       atomic overhead is size-insensitive).
//
// Sizes scale the LDBC family of Table VI against the scaled machine; pass
// --full=1 with larger --vertices to sweep against Table IV capacities.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Fig14GraphSize(const BenchContext& ctx) {
  PrintHeader("Fig 14: sensitivity to graph size (Table VI family)", ctx);

  struct Size {
    const char* label;
    VertexId n;
  };
  const std::vector<Size> sizes = {{"ldbc-1k", 1024},
                                   {"ldbc-4k", 4 * 1024},
                                   {"ldbc-16k", 16 * 1024},
                                   {"ldbc-64k", 64 * 1024}};

  std::printf("Table VI (scaled family):\n");
  for (const Size& s : sizes) {
    std::printf("  %-9s %7u vertices, ~%.1fM edges\n", s.label, s.n,
                28.8 * s.n / 1e6);
  }

  std::printf("\n(a) GraphPIM improvement over U-PEI   (b) speedup over baseline\n");
  std::printf("%-8s", "workload");
  for (const Size& s : sizes) std::printf(" %9s", s.label);
  std::printf("  |");
  for (const Size& s : sizes) std::printf(" %9s", s.label);
  std::printf("\n");

  const auto names = workloads::EvalWorkloadNames();
  struct Row {
    std::vector<double> vs_upei;
    std::vector<double> vs_base;
  };
  const auto rows = exec::ParallelMap(ctx.Pool(), names.size(), [&](std::size_t i) {
    Row row;
    for (const Size& s : sizes) {
      BenchContext local = ctx;
      local.vertices = s.n;
      auto exp = local.MakeExperiment(names[i]);
      auto rs = RunPaired(
          *exp,
          {core::Mode::kBaseline, core::Mode::kUPei, core::Mode::kGraphPim},
          ctx);
      const core::SimResults& base = rs[0];
      const core::SimResults& upei = rs[1];
      const core::SimResults& pim = rs[2];
      row.vs_upei.push_back(100.0 * (static_cast<double>(upei.cycles) /
                                         static_cast<double>(pim.cycles) -
                                     1.0));
      row.vs_base.push_back(core::Speedup(base, pim));
    }
    return row;
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%-8s", names[i].c_str());
    for (double v : rows[i].vs_upei) std::printf(" %8.1f%%", v);
    std::printf("  |");
    for (double v : rows[i].vs_base) std::printf(" %8.2fx", v);
    std::printf("\n");
  }
  std::printf("\npaper: (a) shrinks (negative for BC / small graphs) as data\n"
              "fits the LLC; (b) stays within the large-graph range\n");
}
