// Table III: PIM-atomic applicability across the GraphBIG-style workloads.
#include <cstdio>

#include "bench_util.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::Table3Applicability(const BenchContext& ctx) {
  PrintHeader("Table III: PIM-atomic applicability (GraphBIG workloads)", ctx);

  std::printf("%-16s %-26s %-12s %s\n", "category", "workload", "applicable?",
              "(missing operation)");
  for (const auto& name : workloads::AllWorkloadNames()) {
    auto wl = workloads::CreateWorkload(name);
    const auto& info = wl->info();
    const char* cat = "";
    switch (info.category) {
      case WorkloadCategory::kGraphTraversal: cat = "Graph Traversal"; break;
      case WorkloadCategory::kDynamicGraph: cat = "Dynamic Graph"; break;
      case WorkloadCategory::kRichProperty: cat = "Rich Property"; break;
    }
    std::printf("%-16s %-26s %-12s %s\n", cat, info.display.c_str(),
                info.pim_applicable ? "yes" : "no",
                info.missing_op.empty() ? "" : ("(" + info.missing_op + ")").c_str());
  }
  std::printf("\nFP add/sub extension (Section III-C) additionally enables\n"
              "Betweenness Centrality and Page Rank.\n");
}
