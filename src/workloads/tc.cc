#include "workloads/tc.h"

#include <algorithm>
#include <vector>

#include "graph/property.h"

namespace graphpim::workloads {

const WorkloadInfo& TcWorkload::info() const {
  static const WorkloadInfo kInfo{
      "tc",
      "Triangle Count",
      WorkloadCategory::kRichProperty,
      /*pim_applicable=*/true,
      /*missing_op=*/"",
      /*host_instr=*/"lock add",
      /*pim_op=*/"Signed add",
      /*needs_fp_extension=*/false};
  return kInfo;
}

void TcWorkload::Generate(const graph::CsrGraph& g, graph::AddressSpace& space,
                          TraceBuilder& tb) {
  const VertexId n = g.num_vertices();
  const int num_threads = tb.num_threads();

  // Per-vertex triangle counts plus a global accumulator, all properties.
  graph::PropertyArray<std::int64_t> count(space.pmr(), n, 0);
  graph::PropertyArray<std::int64_t> total(space.pmr(), 1, 0);

  // mult[y] = occurrences of y in u's (truncated) list; parallel edges
  // make the lists multisets. All zero between vertices.
  std::vector<std::uint32_t> mult(n, 0);

  triangles_ = 0;
  for (int t = 0; t < num_threads; ++t) {
    auto [begin, end] = ThreadChunk(n, t, num_threads);
    for (std::size_t uu = begin; uu < end; ++uu) {
      VertexId u = static_cast<VertexId>(uu);
      tb.Load(t, g.OffsetAddr(u), 8);
      auto nu = g.Neighbors(u);
      std::size_t du = std::min<std::size_t>(nu.size(), max_list_);
      for (std::size_t i = 0; i < du; ++i) ++mult[nu[i]];
      std::int64_t local = 0;
      EdgeId eu = g.OffsetOf(u);
      for (std::size_t i = 0; i < du; ++i) {
        VertexId v = nu[i];
        tb.Load(t, g.NeighborAddr(eu + i), 4);
        if (v <= u) continue;
        tb.Load(t, g.OffsetAddr(v), 4, /*dep=*/true);
        auto nv = g.Neighbors(v);
        std::size_t dv = std::min<std::size_t>(nv.size(), max_list_);
        // The count: a two-pointer merge of two sorted multisets matches
        // min(count in nu, count in nv) copies of each y.
        for (std::size_t b = 0; b < dv;) {
          const VertexId y = nv[b];
          std::size_t run = 1;
          while (b + run < dv && nv[b + run] == y) ++run;
          local += std::min<std::size_t>(run, mult[y]);
          b += run;
        }
        // The trace: the two-pointer merge the kernel runs, walked only to
        // emit its ops, so it ends where recording ends (DESIGN.md §2).
        // Capped() is still set by the next emitter call: vertex n-1 has no
        // v > u, so its offset load always follows the last walk.
        std::size_t a = 0;
        std::size_t b = 0;
        EdgeId ev = g.OffsetOf(v);
        while (a < du && b < dv && tb.HasRoom(1)) {
          tb.Load(t, g.NeighborAddr(eu + a), 4);
          tb.Load(t, g.NeighborAddr(ev + b), 4);
          tb.Compute(t, 1, /*dep=*/true);
          tb.Branch(t, /*dep=*/true);
          if (nu[a] == nv[b]) {
            ++a;
            ++b;
          } else if (nu[a] < nv[b]) {
            ++a;
          } else {
            ++b;
          }
        }
      }
      for (std::size_t i = 0; i < du; ++i) mult[nu[i]] = 0;
      if (local != 0) {
        // Commit the per-vertex result and the shared total.
        tb.Store(t, count.AddrOf(u), 8);
        count[u] = local;
        tb.Atomic(t, total.AddrOf(0), hmc::AtomicOp::kDualAdd8, 8,
                  /*want_return=*/false, /*dep=*/true);
        total[0] += local;
      }
    }
  }
  tb.Barrier();
  triangles_ = static_cast<std::uint64_t>(total[0]);
}

}  // namespace graphpim::workloads
