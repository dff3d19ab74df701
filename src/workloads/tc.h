// Triangle count (GraphBIG TC): sorted adjacency-list intersection.
//
// Rich Property category; offloading target (Table II): lock add -> signed
// add. Computation happens within neighbor-list intersections, so the
// atomic fraction is tiny and GraphPIM's benefit is limited (Fig 7).
//
// Hub vertices make exact intersection O(d^2); like GraphBIG's optimized
// kernel we bound per-list work (`max_list`), which only affects hubs: the
// count intersects each list's first `max_list` entries.
#ifndef GRAPHPIM_WORKLOADS_TC_H_
#define GRAPHPIM_WORKLOADS_TC_H_

#include <cstdint>

#include "workloads/workload.h"

namespace graphpim::workloads {

class TcWorkload : public Workload {
 public:
  explicit TcWorkload(std::uint32_t max_list = 256) : max_list_(max_list) {}

  const WorkloadInfo& info() const override;
  void Generate(const graph::CsrGraph& g, graph::AddressSpace& space,
                TraceBuilder& tb) override;

  // Functional result: number of (directed) triangles found.
  std::uint64_t triangles() const { return triangles_; }

 private:
  std::uint32_t max_list_;
  std::uint64_t triangles_ = 0;
};

}  // namespace graphpim::workloads

#endif  // GRAPHPIM_WORKLOADS_TC_H_
