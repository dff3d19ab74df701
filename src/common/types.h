// Fundamental types shared by every GraphPIM subsystem.
#ifndef GRAPHPIM_COMMON_TYPES_H_
#define GRAPHPIM_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace graphpim {

// Simulated physical/virtual address. The simulated address space is
// segmented (see graph/region.h); it never aliases host pointers.
using Addr = std::uint64_t;

// Simulation time in picoseconds. All memory-side components reserve
// resources in Ticks; cores convert to/from their own clock.
using Tick = std::uint64_t;

// Core clock cycles (frequency-dependent; see cpu/core.h).
using Cycle = std::uint64_t;

// Vertex / edge identifiers in the graph framework.
using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

inline constexpr Tick kTicksPerNs = 1000;

// Converts nanoseconds (possibly fractional) to Ticks.
constexpr Tick NsToTicks(double ns) {
  return static_cast<Tick>(ns * static_cast<double>(kTicksPerNs) + 0.5);
}

// Converts Ticks to (fractional) nanoseconds.
constexpr double TicksToNs(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

// Converts Ticks to (fractional) microseconds, the Chrome trace time unit.
constexpr double TicksToUs(Tick t) { return static_cast<double>(t) / 1e6; }

// The three data components of graph computing identified in Section II-C
// of the paper. Offloading candidates live in kProperty.
enum class DataComponent : std::uint8_t {
  kMeta = 0,       // local variables, task queues: cache friendly
  kStructure = 1,  // CSR arrays: spatial locality
  kProperty = 2,   // per-vertex properties: irregular, PMR-resident
};

// Human-readable name for a DataComponent.
const char* ToString(DataComponent c);

// Workload categories from Section II-B.
enum class WorkloadCategory : std::uint8_t {
  kGraphTraversal = 0,  // GT
  kRichProperty = 1,    // RP
  kDynamicGraph = 2,    // DG
};

const char* ToString(WorkloadCategory c);

// Size helpers.
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_TYPES_H_
