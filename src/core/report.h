// Human- and machine-readable reports of simulation results.
#ifndef GRAPHPIM_CORE_REPORT_H_
#define GRAPHPIM_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/results.h"

namespace graphpim::core {

// Multi-line human-readable summary of one run.
std::string FormatReport(const SimResults& r);

// Per-stage bottleneck attribution for the atomic path (paper Fig. 9 from
// measurement): one column per mode in `results`, one row per span stage
// that contributed, each cell "mean-ns (share%)" over that mode's sampled
// atomics. Derived purely from the span.atomic.* counters FoldSpanStats
// interned, so it needs no access to the raw span logs. Returns "" when no
// mode carries span data (tracing off).
std::string FormatBottleneckTable(const std::vector<SimResults>& results);

// JSON object with the run's headline metrics plus every raw counter
// (stable key names; suitable for downstream tooling).
std::string ToJson(const SimResults& r);

// Writes ToJson() to `path`; throws SimError on I/O failure.
void WriteJson(const SimResults& r, const std::string& path);

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_REPORT_H_
