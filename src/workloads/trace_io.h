// Binary trace serialization: snapshot a generated trace to disk so large
// inputs are traced once and replayed across many machine-configuration
// sweeps (the usual trace-driven-simulator workflow).
#ifndef GRAPHPIM_WORKLOADS_TRACE_IO_H_
#define GRAPHPIM_WORKLOADS_TRACE_IO_H_

#include <string>

#include "workloads/trace.h"

namespace graphpim::workloads {

// Writes `trace` to `path`; returns false on I/O failure.
bool SaveTrace(const Trace& trace, const std::string& path);

// Loads a trace written by SaveTrace. Returns false if `path` cannot be
// opened; malformed content (bad magic, a count larger than the file, an
// out-of-range op type, atomic op or data component byte, streams that
// disagree on their barrier count) throws SimError naming the file and the
// stream or record.
bool LoadTrace(const std::string& path, Trace* out);

}  // namespace graphpim::workloads

#endif  // GRAPHPIM_WORKLOADS_TRACE_IO_H_
