// Interval recording and trace export (DESIGN.md §10, §17).
//
// An IntervalLog turns registry snapshots into a sequence of named
// [start, end) intervals, each carrying the counter deltas accrued during
// it plus optional instantaneous gauges. Two cut policies drive it:
//   - phases: the run loop cuts one interval per BSP superstep (at the
//     barrier rendezvous) plus a final drain phase;
//   - windows: FixedWindows cuts fixed-width virtual-time windows
//     (`telemetry.window_ns`) for the simulator and the serve engine.
// Export targets:
//   - Chrome trace JSON ("catapult" format, load in chrome://tracing or
//     Perfetto): one "X" complete event per phase plus "C" counter tracks,
//     sampled spans and window counter tracks merged in.
//   - JSONL: one self-contained JSON object per phase or window, greppable
//     and streamable; also the format embedded in the sweep journal.
#ifndef GRAPHPIM_COMMON_TRACE_H_
#define GRAPHPIM_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/stats.h"
#include "common/types.h"

namespace graphpim::trace {

using Items = std::vector<std::pair<std::string, double>>;

struct Interval {
  std::string name;  // phase name; empty for windows (numbered by position)
  Tick start = 0;    // ticks (picoseconds)
  Tick end = 0;
  // Counters that changed during the interval, name-sorted (value = delta).
  Items deltas;
  // Instantaneous gauges sampled at the cut, in emission order.
  Items gauges;
};

// Accumulates intervals by diffing successive registry snapshots. Not
// thread-safe: cut from the orchestrating thread (the run loop's round
// end or barrier rendezvous), never from workers.
class IntervalLog {
 public:
  // `max_intervals` bounds the log (0 = no limit); cuts past the cap are
  // counted in dropped() instead of stored.
  explicit IntervalLog(std::uint64_t max_intervals = 0)
      : max_(max_intervals) {}

  // Records [start, end). With a non-null `reg` (the merged whole-system
  // registry at the cut point) the deltas are relative to the previous
  // registry cut, or to zero for the first; a null `reg` records no deltas
  // and leaves the baseline alone. Returns the stored interval, or nullptr
  // when the cut fell past the cap.
  Interval* Cut(std::string name, Tick start, Tick end,
                const StatRegistry* reg);

  const std::vector<Interval>& intervals() const { return intervals_; }
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return intervals_.empty(); }

 private:
  std::vector<Interval> intervals_;
  StatSnapshot prev_;
  std::uint64_t max_ = 0;
  std::uint64_t dropped_ = 0;
};

// Fills `out` with instantaneous gauge samples for window [start, end).
// Must be deterministic in the caller's state at the cut point.
using GaugeSampler = std::function<void(Tick start, Tick end, Items* out)>;

// The fixed-width window policy: window k is [k*W, (k+1)*W). Callers feed
// it the current time at deterministic points (the end of an engine round,
// the next serve event); it never cuts inside a call's span of time.
class FixedWindows {
 public:
  // `width` must be > 0. `gauges` may be empty; it runs once per stored
  // window.
  FixedWindows(Tick width, IntervalLog* log, GaugeSampler gauges);

  // First boundary not yet cut. Callers gate on `now >= next_boundary()`
  // to keep the hot path to one compare.
  Tick next_boundary() const { return next_; }

  // Cuts every window whose boundary is <= now, taking one registry
  // snapshot per call: when `now` crosses several boundaries the deltas
  // go to the first window and the rest record none. `reg` may be null
  // (gauges-only windows).
  void AdvanceTo(Tick now, const StatRegistry* reg);

  // Final flush: advances through `end`, then cuts the trailing partial
  // window [last boundary, end) when it is non-empty, or when no window
  // was ever stored, so a windowed run always yields >= 1 window.
  // Idempotent.
  void Finish(Tick end, const StatRegistry* reg);

 private:
  void CutWindow(Tick start, Tick end, const StatRegistry* reg);

  Tick width_ = 0;
  Tick next_ = 0;
  IntervalLog* log_ = nullptr;
  GaugeSampler gauges_;
  bool finished_ = false;
};

// Guards "windows on but nowhere to write them": throws SimError naming
// telemetry.window_ns when `window_ns` > 0 and `has_sink` is false.
// `hint` names the flags that would attach a sink for this driver.
void RequireSink(double window_ns, bool has_sink, const char* hint);

// One JSON object per phase:
//   {"phase":"superstep.3","start_ns":...,"end_ns":...,"deltas":{...}}
std::string PhasesToJsonl(const IntervalLog& log);

// One JSON object per window:
//   {"window":3,"start_ns":...,"end_ns":...,"deltas":{...},"gauges":{...}}
// A non-empty `point` adds a leading "point" field (serve grid cells).
std::string WindowsToJsonl(const IntervalLog& log,
                           const std::string& point = "");

// A window log to merge into a trace export. A non-empty `point` prefixes
// its JSONL lines with a "point" field and its Chrome tracks with
// "<point>|", so the windows of several grid cells stay distinct.
struct PointWindows {
  std::string point;
  const IntervalLog* windows = nullptr;
};

// Chrome trace JSON (single object, "traceEvents" array). Timestamps are
// microseconds of simulated time. The phase timeline rides pid 1; a
// non-null `spans` adds its sampled transactions on their own
// core/cube/vault tracks; each window log adds counter ("C") tracks on
// pid 3, with a "tele:" prefix on counter deltas to keep them apart from
// the per-phase counter tracks (gauges keep their names). An empty
// document is the canonical {"displayTimeUnit":"ns","traceEvents":[]}.
std::string ToChromeTrace(const IntervalLog& phases,
                          const SpanLog* spans = nullptr,
                          const std::vector<PointWindows>& windows = {});

// Writes a trace to `path`; ".jsonl" extension selects JSONL (phase
// lines, then span lines, then window lines), anything else Chrome trace.
// Throws SimError on I/O failure.
void WriteTrace(const IntervalLog& phases, const std::string& path,
                const SpanLog* spans = nullptr,
                const std::vector<PointWindows>& windows = {});

// Formats a counter value the way trace/journal output expects: integral
// values without a fraction, others with shortest round-trip-ish "%.6g".
std::string FormatStatValue(double v);

}  // namespace graphpim::trace

#endif  // GRAPHPIM_COMMON_TRACE_H_
