// The serving engine: admission, batching, dispatch, and the qps grid.
//
// A serve *point* is one steady-state experiment: replay one traffic
// schedule against one machine config at one offered load, through an
// admission queue and a fixed number of batch-dispatch slots. Service
// times come from real RunSimulation replays of the batched query traces
// (one trace stream per query, so batched queries genuinely contend for
// the machine's cubes/links/FUs), stitched into a virtual-time queueing
// simulation. Latency = completion − arrival in simulated time.
//
// DETERMINISM CONTRACT (same shape as src/exec/sweep.h): RunServePoint is
// a pure function of (graph, params) — the schedule is value-derived, the
// queueing simulation advances virtual time only, and every replay is the
// deterministic core simulator. RunServeGrid fans the *points* out through
// exec::ParallelMap, which returns them in grid order, so the result table
// is bit-identical for --jobs=1 and --jobs=N. Only wall-time
// metadata may differ between runs.
#ifndef GRAPHPIM_SERVE_ENGINE_H_
#define GRAPHPIM_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "core/sim_config.h"
#include "exec/sweep.h"
#include "serve/query.h"
#include "serve/traffic.h"

namespace graphpim::serve {

// What happens when a request arrives and the admission queue is full.
//   kTail — reject the arriving request (classic tail drop).
//   kHead — drop the oldest queued request and admit the new one (the
//           queued one is stalest and most likely to miss its SLO anyway).
enum class DropPolicy : std::uint8_t { kTail = 0, kHead };

const char* ToString(DropPolicy p);
DropPolicy ParseDropPolicy(const std::string& s);

// Everything one serve point needs besides the resident graph.
struct ServeParams {
  core::SimConfig cfg;          // machine under test
  TrafficSpec traffic;          // qps/model/length; num_vertices is filled
                                // from the graph by RunServePoint
  QueryParams query;
  std::size_t queue_depth = 64; // admission queue capacity
  DropPolicy drop = DropPolicy::kTail;
  int slots = 2;                // concurrent batch-dispatch slots
  std::size_t batch_max = 4;    // queries per batch == trace streams;
                                // must be <= cfg.num_cores
  double dispatch_ns = 500.0;   // host-side batch assembly/dispatch cost

  // Per-request latency SLO target in simulated ns; feeds the per-window
  // per-tenant SLO burn-rate gauge (fraction of a tenant's completions in
  // the window over target). 0 = no target (burn gauge reads 0).
  double slo_ns = 0.0;
};

// Per-tenant slice of a point's SLO accounting.
struct TenantSlo {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  double p50_ns = 0.0, p95_ns = 0.0, p99_ns = 0.0;
  double mean_ns = 0.0, max_ns = 0.0;
};

// One finished serve point (one row of the saturation table).
struct ServePoint {
  std::string config_name;  // e.g. "GraphPIM-c4" (set by the grid caller)
  double qps = 0.0;         // nominal offered load

  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  double drop_rate = 0.0;       // dropped / offered

  // Request latency (admission to batch completion), simulated ns.
  double p50_ns = 0.0, p95_ns = 0.0, p99_ns = 0.0;
  double mean_ns = 0.0, max_ns = 0.0;

  double queue_mean = 0.0;       // queue depth sampled at each arrival
  std::uint64_t queue_peak = 0;
  std::size_t queue_limit = 0;   // configured admission-queue depth

  double util = 0.0;            // busy slot-time / (horizon x slots)
  double achieved_qps = 0.0;    // served / simulated horizon
  double horizon_ns = 0.0;      // first arrival to last completion

  std::uint64_t batches = 0;
  std::uint64_t replayed_ops = 0;  // micro-ops across all batch replays

  std::vector<TenantSlo> tenants;

  // serve.* SLO counters plus the merged machine registries of every
  // batch replay (cache/cube/link counters aggregate across the point).
  StatRegistry raw;

  // Virtual-time telemetry windows (DESIGN.md §17): filled only when
  // cfg.telemetry_window_ns > 0, capped at cfg.telemetry_max_windows.
  // Windows carry gauges only (serve.* per-window arrivals/drops/latency
  // quantiles/queue depth and per-tenant SLO burn); the batch replays
  // inside a point never cut windows of their own.
  trace::IntervalLog timeline;
};

// Runs one point to completion. Pure function; safe to call concurrently
// on a shared ServedGraph. Throws SimError on inconsistent params
// (batch_max > cfg.num_cores, zero slots/batch, negative slo_ns or
// dispatch_ns, empty schedule); RunServeGrid runs the same check.
ServePoint RunServePoint(const ServedGraph& sg, const ServeParams& params);

// A (config x qps) grid, run in parallel over a ThreadPool and returned
// in grid order (config-major, then qps — the determinism contract).
struct ServeGridResult {
  std::vector<ServePoint> points;  // configs.size() * qps_grid.size() rows
  double total_wall_ms = 0.0;      // metadata, not part of the contract
};

// `base` supplies everything except cfg (taken per config) and qps (taken
// per grid column). on_progress (optional) is invoked serially under a
// lock as each point retires, completion-ordered — reuse
// exec::StderrHeartbeat for the standard --progress output.
ServeGridResult RunServeGrid(
    const ServedGraph& sg, const ServeParams& base,
    const exec::NamedConfigs& configs, const std::vector<double>& qps_grid,
    int jobs,
    const std::function<void(const exec::SweepProgress&)>& on_progress = {});

}  // namespace graphpim::serve

#endif  // GRAPHPIM_SERVE_ENGINE_H_
