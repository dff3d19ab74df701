// graphpim_serve — multi-tenant query-serving engine with SLO reporting
// (DESIGN.md §13).
//
// Admits synthetic open-loop graph-query traffic (Poisson or bursty/MMPP
// arrivals of point queries from the registered kinds: bfs, sssp, prank,
// knn) against one resident graph through an admission queue and
// batch-dispatch slots, replaying each batch on the full timing model.
// Prints a saturation table — one row per (machine config, offered qps) —
// with p50/p95/p99 latency, queue depth, drop rate, and achieved
// throughput, plus a per-config knee summary. A mix containing knn builds
// the shared HNSW index over the vertex set (shaped by the ann.* knobs)
// and reports its brute-force recall self-check inside the table markers.
//
//   graphpim_serve [--profile=ldbc] [--vertices=4096] [--tenants=2]
//                  [--modes=baseline,graphpim] [--num-cubes=1,4]
//                  [--arrivals=poisson|bursty] [--requests=48]
//                  [--mix=bfs=0.5,sssp=0.3,prank=0.2] | [--mix=knn=1]
//                  [--qps=1e6] | [--qps-grid=5e5,1e6,2e6,4e6]
//                  [--queue-depth=64] [--drop=tail|head]
//                  [--slots=2] [--batch=4] [--dispatch-ns=500]
//                  [--max-hops=2] [--max-frontier=64] [--op-budget=4000]
//                  [--burst-mult=8] [--seed=1] [--jobs=N] [--progress=1]
//                  [--metrics-out=serve.json|.jsonl]
//                  [--slo-ns=0]             # per-request latency SLO target
//                                           # feeding the per-window tenant
//                                           # burn-rate gauge
//                  [--telemetry-window-ns=0]  # per-point virtual-time windows
//                                           # (queue depth, window p50/p99,
//                                           # achieved qps, tenant SLO burn);
//                                           # table inside the markers, plus
//                  [--timeline-out=t.jsonl] # window JSONL across all points
//                  + every SimConfig machine knob (threads, ann.*, ...)
//
// DETERMINISM: everything between the "== saturation table ==" markers is
// a pure function of the flags — bit-identical across --jobs counts and
// reruns (the serve-identity gate in scripts/golden_identity.sh diffs
// exactly that region). The wall-clock line prints after the end marker.
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "exec/progress.h"
#include "exec/sweep.h"
#include "graph/hnsw_index.h"
#include "serve/engine.h"
#include "serve/slo.h"
#include "workloads/params.h"

using namespace graphpim;

namespace {

std::vector<double> ParseDoubleList(const std::string& arg,
                                    const std::string& flag) {
  std::vector<double> out;
  for (const std::string& part : Split(arg, ',')) {
    const std::string s = Trim(part);
    if (!s.empty()) out.push_back(ParseDouble("--" + flag, s));
  }
  if (out.empty()) GP_THROW("--", flag, " needs at least one value");
  return out;
}

int Run(const Config& cfg) {
  std::vector<std::string> keys = {
      "profile",   "vertices",  "tenants",     "modes",       "arrivals",
      "requests",  "mix",       "qps",         "qps-grid",    "queue-depth",
      "drop",      "slots",     "batch",       "dispatch-ns", "max-hops",
      "max-frontier", "op-budget", "burst-mult", "seed",      "jobs",
      "progress",  "metrics-out", "slo-ns",     "timeline-out"};
  for (const std::string& k : core::SimConfig::ConfigKeys()) keys.push_back(k);
  cfg.RequireKeys(keys);
  cfg.RequireWritable({"metrics-out", "timeline-out"});

  // --- resident graph options (construction is deferred: a knn mix
  // changes what the graph must host) ----------------------------------
  serve::ServedGraph::Options go;
  go.profile = cfg.GetString("profile", "ldbc");
  go.num_vertices = static_cast<VertexId>(cfg.GetUint(
      "vertices", 4096, std::numeric_limits<VertexId>::max()));
  go.num_tenants = static_cast<std::uint32_t>(cfg.GetUint("tenants", 2));
  go.seed = cfg.GetUint("seed", 1);

  // --- serve parameters ----------------------------------------------
  serve::ServeParams base;
  base.traffic.model = serve::ParseArrivalModel(
      cfg.GetString("arrivals", "poisson"));
  base.traffic.num_requests = cfg.GetUint("requests", 48);
  base.traffic.num_tenants = go.num_tenants;
  base.traffic.burst_mult = cfg.GetDouble("burst-mult", 8.0);
  base.traffic.seed = go.seed;
  if (cfg.Has("mix")) {
    base.traffic.mix = serve::ParseMixSpec(cfg.GetString("mix", ""));
  }
  base.query.max_hops = static_cast<int>(cfg.GetInt("max-hops", 2));
  base.query.max_frontier = cfg.GetUint("max-frontier", 64);
  base.query.op_budget = cfg.GetUint("op-budget", 4000);
  base.queue_depth = cfg.GetUint("queue-depth", 64);
  base.drop = serve::ParseDropPolicy(cfg.GetString("drop", "tail"));
  base.slots = static_cast<int>(cfg.GetInt("slots", 2));
  base.batch_max = cfg.GetUint("batch", 4);
  base.dispatch_ns = cfg.GetDouble("dispatch-ns", 500.0);
  base.slo_ns = cfg.GetDouble("slo-ns", 0.0);

  // --- machine configs: modes x cube counts ---------------------------
  // num-cubes may carry a comma list (the sweep convention): it expands
  // the config axis with "-c<N>" suffixes. SimConfig::FromConfig parses
  // single numbers only, so the list is re-set per config before parsing.
  const std::vector<core::Mode> modes =
      exec::ParseModeList(cfg.GetString("modes", "baseline,graphpim"));
  std::string cubes_arg = cfg.GetString("num-cubes", "");
  if (cubes_arg.empty()) cubes_arg = cfg.GetString("num_cubes", "1");
  const std::vector<double> cube_list = ParseDoubleList(cubes_arg, "num-cubes");
  std::vector<std::pair<std::string, core::SimConfig>> configs;
  for (core::Mode m : modes) {
    for (double c : cube_list) {
      if (!(c >= 1 && c <= std::numeric_limits<std::uint32_t>::max() &&
            c == std::floor(c))) {
        GP_THROW("--num-cubes entries must be positive integers, got ", c);
      }
      const auto n = static_cast<std::uint32_t>(c);
      Config one = cfg;
      one.Set("num-cubes", std::to_string(n));
      one.Set("num_cubes", std::to_string(n));
      std::string name = core::ToString(m);
      if (cube_list.size() > 1) name += StrFormat("-c%u", n);
      configs.emplace_back(name, core::SimConfig::FromConfig(one, m));
    }
  }

  // --- resident graph ---------------------------------------------------
  // A knn entry with positive weight switches on the shared ANN index; the
  // ann.* knobs are machine-config flags, uniform across the modes x cubes
  // expansion (all configs parse the same ann values), so the first config
  // supplies the index shape.
  for (const serve::MixEntry& me : base.traffic.mix) {
    if (me.first == "knn" && me.second > 0.0) go.enable_ann = true;
  }
  if (go.enable_ann) go.ann = configs.front().second.ann;
  serve::ServedGraph sg(go);

  // --- offered-load grid ----------------------------------------------
  std::vector<double> qps_grid;
  if (cfg.Has("qps-grid")) {
    qps_grid = ParseDoubleList(cfg.GetString("qps-grid", ""), "qps-grid");
  } else {
    qps_grid.push_back(cfg.GetDouble("qps", 1e6));
  }

  const int jobs = static_cast<int>(cfg.GetInt("jobs", 0));
  std::string mix_str;
  for (const serve::MixEntry& me : base.traffic.mix) {
    if (!mix_str.empty()) mix_str += ",";
    mix_str += StrFormat("%s=%g", me.first.c_str(), me.second);
  }
  std::printf(
      "graphpim_serve: %s-%u tenants=%u | %s arrivals, %zu requests, "
      "mix %s | queue=%zu/%s slots=%d batch=%zu | %zu configs x %zu qps = "
      "%zu points (--jobs=%d)\n\n",
      go.profile.c_str(), go.num_vertices, go.num_tenants,
      serve::ToString(base.traffic.model), base.traffic.num_requests,
      mix_str.c_str(), base.queue_depth, serve::ToString(base.drop),
      base.slots, base.batch_max, configs.size(), qps_grid.size(),
      configs.size() * qps_grid.size(), jobs);

  std::function<void(const exec::SweepProgress&)> on_progress;
  if (cfg.GetBool("progress", false)) on_progress = exec::StderrHeartbeat();

  const serve::ServeGridResult res =
      serve::RunServeGrid(sg, base, configs, qps_grid, jobs, on_progress);

  // Everything inside the markers is deterministic (seed-fixed,
  // jobs-invariant); scripts diff this region byte-for-byte.
  std::printf("== saturation table ==\n");
  std::fputs(serve::FormatSaturationTable(res.points).c_str(), stdout);
  std::printf("\n");
  std::fputs(serve::FormatKneeSummary(res.points).c_str(), stdout);
  // Per-point telemetry windows (telemetry.window_ns > 0): deterministic,
  // so they live inside the diffed region. Empty string when telemetry is
  // off keeps the off-output byte-identical.
  const std::string window_table = serve::FormatServeTimeline(res.points);
  if (!window_table.empty()) {
    std::printf("\n%s", window_table.c_str());
  }
  if (sg.has_ann()) {
    // Deterministic index-quality self-check (value-derived probes), so it
    // belongs inside the diffed region.
    const workloads::AnnParams& ann = go.ann;
    const double recall = graph::SelfCheckRecall(
        sg.ann_vectors(), sg.ann_index(), ann.k, ann.ef_search, ann.queries);
    std::printf("\nann self-check: recall@%d=%.4f (dim=%d m=%d ef=%d, %d probes)\n",
                ann.k, recall, ann.dim, ann.m, ann.ef_search, ann.queries);
  }
  // Per-tenant SLO breakdown at the grid's highest offered load.
  std::printf("\ntenant breakdown @ qps=%g\n", qps_grid.back());
  for (const serve::ServePoint& p : res.points) {
    if (p.qps != qps_grid.back()) continue;
    for (std::size_t t = 0; t < p.tenants.size(); ++t) {
      const serve::TenantSlo& slo = p.tenants[t];
      std::printf(
          "%-14s tenant%zu offered=%llu served=%llu dropped=%llu "
          "p50=%.2fus p95=%.2fus p99=%.2fus\n",
          p.config_name.c_str(), t,
          static_cast<unsigned long long>(slo.offered),
          static_cast<unsigned long long>(slo.served),
          static_cast<unsigned long long>(slo.dropped), slo.p50_ns / 1e3,
          slo.p95_ns / 1e3, slo.p99_ns / 1e3);
    }
  }
  std::printf("== end saturation table ==\n");

  // Wall-clock metadata (NOT deterministic; stays outside the markers).
  std::printf("\nwall: %.0f ms\n", res.total_wall_ms);

  // Telemetry exports: every point's windows, point-prefixed so the tracks
  // (and JSONL lines) of different grid cells stay distinct.
  std::vector<trace::PointWindows> windows;
  for (const serve::ServePoint& p : res.points) {
    windows.push_back({serve::PointName(p), &p.timeline});
  }

  if (cfg.Has("metrics-out")) {
    const std::string path = cfg.GetString("metrics-out", "");
    trace::WriteTrace(serve::BuildServePhases(res.points), path, nullptr,
                      windows);
    std::printf("metrics written to %s\n", path.c_str());
  }
  if (cfg.Has("timeline-out")) {
    const std::string path = cfg.GetString("timeline-out", "");
    std::string text;
    for (const trace::PointWindows& pw : windows) {
      text += trace::WindowsToJsonl(*pw.windows, pw.point);
    }
    WriteTextFile(path, text);
    std::printf("telemetry timeline written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(Config::FromArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graphpim_serve: error: %s\n", e.what());
    return 1;
  }
}
