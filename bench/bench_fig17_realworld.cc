// Tables VII/VIII and Figure 17: real-world applications.
//
//   FD — financial fraud detection: graph-traversal pipeline (connected
//        components + path tracing) over a Bitcoin-like transaction graph,
//        plus non-graph components that dilute the benefit.
//   RS — recommender system: item-to-item collaborative filtering
//        (co-neighbor intersection + degree scoring) over a Twitter-like
//        follower graph.
//
// As in the paper, the applications exceed architectural-simulation scale:
// counters are collected from scaled-down pipeline runs (substituting the
// paper's Xeon performance counters) and fed to the Section IV-B5
// analytical model.
//
// Paper shape (Fig 17): FD ~1.5x speedup / 32% energy reduction; RS ~1.9x
// speedup / 48% energy reduction; Table VIII: IPC ~0.1, LLC hit rates low,
// backend-stall >80%, PIM-atomic share 1.3% / 2.9%.
#include <cstdio>
#include <vector>

#include "analytic/model.h"
#include "bench_util.h"
#include "core/runner.h"

using namespace graphpim;
using namespace graphpim::bench;

namespace {

struct AppSpec {
  const char* name;
  const char* profile;
  std::vector<const char*> stages;
  std::vector<double> weights;  // share of graph time per stage
  double non_graph_fraction;    // pipeline time outside graph kernels
};

}  // namespace

void graphpim::bench::Fig17Realworld(const BenchContext& ctx) {
  PrintHeader("Fig 17 + Tables VII/VIII: real-world applications", ctx);

  std::printf("Table VII (substituted datasets):\n");
  std::printf("  FD: Bitcoin-like transaction graph (paper: 71.7M vertices,\n"
              "      181.8M edges, ~10GB) — scaled to %u vertices\n", ctx.vertices);
  std::printf("  RS: Twitter-like follower graph (paper: 11M vertices,\n"
              "      85M edges, ~5GB) — scaled to %u vertices\n\n", ctx.vertices);

  const std::vector<AppSpec> apps = {
      {"FD", "bitcoin", {"ccomp", "sssp"}, {0.5, 0.5}, 0.35},
      {"RS", "twitter", {"tc", "dc"}, {0.25, 0.75}, 0.15},
  };

  std::printf("Table VIII analog (measured counters from scaled runs):\n");
  std::printf("%-4s %8s %10s %10s %10s %12s\n", "app", "IPC", "LLC MPKI",
              "LLC hit", "backend", "%PIM-atomic");

  struct AppResult {
    double speedup;
    double energy;
  };
  std::vector<AppResult> results;
  struct StagePair {
    core::SimResults base;
    core::SimResults pim;
  };
  // One pool job per (app, stage) pair: flatten, replay, then regroup.
  std::vector<std::pair<std::size_t, std::size_t>> stage_keys;
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    for (std::size_t si = 0; si < apps[ai].stages.size(); ++si) {
      stage_keys.emplace_back(ai, si);
    }
  }
  const auto stage_rows = exec::ParallelMap(
      ctx.Pool(), stage_keys.size(), [&](std::size_t i) {
        const std::pair<std::size_t, std::size_t>& key = stage_keys[i];
        const AppSpec& app = apps[key.first];
        BenchContext local = ctx;
        local.profile = app.profile;
        auto exp = local.MakeExperiment(app.stages[key.second]);
        auto rs = RunPaired(
            *exp, {core::Mode::kBaseline, core::Mode::kGraphPim}, ctx);
        return StagePair{std::move(rs[0]), std::move(rs[1])};
      });
  std::size_t flat = 0;
  for (const AppSpec& app : apps) {
    double ipc = 0;
    double mpki = 0;
    double hit = 0;
    double backend = 0;
    double atomic_pct = 0;
    double inv_speedup = 0;  // graph-time share after GraphPIM
    for (std::size_t si = 0; si < app.stages.size(); ++si) {
      const core::SimResults& base = stage_rows[flat].base;
      const core::SimResults& pim = stage_rows[flat].pim;
      ++flat;
      double w = app.weights[si];
      ipc += w * base.ipc;
      mpki += w * base.l3_mpki;
      double l3_acc = base.raw.Get("cache.l3_hits") + base.raw.Get("cache.l3_misses");
      hit += w * (l3_acc > 0 ? base.raw.Get("cache.l3_hits") / l3_acc : 0.0);
      backend += w * base.frac_backend;
      atomic_pct += w * static_cast<double>(base.atomics) /
                    static_cast<double>(base.insts);
      inv_speedup += w / core::Speedup(base, pim);
    }
    // Amdahl combination with the non-graph pipeline components.
    double g = 1.0 - app.non_graph_fraction;
    double speedup = 1.0 / (app.non_graph_fraction + g * inv_speedup);
    // The analytical model supplies the energy estimate from the same
    // counters (Section IV-B5).
    analytic::RealWorldApp in;
    in.name = app.name;
    in.ipc = ipc;
    in.llc_mpki = mpki;
    in.llc_hit_rate = hit;
    in.uncore_time = backend * g;
    in.backend_stall = backend;
    in.pim_atomic_pct = atomic_pct * g;
    in.host_overhead = 1.0 - 1.0 / speedup;
    in.cache_checking = 0.3 * in.host_overhead;
    std::printf("%-4s %8.2f %10.1f %9.1f%% %9.1f%% %11.1f%%\n", app.name, in.ipc,
                in.llc_mpki, 100 * in.llc_hit_rate, 100 * in.backend_stall,
                100 * in.pim_atomic_pct);
    results.push_back({speedup, analytic::EstimateRealWorld(in).energy_norm});
  }

  std::printf("\nFig 17 (counter-driven model estimates):\n");
  std::printf("%-4s %10s %18s\n", "app", "speedup", "norm. uncore energy");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-4s %9.2fx %18.2f\n", apps[i].name, results[i].speedup,
                results[i].energy);
  }
  std::printf("\npaper: FD 1.5x / 0.68 energy; RS 1.9x / 0.52 energy\n");
}
