// Graph-ANN on the PMR (DESIGN.md §16): HNSW build/search cost and the
// instruction-level offload win on the k-NN search phase.
//
// Two parts:
//   1. Host-side min-of-3 wall timing of the deterministic index build
//      and the batched searches (the functional layer the simulator
//      replays), plus the brute-force recall self-check.
//   2. The paired simulation: the hnsw workload's micro-op trace replayed
//      under Baseline / U-PEI / GraphPIM, reporting the speedup the POU
//      offload buys on the visited-set CAS and beam min-swap traffic.
//
// Accepts the shared bench flags plus every ann.* machine knob
// (--ann-dim, --ann-m, --ann-ef-search, --ann-k, --ann-queries).
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "graph/hnsw_index.h"
#include "graph/vectors.h"
#include "workloads/hnsw.h"

using namespace graphpim;
using namespace graphpim::bench;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void graphpim::bench::Hnsw(const BenchContext& ctx) {
  PrintHeader("HNSW k-NN on the PMR: build/search timing + offload speedup",
              ctx);
  const workloads::AnnParams ann = ctx.MakeConfig(core::Mode::kGraphPim).ann;
  std::printf("ann: dim=%d m=%d ef_search=%d k=%d queries=%d\n\n", ann.dim,
              ann.m, ann.ef_search, ann.k, ann.queries);

  // --- part 1: host wall timing, min of 3 (build is deterministic, so
  // repetitions only shed scheduler noise) ------------------------------
  graph::VectorSetParams vp;
  vp.count = ctx.vertices;
  vp.dim = ann.dim;
  vp.clusters = ctx.vertices >= 512 ? 16 : 4;
  vp.seed = ctx.seed;
  graph::HnswParams hp;
  hp.m = ann.m;
  hp.ef_construction = 2 * ann.ef_search;

  double build_ms = 0.0;
  double search_ms = 0.0;
  std::unique_ptr<graph::VectorSet> vs;
  std::unique_ptr<graph::HnswIndex> ix;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto v = std::make_unique<graph::VectorSet>(vp);
    auto i = std::make_unique<graph::HnswIndex>(*v, hp);
    const double bm = MsSince(t0);
    if (rep == 0 || bm < build_ms) build_ms = bm;

    t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < ann.queries; ++q) {
      const std::vector<float> query = v->Query(static_cast<std::uint64_t>(q));
      (void)i->Search(query.data(), ann.k, ann.ef_search);
    }
    const double sm = MsSince(t0);
    if (rep == 0 || sm < search_ms) search_ms = sm;
    vs = std::move(v);
    ix = std::move(i);
  }
  const double recall =
      graph::SelfCheckRecall(*vs, *ix, ann.k, ann.ef_search, ann.queries);
  std::printf("%-28s %10.2f ms  (min of 3, %u vectors)\n",
              "index build (host)", build_ms, vs->size());
  std::printf("%-28s %10.2f ms  (min of 3, %d searches, %.3f ms/query)\n",
              "k-NN search (host)", search_ms, ann.queries,
              ann.queries > 0 ? search_ms / ann.queries : 0.0);
  std::printf("%-28s %10.4f     (recall@%d vs brute force, %d probes)\n\n",
              "self-check", recall, ann.k, ann.queries);

  // --- part 2: the simulated offload win --------------------------------
  core::Experiment::Options eo;
  eo.num_threads = ctx.threads;
  eo.seed = ctx.seed;
  eo.op_cap = ctx.op_cap;
  eo.params.ann = ann;
  const core::Experiment exp(ctx.profile, ctx.vertices, "hnsw", eo);
  const auto rows = RunPaired(
      exp, {core::Mode::kBaseline, core::Mode::kUPei, core::Mode::kGraphPim},
      ctx);
  const core::SimResults& base = rows[0];
  std::printf("%-10s %12s %10s %12s %10s\n", "machine", "cycles", "speedup",
              "atomics", "offloaded");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    static const char* kNames[] = {"Baseline", "U-PEI", "GraphPIM"};
    const core::SimResults& r = rows[i];
    std::printf("%-10s %12llu %9.2fx %12llu %10llu  |%s\n", kNames[i],
                static_cast<unsigned long long>(r.cycles),
                core::Speedup(base, r),
                static_cast<unsigned long long>(r.atomics),
                static_cast<unsigned long long>(r.offloaded_atomics),
                Bar(core::Speedup(base, r) / 2.5).c_str());
  }
  const auto* hw = dynamic_cast<const workloads::HnswWorkload*>(&exp.workload());
  if (hw != nullptr) {
    std::printf("\nworkload recall@%d = %.4f over %d queries\n", ann.k,
                hw->recall(), ann.queries);
  }
}
