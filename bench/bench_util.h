// Shared harness utilities for the figure/table benches that graphpim_bench
// runs by name (bench/graphpim_bench.cc).
//
// Every bench accepts the same command-line overrides:
//   --vertices=N    LDBC-like graph size (default per bench)
//   --full=1        Table IV full-size caches (default: scaled, DESIGN.md)
//   --opcap=N       micro-op sampling cap per run
//   --threads=N     worker threads (== cores simulated)
//   --seed=N        generator seed
//   --profile=P     synthetic graph profile (ldbc, bitcoin, twitter)
//   --jobs=N        host threads replaying configs in parallel
//                   (0 = hardware concurrency; results are identical for
//                   any N — see src/exec determinism contract)
// plus every machine knob of the SimConfig field table.
#ifndef GRAPHPIM_BENCH_BENCH_UTIL_H_
#define GRAPHPIM_BENCH_BENCH_UTIL_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "exec/thread_pool.h"

namespace graphpim::bench {

struct BenchContext {
  Config cfg;
  VertexId vertices = 32 * 1024;
  std::uint64_t op_cap = 12'000'000;
  int threads = 16;
  std::uint64_t seed = 1;
  std::string profile = "ldbc";
  int jobs = 0;  // pool width; 0 = hardware concurrency

  // Builds the machine through the shared SimConfig::FromConfig path, so a
  // bench invocation accepts every field-table knob (--full, --threads,
  // --num-cubes, --topology, fault knobs, ...) without bespoke plumbing.
  core::SimConfig MakeConfig(core::Mode mode) const {
    return core::SimConfig::FromConfig(cfg, mode);
  }

  std::unique_ptr<core::Experiment> MakeExperiment(const std::string& workload) const {
    core::Experiment::Options o;
    o.num_threads = threads;
    o.seed = seed;
    o.op_cap = op_cap;
    return std::make_unique<core::Experiment>(profile, vertices, workload, o);
  }

  // Process-wide replay pool, created on first use with `jobs` workers.
  exec::ThreadPool& Pool() const;

 private:
  mutable std::shared_ptr<exec::ThreadPool> pool_;
};

// Replays `exp` under every config on the shared pool; results come back
// in input order, bit-identical to serial exp.Run() calls.
std::vector<core::SimResults> RunGrid(const core::Experiment& exp,
                                      const std::vector<core::SimConfig>& cfgs,
                                      const BenchContext& ctx);

// Paired-run helper: replays `exp` under ctx.MakeConfig(m) for each mode,
// in parallel, keeping the paper's paired-trace methodology.
std::vector<core::SimResults> RunPaired(const core::Experiment& exp,
                                        const std::vector<core::Mode>& modes,
                                        const BenchContext& ctx);

// Runs `fn(item)` for every item on the shared pool and returns the results
// in input order (completion order does not leak out, so bench output stays
// deterministic). `fn` may itself call RunGrid/RunPaired: nested calls from
// a worker thread execute inline rather than re-entering the pool.
template <typename Item, typename F>
auto ParallelMap(const std::vector<Item>& items, const BenchContext& ctx, F fn)
    -> std::vector<std::invoke_result_t<F&, const Item&>> {
  using R = std::invoke_result_t<F&, const Item&>;
  exec::ThreadPool& pool = ctx.Pool();
  std::vector<std::future<R>> futs;
  futs.reserve(items.size());
  for (const Item& item : items) {
    futs.push_back(pool.Submit([&fn, &item] { return fn(item); }));
  }
  std::vector<R> out;
  out.reserve(items.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

// Reads the common flags out of `cfg` after rejecting any key that is
// neither a common flag nor a SimConfig knob; `default_vertices` and
// `default_op_cap` let heavyweight sweeps pick smaller defaults.
BenchContext ParseBench(const Config& cfg, VertexId default_vertices,
                        std::uint64_t default_op_cap);

// Prints the standard banner: bench title + Table IV-style machine line.
void PrintHeader(const std::string& title, const BenchContext& ctx);

// ASCII bar of length proportional to `frac` (clamped to [0, 1.5]).
std::string Bar(double frac, int width = 40);

// The benches, one per bench_<name>.cc; graphpim_bench.cc maps names to them.
void Fig01Ipc(const BenchContext& ctx);
void Fig02Breakdown(const BenchContext& ctx);
void Fig04AtomicOverhead(const BenchContext& ctx);
void Fig07Speedup(const BenchContext& ctx);
void Fig09TimeBreakdown(const BenchContext& ctx);
void Fig10Missrate(const BenchContext& ctx);
void Fig11FuSensitivity(const BenchContext& ctx);
void Fig12Bandwidth(const BenchContext& ctx);
void Fig13LinkBandwidth(const BenchContext& ctx);
void Fig14GraphSize(const BenchContext& ctx);
void Fig15Energy(const BenchContext& ctx);
void Fig16ModelValidation(const BenchContext& ctx);
void Fig17Realworld(const BenchContext& ctx);
void Table1HmcAtomics(const BenchContext& ctx);
void Table2OffloadTargets(const BenchContext& ctx);
void Table3Applicability(const BenchContext& ctx);
void Table5Flits(const BenchContext& ctx);
void AblationFpAtomics(const BenchContext& ctx);
void AblationBypass(const BenchContext& ctx);
void AblationFusion(const BenchContext& ctx);
void AblationHybrid(const BenchContext& ctx);
void AblationPagePolicy(const BenchContext& ctx);
void AblationLinkBer(const BenchContext& ctx);
void Hnsw(const BenchContext& ctx);

}  // namespace graphpim::bench

#endif  // GRAPHPIM_BENCH_BENCH_UTIL_H_
