#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace graphpim::bench {

BenchContext ParseBench(const Config& cfg, VertexId default_vertices,
                        std::uint64_t default_op_cap) {
  std::vector<std::string> keys = {"vertices", "opcap", "threads",
                                   "seed",     "profile", "jobs"};
  for (const std::string& k : core::SimConfig::ConfigKeys()) keys.push_back(k);
  cfg.RequireKeys(keys);
  BenchContext ctx;
  ctx.cfg = cfg;
  ctx.vertices = static_cast<VertexId>(cfg.GetUint(
      "vertices", default_vertices, std::numeric_limits<VertexId>::max()));
  ctx.op_cap = cfg.GetUint("opcap", default_op_cap);
  ctx.threads = static_cast<int>(cfg.GetInt("threads", 16));
  ctx.seed = cfg.GetUint("seed", 1);
  ctx.profile = cfg.GetString("profile", "ldbc");
  ctx.jobs = static_cast<int>(cfg.GetInt("jobs", 0));
  return ctx;
}

exec::ThreadPool& BenchContext::Pool() const {
  if (pool_ == nullptr) pool_ = std::make_shared<exec::ThreadPool>(jobs);
  return *pool_;
}

std::vector<core::SimResults> RunPaired(const core::Experiment& exp,
                                        const std::vector<core::Mode>& modes,
                                        const BenchContext& ctx) {
  return exec::ParallelMap(ctx.Pool(), modes.size(), [&](std::size_t i) {
    return exp.Run(ctx.MakeConfig(modes[i]));
  });
}

void PrintHeader(const std::string& title, const BenchContext& ctx) {
  std::printf("==============================================================\n");
  std::printf("GraphPIM reproduction | %s\n", title.c_str());
  std::printf("machine: %s\n",
              ctx.MakeConfig(core::Mode::kGraphPim).Describe().c_str());
  std::printf("dataset: %s-like synthetic graph, %u vertices (op cap %llu)\n",
              ctx.profile.c_str(), ctx.vertices,
              static_cast<unsigned long long>(ctx.op_cap));
  std::printf("==============================================================\n");
}

std::string Bar(double frac, int width) {
  double clamped = std::clamp(frac, 0.0, 1.5);
  int n = static_cast<int>(clamped / 1.5 * width + 0.5);
  std::string out(static_cast<std::size_t>(n), '#');
  return out;
}

}  // namespace graphpim::bench
