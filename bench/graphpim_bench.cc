// graphpim_bench — regenerates the paper's figures and tables by name.
//
//   graphpim_bench <name|all> [--vertices=N] [--opcap=N] [--jobs=N] ...
//
// Each name runs one bench_<name>.cc (common flags: bench_util.h); `all`
// runs every bench in table order, each at its own defaults.
#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.h"
#include "common/log.h"
#include "common/string_util.h"

using namespace graphpim;
using namespace graphpim::bench;

namespace {

struct BenchEntry {
  const char* name;
  void (*run)(const BenchContext&);
  VertexId default_vertices;
  std::uint64_t default_op_cap;
};

// Figure order, then the tables, the ablations and the HNSW extension.
constexpr BenchEntry kBenches[] = {
    {"fig01_ipc", Fig01Ipc, 16 * 1024, 6'000'000},
    {"fig02_breakdown", Fig02Breakdown, 16 * 1024, 6'000'000},
    {"fig04_atomic_overhead", Fig04AtomicOverhead, 16 * 1024, 6'000'000},
    {"fig07_speedup", Fig07Speedup, 32 * 1024, 12'000'000},
    {"fig09_time_breakdown", Fig09TimeBreakdown, 16 * 1024, 6'000'000},
    {"fig10_missrate", Fig10Missrate, 32 * 1024, 12'000'000},
    {"fig11_fu_sensitivity", Fig11FuSensitivity, 16 * 1024, 6'000'000},
    {"fig12_bandwidth", Fig12Bandwidth, 32 * 1024, 12'000'000},
    {"fig13_link_bandwidth", Fig13LinkBandwidth, 16 * 1024, 6'000'000},
    // Fig 14 sweeps its own graph sizes; its default only labels the banner.
    {"fig14_graph_size", Fig14GraphSize, 0, 8'000'000},
    {"fig15_energy", Fig15Energy, 32 * 1024, 12'000'000},
    {"fig16_model_validation", Fig16ModelValidation, 16 * 1024, 6'000'000},
    {"fig17_realworld", Fig17Realworld, 16 * 1024, 5'000'000},
    {"table1_hmc_atomics", Table1HmcAtomics, 32 * 1024, 12'000'000},
    {"table2_offload_targets", Table2OffloadTargets, 8 * 1024, 2'000'000},
    {"table3_applicability", Table3Applicability, 32 * 1024, 12'000'000},
    {"table5_flits", Table5Flits, 32 * 1024, 12'000'000},
    {"ablation_fp_atomics", AblationFpAtomics, 16 * 1024, 4'000'000},
    {"ablation_bypass", AblationBypass, 16 * 1024, 3'000'000},
    {"ablation_fusion", AblationFusion, 16 * 1024, 4'000'000},
    {"ablation_hybrid", AblationHybrid, 16 * 1024, 4'000'000},
    {"ablation_page_policy", AblationPagePolicy, 16 * 1024, 4'000'000},
    {"ablation_link_ber", AblationLinkBer, 16 * 1024, 4'000'000},
    {"hnsw", Hnsw, 8192, 2'000'000},
};

int RunMain(int argc, char** argv) {
  std::string valid = "all";
  for (const BenchEntry& b : kBenches) valid += std::string(", ") + b.name;
  const std::string name = argc > 1 ? argv[1] : "";
  if (name.empty() || StartsWith(name, "--")) {
    GP_THROW("missing bench name (one of: ", valid, ")");
  }
  // argv[1] is the name, so the flags start one slot later.
  const Config cfg = Config::FromArgs(argc - 1, argv + 1);
  bool found = false;
  for (const BenchEntry& b : kBenches) {
    if (name != "all" && name != b.name) continue;
    b.run(ParseBench(cfg, b.default_vertices, b.default_op_cap));
    found = true;
  }
  if (!found) GP_THROW("unknown bench '", name, "' (one of: ", valid, ")");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(argc, argv);
  } catch (const std::exception& e) {
    // Bad names and flags (SimError) end in one line, as in tools/.
    std::fprintf(stderr, "graphpim_bench: error: %s\n", e.what());
    return 1;
  }
}
