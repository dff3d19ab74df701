// Ablation (DESIGN.md §9): GraphPIM speedup vs. link bit error rate.
//
// The paper's evaluation assumes lossless SerDes lanes. Real HMC 2.0
// links carry a per-packet CRC and recover detected errors from a retry
// buffer, so every error costs a replay latency plus retransmitted FLITs.
// GraphPIM's offloading *increases* link packet counts (every offloaded
// atomic crosses the link), so the interesting question is whether the
// speedup survives a degraded link — this bench sweeps the BER from
// spec-grade (1e-12) to pathological (1e-6) and reports speedup, retries,
// and poisoned responses per rate.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/report.h"
#include "fault/fault.h"

using namespace graphpim;
using namespace graphpim::bench;

void graphpim::bench::AblationLinkBer(const BenchContext& ctx) {
  PrintHeader("Ablation: link bit error rate (DESIGN.md §9)", ctx);

  const std::vector<double> bers = {0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6};
  auto exp = ctx.MakeExperiment("prank");

  std::vector<core::SimConfig> cfgs;
  for (double ber : bers) {
    for (core::Mode m : {core::Mode::kBaseline, core::Mode::kGraphPim}) {
      core::SimConfig c = ctx.MakeConfig(m);
      c.hmc.fault.link_ber = ber;
      // Same discipline as the sweep runner: decorrelated stream per
      // config, reproducible for a fixed --seed.
      c.hmc.fault.seed = fault::DeriveFaultSeed(ctx.seed, cfgs.size());
      cfgs.push_back(c);
    }
  }
  const std::vector<core::SimResults> rows = RunGrid(*exp, cfgs, ctx);

  std::printf("%-10s %14s %14s %9s %10s %10s\n", "link BER", "baseline",
              "GraphPIM", "speedup", "retries", "poisoned");
  for (std::size_t i = 0; i < bers.size(); ++i) {
    const core::SimResults& base = rows[2 * i];
    const core::SimResults& pim = rows[2 * i + 1];
    std::printf("%-10.0e %14llu %14llu %8.2fx %10llu %10llu\n", bers[i],
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(pim.cycles),
                core::Speedup(base, pim),
                static_cast<unsigned long long>(base.link_retries +
                                                pim.link_retries),
                static_cast<unsigned long long>(base.poisoned_ops +
                                                pim.poisoned_ops));
  }
  std::printf("\nexpected: spec-grade BERs (<=1e-12) are invisible; retries\n"
              "grow with BER and GraphPIM degrades faster than baseline\n"
              "(offloading puts more packets on the link), but keeps its\n"
              "advantage until errors dominate the replay budget\n");
}
