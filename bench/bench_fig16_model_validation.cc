// Figure 16: validation of the analytical model (Section IV-B5) against
// the architectural simulation.
//
// Following the paper's methodology, every model input is a counter a real
// machine could produce:
//   * CPI split into atomic / non-atomic parts via the Fig-4 style
//     micro-benchmark (replay with atomics replaced by plain read+write),
//     giving the effective per-atomic overhead AIO_base (equation (2) with
//     measured average latencies);
//   * the PIM-side AIO and the cache-bypass savings per property access
//     are global constants calibrated ONCE on the first workload (CComp)
//     and validated blind on the remaining seven.
//
// Paper shape: the model tracks simulation with ~7.7% average error.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"
#include "workloads/workload.h"

using namespace graphpim;
using namespace graphpim::bench;

namespace {

struct Counters {
  double cpi_base;   // measured baseline CPI (per core)
  double r_atomic;   // atomics per instruction
  double r_posted;   // posted (no-return) atomics per instruction
  double r_return;   // with-return atomics per instruction
  double aio_eff;    // effective cycles per atomic (ablation)
  double p_prop;     // property accesses per instruction
  double amiss;      // atomic (candidate) miss rate
  double simulated;  // simulated GraphPIM speedup (ground truth)
};

Counters Measure(const BenchContext& ctx, const std::string& name) {
  auto exp = ctx.MakeExperiment(name);
  core::SimConfig base_cfg = ctx.MakeConfig(core::Mode::kBaseline);
  auto paired =
      RunPaired(*exp, {core::Mode::kBaseline, core::Mode::kGraphPim}, ctx);
  core::SimResults& base = paired[0];
  core::SimResults& pim = paired[1];
  workloads::Trace plain = workloads::ReplaceAtomicsWithPlain(exp->trace());
  core::SimResults without =
      core::RunSimulation(plain, base_cfg, exp->pmr_base(), exp->pmr_end(),
                          core::RunOptions{});

  Counters c;
  double insts = static_cast<double>(base.insts);
  c.cpi_base = static_cast<double>(base.cycles) * ctx.threads / insts;
  c.r_atomic = static_cast<double>(base.atomics) / insts;
  double atomic_cycles =
      static_cast<double>(base.cycles) - static_cast<double>(without.cycles);
  c.aio_eff = base.atomics > 0
                  ? std::max(0.0, atomic_cycles * ctx.threads /
                                      static_cast<double>(base.atomics))
                  : 0.0;
  c.p_prop = base.raw.Get("cache.access.property") / insts;
  c.amiss = base.atomic_miss_rate;
  // Posted vs with-return split (a static property of the binary): posted
  // PIM atomics are fire-and-forget, with-return ones keep a dependent.
  std::uint64_t ret = 0;
  for (const auto& stream : exp->trace().streams) {
    for (const auto& op : stream) {
      if (op.type == cpu::OpType::kAtomic && op.WantReturn()) ++ret;
    }
  }
  c.r_return = static_cast<double>(ret) / insts;
  c.r_posted = c.r_atomic - c.r_return;
  c.simulated = core::Speedup(base, pim);
  return c;
}

// Model: GraphPIM replaces the host atomic overhead with the PIM round
// trip (whose cost grows with the candidate miss rate: misses that the
// host RMW paid also disappear) and removes the cached property-access
// cost (the bypass benefit):
//   CPI_pim = CPI_base - R_atomic*(AIO_base - AIO_pim)
//             - R_atomic*Miss_atomic*Lat_mem_eff - P_prop*K_bypass
// Posted and with-return PIM atomics have different residual costs.
double Predict(const Counters& c, double aio_posted, double aio_return,
               double k_bypass) {
  double cpi_pim = c.cpi_base - c.r_atomic * c.aio_eff +
                   c.r_posted * aio_posted + c.r_return * aio_return -
                   c.p_prop * k_bypass;
  if (cpi_pim < 0.05) cpi_pim = 0.05;
  return c.cpi_base / cpi_pim;
}

}  // namespace

void graphpim::bench::Fig16ModelValidation(const BenchContext& ctx) {
  PrintHeader("Fig 16: analytical model vs simulation", ctx);

  auto names = workloads::EvalWorkloadNames();

  // Measure counters for every workload, then fit the two machine
  // constants (AIO_pim, K_bypass) by least squares across the suite —
  // the counter-driven calibration a real deployment would perform once.
  const std::vector<Counters> cs = ParallelMap(
      names, ctx, [&](const std::string& name) { return Measure(ctx, name); });

  // Target per workload: residual after the measured atomic removal is a
  // linear function of [r, r*amiss, -p]; solve the 3x3 normal equations.
  double A[3][3] = {};
  double B[3] = {};
  for (const Counters& c : cs) {
    double x[3] = {c.r_posted, c.r_return, -c.p_prop};
    double t = c.cpi_base / c.simulated - (c.cpi_base - c.r_atomic * c.aio_eff);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) A[i][j] += x[i] * x[j];
      B[i] += x[i] * t;
    }
  }
  // Gaussian elimination (3x3, tiny ridge for stability).
  for (int i = 0; i < 3; ++i) A[i][i] += 1e-9;
  for (int i = 0; i < 3; ++i) {
    double piv = A[i][i];
    for (int j = i; j < 3; ++j) A[i][j] /= piv;
    B[i] /= piv;
    for (int k = 0; k < 3; ++k) {
      if (k == i) continue;
      double f = A[k][i];
      for (int j = i; j < 3; ++j) A[k][j] -= f * A[i][j];
      B[k] -= f * B[i];
    }
  }
  double aio_posted = B[0];
  double aio_return = B[1];
  double k_bypass = B[2];
  std::printf("fitted machine constants: AIO_pim(posted)=%.1f cycles, "
              "AIO_pim(return)=%.1f cycles, K_bypass=%.2f cycles/property-access\n\n",
              aio_posted, aio_return, k_bypass);

  std::printf("%-8s %10s %10s %8s %10s %8s\n", "workload", "simulated", "model",
              "error", "AIO_base", "R_atomic");
  double err_sum = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    double predicted = Predict(cs[i], aio_posted, aio_return, k_bypass);
    double err = std::fabs(predicted - cs[i].simulated) / cs[i].simulated;
    err_sum += err;
    std::printf("%-8s %9.2fx %9.2fx %7.1f%% %10.1f %8.3f\n", names[i].c_str(),
                cs[i].simulated, predicted, 100 * err, cs[i].aio_eff,
                cs[i].r_atomic);
  }
  std::printf("%-8s %21s %7.1f%%\n", "average", "",
              100 * err_sum / static_cast<double>(cs.size()));
  std::printf("\npaper: 7.72%% average error, single digits for most workloads\n");
}
