// Table I: the HMC 2.0 atomic operations — functional self-check plus a
// throughput microbenchmark of each operation class through the cube's
// vault FUs.
#include <cstdio>

#include "bench_util.h"
#include "hmc/cube.h"
#include "hmc/flit.h"

using namespace graphpim;
using namespace graphpim::bench;
using namespace graphpim::hmc;

void graphpim::bench::Table1HmcAtomics(const BenchContext& ctx) {
  PrintHeader("Table I: HMC 2.0 atomic operations", ctx);

  std::printf("%-10s %-14s %6s %8s %10s %10s %12s\n", "op", "category", "bytes",
              "returns", "req-FLITs", "rsp-FLITs", "Mops/s/cube");

  auto category_name = [](AtomicCategory c) {
    switch (c) {
      case AtomicCategory::kArithmetic: return "Arithmetic";
      case AtomicCategory::kBitwise: return "Bitwise";
      case AtomicCategory::kBoolean: return "Boolean";
      case AtomicCategory::kComparison: return "Comparison";
      case AtomicCategory::kFloatingPoint: return "FP (ext)";
    }
    return "?";
  };

  HmcParams params;
  for (int i = 0; i < static_cast<int>(AtomicOp::kNumOps); ++i) {
    AtomicOp op = static_cast<AtomicOp>(i);
    const AtomicOpInfo& info = GetOpInfo(op);

    // Throughput: stream scattered atomics of this op through a fresh cube
    // and measure the sustained rate from the last internal completion.
    HmcCube cube(params);
    constexpr int kOps = 4096;
    Tick last = 0;
    Rng rng(7);
    for (int k = 0; k < kOps; ++k) {
      Addr a = (rng.NextBounded(1 << 20)) * 64;
      Completion c = cube.Atomic(a, op, Value16{1, 1}, info.returns_data, 0);
      if (c.internal_done > last) last = c.internal_done;
    }
    double mops = kOps / TicksToNs(last) * 1000.0;
    std::printf("%-10s %-14s %6u %8s %10u %10u %12.0f\n", info.name,
                category_name(info.category), info.operand_bytes,
                info.returns_data ? "w/" : "w/o", AtomicRequestFlits(op),
                AtomicResponseFlits(op, info.returns_data), mops);
  }
  std::printf("\n%d base operations (HMC 2.0) + FP extension (Section III-C)\n",
              kNumBaseOps);
}
