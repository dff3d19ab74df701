// Table V: HMC memory-transaction bandwidth requirement in FLITs.
#include <cstdio>

#include "bench_util.h"
#include "hmc/flit.h"

using namespace graphpim;
using namespace graphpim::bench;
using namespace graphpim::hmc;

void graphpim::bench::Table5Flits(const BenchContext& ctx) {
  PrintHeader("Table V: HMC transaction sizes (FLIT = 128 bit)", ctx);

  std::printf("%-24s %10s %10s\n", "type", "request", "response");
  std::printf("%-24s %7u FLITs %6u FLITs\n", "64-byte READ", ReadRequestFlits(64),
              ReadResponseFlits(64));
  std::printf("%-24s %7u FLITs %6u FLITs\n", "64-byte WRITE", WriteRequestFlits(64),
              WriteResponseFlits(64));
  std::printf("%-24s %7u FLITs %6u FLITs\n", "add without return",
              AtomicRequestFlits(AtomicOp::kAdd16),
              AtomicResponseFlits(AtomicOp::kAdd16, false));
  std::printf("%-24s %7u FLITs %6u FLITs\n", "add with return",
              AtomicRequestFlits(AtomicOp::kAdd16Ret),
              AtomicResponseFlits(AtomicOp::kAdd16Ret, true));
  std::printf("%-24s %7u FLITs %6u FLITs\n", "boolean/bitwise/CAS",
              AtomicRequestFlits(AtomicOp::kCasEqual8),
              AtomicResponseFlits(AtomicOp::kCasEqual8, true));
  std::printf("%-24s %7u FLITs %6u FLITs\n", "compare if equal",
              AtomicRequestFlits(AtomicOp::kCompareEqual16),
              AtomicResponseFlits(AtomicOp::kCompareEqual16, true));
  std::printf("\nGraphPIM sub-line UC accesses (8 bytes): read %u+%u, write %u+%u\n",
              ReadRequestFlits(8), ReadResponseFlits(8), WriteRequestFlits(8),
              WriteResponseFlits(8));
}
