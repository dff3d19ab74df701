// Tests for the extension features: comparison-block fusion (Section
// III-B), hybrid HMC+DRAM placement, trace serialization, and reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/system.h"
#include "exec/sweep.h"
#include "graph/generator.h"
#include "workloads/ccomp.h"
#include "workloads/dc.h"
#include "workloads/fusion.h"
#include "workloads/kcore.h"
#include "workloads/sssp.h"
#include "workloads/trace_io.h"

namespace graphpim {
namespace {

using workloads::Trace;

struct Built {
  graph::AddressSpace space;
  graph::CsrGraph g;
  explicit Built(VertexId n = 256)
      : g(graph::GenerateUniform(n, 6.0, 5), space) {}
};

Trace Gen(workloads::Workload& w, Built& b) {
  workloads::TraceBuilder tb(4, &b.space);
  w.Generate(b.g, b.space, tb);
  return tb.Take();
}

std::uint64_t CountOps(const Trace& t, cpu::OpType type) {
  std::uint64_t n = 0;
  for (const auto& s : t.streams) {
    for (const auto& op : s) {
      if (op.type == type) ++n;
    }
  }
  return n;
}

TEST(Fusion, SsspRelaxBlocksFuse) {
  Built b;
  workloads::SsspWorkload sssp(0);
  Trace t = Gen(sssp, b);
  workloads::FusionStats fs;
  Trace fused = workloads::FuseComparisonBlocks(t, b.space, &fs);
  EXPECT_GT(fs.fused_with_cas + fs.fused_compare_only, 0u);
  // Every fused block becomes a CAS-if-less atomic.
  std::uint64_t casless = 0;
  for (const auto& s : fused.streams) {
    for (const auto& op : s) {
      if (op.type == cpu::OpType::kAtomic && op.aop == hmc::AtomicOp::kCasLess16) {
        ++casless;
        EXPECT_TRUE(op.WantReturn());
      }
    }
  }
  EXPECT_EQ(casless, fs.fused_with_cas + fs.fused_compare_only);
  EXPECT_EQ(fused.TotalOps(), t.TotalOps() - fs.ops_removed);
}

TEST(Fusion, KcoreScanLoadsDoNotFuse) {
  // kCore's property scans are plain checks, not comparison blocks; the
  // pass must leave them alone.
  Built b;
  workloads::KcoreWorkload kc(3, 8);
  Trace t = Gen(kc, b);
  workloads::FusionStats fs;
  Trace fused = workloads::FuseComparisonBlocks(t, b.space, &fs);
  EXPECT_EQ(fs.fused_with_cas + fs.fused_compare_only, 0u);
  EXPECT_EQ(fused.TotalOps(), t.TotalOps());
}

TEST(Fusion, BarrierStructurePreserved) {
  Built b;
  workloads::CcompWorkload cc;
  Trace t = Gen(cc, b);
  Trace fused = workloads::FuseComparisonBlocks(t, b.space);
  ASSERT_EQ(fused.streams.size(), t.streams.size());
  for (std::size_t i = 0; i < t.streams.size(); ++i) {
    EXPECT_EQ(CountOps(fused, cpu::OpType::kBarrier),
              CountOps(t, cpu::OpType::kBarrier));
  }
}

TEST(Fusion, SpeedsUpCcompUnderGraphPim) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'500'000;
  core::Experiment exp("ldbc", 8 * 1024, "ccomp", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 8;
  core::SimResults plain = exp.Run(cfg);
  graph::AddressSpace space;
  Trace fused = workloads::FuseComparisonBlocks(exp.trace(), space);
  core::SimResults f =
      core::RunSimulation(fused, cfg, exp.pmr_base(), exp.pmr_end(),
                          core::RunOptions{});
  EXPECT_LT(f.cycles, plain.cycles);
}

TEST(Hybrid, ZeroFractionMatchesBaselineBehavior) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'000'000;
  core::Experiment exp("ldbc", 4 * 1024, "dc", o);
  core::SimConfig none = core::SimConfig::Scaled(core::Mode::kGraphPim);
  none.num_cores = 8;
  none.pmr_hmc_fraction = 0.0;
  core::SimResults r = exp.Run(none);
  EXPECT_EQ(r.offloaded_atomics, 0u) << "no property page in the HMC";
  EXPECT_GT(r.raw.Get("cache.access.property"), 0.0) << "conventional path";
}

TEST(Hybrid, FractionScalesOffloadCount) {
  core::Experiment::Options o;
  o.num_threads = 8;
  o.op_cap = 1'000'000;
  core::Experiment exp("ldbc", 4 * 1024, "dc", o);
  std::uint64_t prev = 0;
  for (double f : {0.25, 0.5, 1.0}) {
    core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
    cfg.num_cores = 8;
    cfg.pmr_hmc_fraction = f;
    core::SimResults r = exp.Run(cfg);
    EXPECT_GT(r.offloaded_atomics, prev);
    prev = r.offloaded_atomics;
  }
  EXPECT_EQ(prev, exp.Run(core::SimConfig::Scaled(core::Mode::kGraphPim)).atomics);
}

TEST(TraceIo, RoundTrip) {
  Built b;
  workloads::SsspWorkload sssp(0);
  Trace t = Gen(sssp, b);
  std::string path = ::testing::TempDir() + "/graphpim_trace_test.bin";
  ASSERT_TRUE(workloads::SaveTrace(t, path));
  Trace in;
  ASSERT_TRUE(workloads::LoadTrace(path, &in));
  ASSERT_EQ(in.streams.size(), t.streams.size());
  for (std::size_t s = 0; s < t.streams.size(); ++s) {
    ASSERT_EQ(in.streams[s].size(), t.streams[s].size());
    for (std::size_t i = 0; i < t.streams[s].size(); ++i) {
      const auto& a = t.streams[s][i];
      const auto& c = in.streams[s][i];
      EXPECT_EQ(a.addr, c.addr);
      EXPECT_EQ(a.type, c.type);
      EXPECT_EQ(a.aop, c.aop);
      EXPECT_EQ(a.flags, c.flags);
      EXPECT_EQ(a.size, c.size);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ReplaySameResult) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 200'000;
  core::Experiment exp("ldbc", 2 * 1024, "bfs", o);
  std::string path = ::testing::TempDir() + "/graphpim_trace_replay.bin";
  ASSERT_TRUE(workloads::SaveTrace(exp.trace(), path));
  Trace loaded;
  ASSERT_TRUE(workloads::LoadTrace(path, &loaded));
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 4;
  core::SimResults a = exp.Run(cfg);
  core::SimResults b2 =
      core::RunSimulation(loaded, cfg, exp.pmr_base(), exp.pmr_end(),
                          core::RunOptions{});
  EXPECT_EQ(a.cycles, b2.cycles);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails) {
  Trace t;
  EXPECT_FALSE(workloads::LoadTrace("/nonexistent/trace.bin", &t));
}

// ---- corrupt trace files: LoadTrace rejects them with a SimError naming
// the file and the record (SaveTrace layout: 8-byte magic, u64 stream
// count, then per stream a u64 record count and 16-byte records whose
// bytes 8/9/10 are type/comp/aop).

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 16;

std::vector<unsigned char> ReadFile(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<unsigned char>(c));
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Offset of stream `s`'s record count in a file holding `t`.
std::size_t StreamOffset(const Trace& t, std::size_t s) {
  std::size_t off = kHeaderBytes;
  for (std::size_t i = 0; i < s; ++i) off += 8 + kRecordBytes * t.streams[i].size();
  return off;
}

// Saves a small dc trace, lets `corrupt` damage the bytes, and returns the
// SimError message LoadTrace raises ("" if it accepted the file).
template <typename Corrupt>
std::string LoadCorrupted(const std::string& name, Corrupt corrupt) {
  Built b;
  workloads::DcWorkload dc;
  Trace t = Gen(dc, b);
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(workloads::SaveTrace(t, path));
  std::vector<unsigned char> bytes = ReadFile(path);
  corrupt(t, bytes);
  WriteFile(path, bytes);
  std::string msg;
  Trace in;
  try {
    workloads::LoadTrace(path, &in);
  } catch (const SimError& e) {
    msg = e.message();
  }
  std::remove(path.c_str());
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  return msg;
}

// Sets byte `field` of a seeded random record to a seeded value in
// [lo, 255]; returns the "stream S record I" the loader should name.
std::string FlipRecordByte(const Trace& t, std::vector<unsigned char>& bytes,
                           std::uint64_t seed, std::size_t field,
                           unsigned lo) {
  Rng rng(seed);
  std::size_t s = 0;
  do {
    s = rng.NextBounded(t.streams.size());
  } while (t.streams[s].size() == 0);
  const std::size_t i = rng.NextBounded(t.streams[s].size());
  bytes[StreamOffset(t, s) + 8 + kRecordBytes * i + field] =
      static_cast<unsigned char>(lo + rng.NextBounded(256 - lo));
  return "stream " + std::to_string(s) + " record " + std::to_string(i) + " ";
}

TEST(TraceIo, RejectsOutOfRangeEnumBytes) {
  struct Case {
    std::size_t field;  // byte within the record
    unsigned first_bad;
  };
  const Case cases[] = {
      {8, static_cast<unsigned>(cpu::OpType::kFence) + 1},
      {9, static_cast<unsigned>(DataComponent::kProperty) + 1},
      {10, static_cast<unsigned>(hmc::AtomicOp::kNumOps)}};
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      std::string where;
      const std::string msg = LoadCorrupted(
          "gp_bad_enum.bin", [&](const Trace& t, std::vector<unsigned char>& b) {
            where = FlipRecordByte(t, b, seed, c.field, c.first_bad);
          });
      EXPECT_NE(msg.find(where), std::string::npos) << msg;
      EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
    }
  }
}

TEST(TraceIo, RejectsRecordCountLargerThanTheFile) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    std::size_t stream = 0;
    const std::string msg = LoadCorrupted(
        "gp_bad_count.bin", [&](const Trace& t, std::vector<unsigned char>& b) {
          // Flip one of the count's high bytes: a count no file could hold,
          // which the loader must refuse before reserving for it.
          Rng rng(seed);
          stream = rng.NextBounded(t.streams.size());
          const std::size_t byte = 4 + rng.NextBounded(4);
          b[StreamOffset(t, stream) + byte] ^=
              static_cast<unsigned char>(1 + rng.NextBounded(255));
        });
    EXPECT_NE(msg.find("stream " + std::to_string(stream) + " claims"),
              std::string::npos)
        << msg;
  }
}

TEST(TraceIo, RejectsStreamsThatDisagreeOnBarriers) {
  // An in-range type byte turned into kBarrier: every field is valid, but
  // the stream would wait at a barrier no other stream reaches.
  std::size_t stream = 0;
  const std::string msg = LoadCorrupted(
      "gp_bad_barrier.bin", [&](const Trace& t, std::vector<unsigned char>& b) {
        stream = t.streams.size() - 1;
        b[StreamOffset(t, stream) + 8 + 8] =
            static_cast<unsigned char>(cpu::OpType::kBarrier);
      });
  EXPECT_NE(msg.find("stream " + std::to_string(stream) + " has"),
            std::string::npos)
      << msg;
}

TEST(TraceIo, RejectsTruncatedFile) {
  const std::string msg = LoadCorrupted(
      "gp_truncated.bin", [](const Trace&, std::vector<unsigned char>& b) {
        b.erase(b.end() - kRecordBytes / 2, b.end());
      });
  EXPECT_NE(msg.find("claims"), std::string::npos) << msg;
}

// ---- corrupt grid specs: a seeded byte flip of a valid spec either still
// parses or throws SimError; any other exception, or an abort, fails.

TEST(GridSpecIo, ByteFlipsParseOrThrowSimError) {
  const std::string specs[] = {
      "workloads=bfs,prank;profiles=ldbc,twitter;modes=baseline,graphpim;"
      "vertices=2048;threads=8;opcap=100000;seed=7;full=0",
      "workloads=bfs;modes=all;num_cubes=1,2,4;topology=star;cube_page_bytes=4096",
      "workloads=bfs;link_ber=1e-9;vault_stall_ppm=50;poison_ppm=5;"
      "max_retries=7;retry_ns=12;linkbw=2.5",
      "workloads=gup;modes=graphpim;pmem.enable=1;pmem.flush_ns=40;"
      "pmem.fence_ns=20;pmem.crash_tick=-1;uc_depth=16",
      "workloads=ann;ann.dim=16;ann.m=8;ann.ef_search=32;ann.k=4;"
      "telemetry.window_ns=500;trace.sample_rate=0.25;trace.max_spans=100"};
  int parsed = 0;
  int rejected = 0;
  for (const std::string& spec : specs) {
    ASSERT_NO_THROW(exec::ParseGridSpec(spec)) << spec;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
      Rng rng(seed);
      std::string bad = spec;
      for (std::uint64_t k = 1 + rng.NextBounded(3); k > 0; --k) {
        bad[rng.NextBounded(bad.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
      try {
        exec::ParseGridSpec(bad);
        ++parsed;
      } catch (const SimError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "seed " << seed << " spec '" << bad
                      << "' threw a non-SimError: " << e.what();
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Report, FormatContainsHeadlines) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 100'000;
  core::Experiment exp("ldbc", 1024, "bfs", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  cfg.num_cores = 4;
  core::SimResults r = exp.Run(cfg);
  std::string report = core::FormatReport(r);
  EXPECT_NE(report.find("GraphPIM"), std::string::npos);
  EXPECT_NE(report.find("cycles:"), std::string::npos);
  EXPECT_NE(report.find("uncore energy"), std::string::npos);
}

TEST(Report, JsonWritesAndParsesRoughly) {
  core::Experiment::Options o;
  o.num_threads = 4;
  o.op_cap = 100'000;
  core::Experiment exp("ldbc", 1024, "bfs", o);
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kBaseline);
  cfg.num_cores = 4;
  core::SimResults r = exp.Run(cfg);
  std::string json = core::ToJson(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  std::string path = ::testing::TempDir() + "/graphpim_report.json";
  EXPECT_TRUE(core::WriteJson(r, path));
  std::remove(path.c_str());
}

TEST(BusLock, GlobalSerializationOrdersAtomics) {
  // Two UC-NoPIM atomics from different cores must serialize globally.
  core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kUncacheNoPim);
  core::MemorySystem sys(cfg, 0x4'0000'0000ULL, 0x5'0000'0000ULL);
  cpu::MicroOp op;
  op.type = cpu::OpType::kAtomic;
  op.addr = 0x4'0000'0100ULL;
  op.size = 8;
  auto a = sys.Access(0, op, 0);
  op.addr = 0x4'0000'9000ULL;  // different address, different bank
  auto b = sys.Access(1, op, 0);
  EXPECT_GE(b.complete, a.complete) << "bus lock holds the whole interconnect";
}

}  // namespace
}  // namespace graphpim
