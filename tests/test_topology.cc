// Multi-cube HMC network (src/hmc/topology) and the single-path SimConfig
// API: shard-map bijectivity, single-cube passthrough identity, inter-cube
// hop costs, cube-scaling sweeps, and FromConfig/Validate error paths.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/sweep.h"
#include "fault/fault.h"
#include "graph/region.h"
#include "hmc/topology.h"
#include "workloads/params.h"

namespace graphpim {
namespace {

hmc::CubeMap TestMap(std::uint32_t cubes) {
  hmc::CubeMap m;
  m.num_cubes = cubes;
  m.page_bytes = 4096;
  m.pmr_base = graph::AddressSpace::kPmrBase;
  m.pmr_end = graph::AddressSpace::kPmrBase + 2 * kMiB;
  return m;
}

TEST(CubeMap, SingleCubeIsIdentity) {
  const hmc::CubeMap m = TestMap(1);
  for (Addr a : {Addr{0}, Addr{4095}, Addr{1 << 20},
                 graph::AddressSpace::kPmrBase + 12345}) {
    EXPECT_EQ(m.CubeOf(a), 0u);
    EXPECT_EQ(m.LocalAddr(a), a);
    EXPECT_EQ(m.Reconstruct(0, a), a);
  }
}

TEST(CubeMap, RoundTripIsBijective) {
  for (std::uint32_t cubes : {2u, 3u, 4u, 8u}) {
    const hmc::CubeMap m = TestMap(cubes);
    std::set<std::pair<std::uint32_t, Addr>> seen;
    // PMR and non-PMR samples, page-straddling offsets included.
    std::vector<Addr> samples;
    for (std::uint64_t i = 0; i < 64; ++i) {
      samples.push_back(i * 4096 + (i * 97) % 4096);
      samples.push_back(m.pmr_base + i * 4096 + (i * 131) % 4096);
    }
    for (Addr a : samples) {
      const std::uint32_t c = m.CubeOf(a);
      const Addr local = m.LocalAddr(a);
      ASSERT_LT(c, cubes);
      EXPECT_EQ(m.Reconstruct(c, local), a) << "cubes=" << cubes;
      // Injective: no two addresses share a (cube, local) slot.
      EXPECT_TRUE(seen.insert({c, local}).second) << "collision at " << a;
    }
  }
}

TEST(CubeMap, PmrPagesInterleaveRelativeToPmrBase) {
  const hmc::CubeMap m = TestMap(4);
  // The first PMR page is always home to cube 0, wherever the PMR sits.
  EXPECT_EQ(m.CubeOf(m.pmr_base), 0u);
  // Consecutive PMR pages round-robin across cubes.
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.CubeOf(m.pmr_base + i * m.page_bytes), i % 4);
  }
  // Bytes within one page share a home cube.
  EXPECT_EQ(m.CubeOf(m.pmr_base + 4096), m.CubeOf(m.pmr_base + 4096 + 4095));
}

TEST(CubeMap, LocalAddressesStayInsidePmrShard) {
  // Sharded PMR addresses compact toward the PMR base so each cube's local
  // footprint is 1/num_cubes of the region (capacity actually scales).
  const hmc::CubeMap m = TestMap(4);
  const std::uint64_t pmr_size = m.pmr_end - m.pmr_base;
  for (std::uint64_t i = 0; i < pmr_size / m.page_bytes; ++i) {
    const Addr a = m.pmr_base + i * m.page_bytes;
    const Addr local = m.LocalAddr(a);
    EXPECT_GE(local, m.pmr_base);
    EXPECT_LT(local, m.pmr_base + pmr_size / 4 + m.page_bytes);
  }
}

TEST(Topology, ParseAndPrint) {
  EXPECT_EQ(hmc::ParseCubeTopology("chain"), hmc::CubeTopology::kChain);
  EXPECT_EQ(hmc::ParseCubeTopology("star"), hmc::CubeTopology::kStar);
  EXPECT_STREQ(hmc::ToString(hmc::CubeTopology::kStar), "star");
  EXPECT_THROW({ hmc::ParseCubeTopology("ring"); }, SimError);
}

TEST(Topology, SingleCubePassthroughMatchesBareCube) {
  const hmc::HmcParams p;
  hmc::HmcCube bare(p);
  StatRegistry stats;
  hmc::HmcNetwork net(p, &stats, graph::AddressSpace::kPmrBase,
                      graph::AddressSpace::kPmrBase + kMiB);
  for (Tick t : {Tick{0}, Tick{500}, Tick{1500}}) {
    const Addr a = 0x1000 + static_cast<Addr>(t) * 64;
    EXPECT_EQ(net.Read(a, 64, t).response_at_host,
              bare.Read(a, 64, t).response_at_host);
    EXPECT_EQ(net.Atomic(a, hmc::AtomicOp::kDualAdd8, hmc::Value16{}, false, t)
                  .response_at_host,
              bare.Atomic(a, hmc::AtomicOp::kDualAdd8, hmc::Value16{}, false, t)
                  .response_at_host);
  }
  // The golden counter-surface contract: a single-cube network interns no
  // network counters, so the JSON "counters" object cannot drift.
  EXPECT_FALSE(stats.Has("hmc.local_ops"));
  EXPECT_FALSE(stats.Has("hmc.remote_ops"));
  EXPECT_FALSE(stats.Has("hmc.hop_traversals"));
  EXPECT_FALSE(stats.Has("hmc.cubes"));
}

TEST(Topology, RemoteCubePaysHopCosts) {
  hmc::HmcParams p;
  p.num_cubes = 4;
  StatRegistry stats;
  hmc::HmcNetwork net(p, &stats, graph::AddressSpace::kPmrBase,
                      graph::AddressSpace::kPmrBase + kMiB);
  // Page 0 is local (cube 0); page 1 is cube 1 — one pass-through hop each
  // way, so the remote read must be strictly slower.
  const Addr local = graph::AddressSpace::kPmrBase;
  const Addr remote = graph::AddressSpace::kPmrBase + 4096;
  ASSERT_EQ(net.CubeOf(local), 0u);
  ASSERT_EQ(net.CubeOf(remote), 1u);
  const Tick t_local = net.Read(local, 64, 0).response_at_host;
  const Tick t_remote = net.Read(remote, 64, 0).response_at_host;
  EXPECT_GT(t_remote, t_local);
  EXPECT_GT(stats.Get("hmc.remote_ops"), 0.0);
  EXPECT_GT(stats.Get("hmc.hop_traversals"), 0.0);
  EXPECT_GT(stats.Get("hmc.hop_flits"), 0.0);
  EXPECT_GT(stats.Get("hmc.hop_ns"), 0.0);
  EXPECT_DOUBLE_EQ(stats.Get("hmc.cubes"), 4.0);
}

TEST(Topology, StarShortensFarPathsVsChain) {
  hmc::HmcParams chain;
  chain.num_cubes = 8;
  chain.cube_topology = hmc::CubeTopology::kChain;
  hmc::HmcParams star = chain;
  star.cube_topology = hmc::CubeTopology::kStar;
  hmc::HmcNetwork cn(chain, nullptr, 0, 0);
  hmc::HmcNetwork sn(star, nullptr, 0, 0);
  EXPECT_EQ(cn.HopsTo(7), 7u);
  EXPECT_EQ(sn.HopsTo(7), 1u);
  EXPECT_EQ(cn.HopsTo(0), 0u);
  EXPECT_EQ(sn.HopsTo(0), 0u);
  // An address homed on the farthest cube: the chain pays 7 pass-through
  // hops each way, the star one.
  Addr far = 0;
  for (Addr a = 0; a < 64 * 4096; a += 4096) {
    if (cn.CubeOf(a) == 7) {
      far = a;
      break;
    }
  }
  ASSERT_EQ(cn.CubeOf(far), 7u);
  EXPECT_GT(cn.Read(far, 64, 0).response_at_host,
            sn.Read(far, 64, 0).response_at_host);
}

TEST(Topology, FunctionalStoreRoutesThroughTheShardMap) {
  hmc::HmcParams p;
  p.num_cubes = 4;
  hmc::HmcNetwork net(p, nullptr, graph::AddressSpace::kPmrBase,
                      graph::AddressSpace::kPmrBase + kMiB);
  net.set_functional(true);
  EXPECT_TRUE(net.functional());
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Addr a = graph::AddressSpace::kPmrBase + i * 4096;
    hmc::Value16 v;
    v.lo = 1000 + i;
    net.FunctionalWrite(a, v);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Addr a = graph::AddressSpace::kPmrBase + i * 4096;
    EXPECT_EQ(net.FunctionalRead(a).lo, 1000 + i) << "page " << i;
  }
}

TEST(Topology, CubeFaultSeedsDecorrelate) {
  // Cube 0 keeps the run seed (single-cube byte identity); remote cubes
  // draw distinct decorrelated streams.
  EXPECT_EQ(fault::DeriveCubeFaultSeed(42, 0), 42u);
  std::set<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < 8; ++i) {
    seeds.insert(fault::DeriveCubeFaultSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 8u);
}

// ---------------------------------------------------------------------------
// The single-path configuration API.

TEST(SimConfigApi, FromConfigAppliesEveryKnobSpelling) {
  Config cfg;
  cfg.Set("num_cubes", "4");
  cfg.Set("topology", "star");
  cfg.Set("hybrid", "0.5");
  cfg.Set("uc-depth", "32");  // dashed alias
  cfg.Set("link-ber", "1e-9");
  cfg.Set("trace-sample-rate", "0.25");  // dashed alias
  cfg.Set("trace.max_spans", "4096");
  const core::SimConfig sc =
      core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
  EXPECT_EQ(sc.hmc.num_cubes, 4u);
  EXPECT_EQ(sc.hmc.cube_topology, hmc::CubeTopology::kStar);
  EXPECT_DOUBLE_EQ(sc.pmr_hmc_fraction, 0.5);
  EXPECT_EQ(sc.uc_queue_depth, 32);
  EXPECT_DOUBLE_EQ(sc.hmc.fault.link_ber, 1e-9);
  EXPECT_DOUBLE_EQ(sc.trace_sample_rate, 0.25);
  EXPECT_EQ(sc.trace_max_spans, 4096u);
  // Absent keys keep the Scaled() defaults.
  EXPECT_EQ(sc.num_cores, 16);
  EXPECT_EQ(sc.cache.l1_size, 16 * kKiB);
  // full=1 selects the Table IV machine instead.
  Config full;
  full.Set("full", "1");
  EXPECT_EQ(core::SimConfig::FromConfig(full, core::Mode::kBaseline)
                .cache.l1_size,
            32 * kKiB);
}

TEST(SimConfigApi, ValidateNamesTheOffendingKey) {
  auto expect_throw_naming = [](const char* key, const char* val,
                                const char* named) {
    Config cfg;
    cfg.Set(key, val);
    try {
      core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
      FAIL() << key << "=" << val << " should not validate";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find(named), std::string::npos)
          << "message: " << e.message();
    }
  };
  expect_throw_naming("threads", "0", "threads");
  expect_throw_naming("threads", "2.5", "threads");
  expect_throw_naming("linkbw", "abc", "linkbw");  // malformed, not fatal
  // NaN would pass a `v < min || v > max` gate; inf overflows no gate.
  expect_throw_naming("linkbw", "nan", "linkbw");
  expect_throw_naming("link-ber", "nan", "link-ber");
  expect_throw_naming("trace-sample-rate", "nan", "trace-sample-rate");
  expect_throw_naming("linkbw", "inf", "linkbw");
  expect_throw_naming("linkbw", "2x", "linkbw");
  expect_throw_naming("num-cubes", "abc", "num-cubes");
  expect_throw_naming("hybrid", "1.5", "hybrid");
  expect_throw_naming("hybrid", "-0.1", "hybrid");
  expect_throw_naming("num_cubes", "0", "num_cubes");
  expect_throw_naming("num_cubes", "65", "num_cubes");
  expect_throw_naming("link_ber", "2", "link_ber");
  expect_throw_naming("vault_stall_ppm", "1000001", "vault_stall_ppm");
  expect_throw_naming("cube_page_bytes", "100", "cube_page_bytes");  // !pow2
  expect_throw_naming("cube_page_bytes", "32", "cube_page_bytes");
  expect_throw_naming("trace.sample_rate", "1.5", "trace.sample_rate");
  expect_throw_naming("trace-sample-rate", "-0.1", "trace.sample_rate");
  expect_throw_naming("trace.max_spans", "0.5", "trace.max_spans");
  expect_throw_naming("pmem.enable", "2", "pmem.enable");
  expect_throw_naming("pmem.enable", "0.5", "pmem.enable");
  expect_throw_naming("pmem.flush_ns", "-1", "pmem.flush_ns");
  expect_throw_naming("pmem-fence-ns", "-1", "pmem.fence_ns");
  // The cross-field gate: a crash tick without the persistent PMR.
  expect_throw_naming("pmem.crash_tick", "100", "pmem.crash_tick");
  EXPECT_THROW(
      {
        Config cfg;
        cfg.Set("topology", "ring");
        core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
      },
      SimError);
  // Programmatically-built configs hit the same gate through Validate().
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = -1;
  EXPECT_THROW({ sc.Validate(); }, SimError);
  sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.hmc.cube_page_bytes = 4096 + 1;
  EXPECT_THROW({ sc.Validate(); }, SimError);
  sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.hmc.link_bw_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW({ sc.Validate(); }, SimError);
}

TEST(SimConfigApi, DescribeIsGeneratedFromTheFieldTable) {
  // Anti-drift: every canonical field-table key FromConfig accepts must
  // surface in Describe(), so a new knob cannot be parseable-but-invisible.
  const core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  const std::string desc = sc.Describe();
  for (const std::string& key : core::SimConfig::ConfigKeys()) {
    if (key == "full") continue;  // base-machine selector, not a field
    if (key.find('-') != std::string::npos) continue;  // CLI alias spelling
    if (key == "topology") {
      EXPECT_NE(desc.find("chain"), std::string::npos) << desc;
      continue;
    }
    EXPECT_NE(desc.find(key + "="), std::string::npos)
        << "knob '" << key << "' missing from Describe(): " << desc;
  }
  // Geometry renders the cube network.
  core::SimConfig multi = sc;
  multi.hmc.num_cubes = 4;
  EXPECT_NE(multi.Describe().find("4x"), std::string::npos);
  // The trace.* knobs must ride the same table: present in ConfigKeys
  // (both spellings, so --help and the grid spec accept them) and rendered
  // by Describe() like every other knob.
  const std::vector<std::string> keys = core::SimConfig::ConfigKeys();
  auto has_key = [&](const char* k) {
    for (const std::string& s : keys)
      if (s == k) return true;
    return false;
  };
  EXPECT_TRUE(has_key("trace.sample_rate"));
  EXPECT_TRUE(has_key("trace-sample-rate"));
  EXPECT_TRUE(has_key("trace.max_spans"));
  EXPECT_TRUE(has_key("trace-max-spans"));
  EXPECT_NE(desc.find("trace.sample_rate="), std::string::npos) << desc;
  // Same contract for the pmem.* knobs (DESIGN.md §14) — riding the field
  // table is what makes the sweep-journal fingerprint cover them for free.
  EXPECT_TRUE(has_key("pmem.enable"));
  EXPECT_TRUE(has_key("pmem-enable"));
  EXPECT_TRUE(has_key("pmem.flush_ns"));
  EXPECT_TRUE(has_key("pmem-flush-ns"));
  EXPECT_TRUE(has_key("pmem.fence_ns"));
  EXPECT_TRUE(has_key("pmem-fence-ns"));
  EXPECT_TRUE(has_key("pmem.crash_tick"));
  EXPECT_TRUE(has_key("pmem-crash-tick"));
  EXPECT_NE(desc.find("pmem.enable="), std::string::npos) << desc;
  // And the ann.* knobs (DESIGN.md §16): the same table rows feed the hnsw
  // workload and the serve engine's knn query kind, so both spellings must
  // parse everywhere and the values must render in Describe().
  EXPECT_TRUE(has_key("ann.dim"));
  EXPECT_TRUE(has_key("ann-dim"));
  EXPECT_TRUE(has_key("ann.m"));
  EXPECT_TRUE(has_key("ann-m"));
  EXPECT_TRUE(has_key("ann.ef_search"));
  EXPECT_TRUE(has_key("ann-ef-search"));
  EXPECT_TRUE(has_key("ann.k"));
  EXPECT_TRUE(has_key("ann-k"));
  EXPECT_TRUE(has_key("ann.queries"));
  EXPECT_TRUE(has_key("ann-queries"));
  EXPECT_NE(desc.find("ann.dim="), std::string::npos) << desc;
  EXPECT_NE(desc.find("ann.ef_search="), std::string::npos) << desc;
  // And the telemetry.* knobs (DESIGN.md §17): windowed timelines must be
  // configurable from every driver and sweep spec, so both spellings ride
  // the table and render in Describe().
  EXPECT_TRUE(has_key("telemetry.window_ns"));
  EXPECT_TRUE(has_key("telemetry-window-ns"));
  EXPECT_TRUE(has_key("telemetry.max_windows"));
  EXPECT_TRUE(has_key("telemetry-max-windows"));
  EXPECT_NE(desc.find("telemetry.window_ns="), std::string::npos) << desc;
}

TEST(SimConfigApi, AnnKnobsParseAndRangeCheck) {
  Config cfg;
  cfg.Set("ann-dim", "32");
  cfg.Set("ann.queries", "4");
  const core::SimConfig sc =
      core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
  EXPECT_EQ(sc.ann.dim, 32);
  EXPECT_EQ(sc.ann.queries, 4);
  // Untouched knobs keep the strict-passthrough defaults.
  workloads::AnnParams want;
  want.dim = 32;
  want.queries = 4;
  EXPECT_EQ(sc.ann, want);
  // Range gate from the field table...
  Config bad;
  bad.Set("ann-dim", "1");
  EXPECT_THROW(core::SimConfig::FromConfig(bad, core::Mode::kGraphPim),
               SimError);
  // ...and the cross-field Validate() rule: k <= ef_search.
  core::SimConfig wide = core::SimConfig::Scaled(core::Mode::kGraphPim);
  wide.ann.k = 64;
  wide.ann.ef_search = 16;
  EXPECT_THROW(wide.Validate(), SimError);
}

// ---------------------------------------------------------------------------
// End-to-end: cube-scaling runs.

core::SimConfig CubeConfig(std::uint32_t cubes) {
  Config cfg;
  cfg.Set("num_cubes", std::to_string(cubes));
  return core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
}

TEST(CubeScaling, MultiCubeRunIsDeterministicAndPaysRemoteHops) {
  core::Experiment::Options eo;
  eo.op_cap = 100'000;
  const core::Experiment exp("ldbc", 2048, "prank", eo);
  const core::SimResults a = exp.Run(CubeConfig(2));
  const core::SimResults b = exp.Run(CubeConfig(2));
  EXPECT_EQ(core::ToJson(a), core::ToJson(b));  // replay determinism
  // The sharded PMR actually spreads across cubes: remote traffic exists
  // and the hop stats account for it.
  EXPECT_GT(a.raw.Get("hmc.remote_ops"), 0.0);
  EXPECT_GT(a.raw.Get("hmc.hop_traversals"), 0.0);
  EXPECT_GT(a.raw.Get("hmc.hop_ns"), 0.0);
  EXPECT_DOUBLE_EQ(a.raw.Get("hmc.cubes"), 2.0);
  // And the single-cube run of the same trace interns none of that.
  const core::SimResults single = exp.Run(CubeConfig(1));
  EXPECT_FALSE(single.raw.Has("hmc.remote_ops"));
  EXPECT_FALSE(single.raw.Has("hmc.cubes"));
}

TEST(CubeScaling, CapacityScalesMonotonically) {
  std::uint64_t prev = 0;
  for (std::uint32_t cubes : {1u, 2u, 4u, 8u}) {
    const core::SimConfig sc = CubeConfig(cubes);
    StatRegistry stats;
    hmc::HmcNetwork net(sc.hmc, &stats, graph::AddressSpace::kPmrBase,
                        graph::AddressSpace::kPmrBase + kMiB);
    EXPECT_GT(net.TotalCapacityBytes(), prev);
    prev = net.TotalCapacityBytes();
    if (cubes > 1) {
      EXPECT_DOUBLE_EQ(stats.Get("hmc.capacity_gib"),
                       static_cast<double>(net.TotalCapacityBytes()) /
                           static_cast<double>(kGiB));
    }
  }
}

TEST(CubeScaling, SweepGridExpandsCubeAxisDeterministically) {
  exec::SweepGrid grid = exec::ParseGridSpec(
      "workloads=bfs;modes=graphpim;num_cubes=1,2,4;vertices=2048;"
      "opcap=100000");
  ASSERT_EQ(grid.configs.size(), 3u);
  EXPECT_EQ(grid.config_names,
            (std::vector<std::string>{"GraphPIM-c1", "GraphPIM-c2",
                                      "GraphPIM-c4"}));
  EXPECT_EQ(grid.configs[0].hmc.num_cubes, 1u);
  EXPECT_EQ(grid.configs[2].hmc.num_cubes, 4u);

  exec::SweepRunner::Options serial;
  serial.jobs = 1;
  exec::SweepRunner::Options parallel;
  parallel.jobs = 4;
  const exec::SweepResultTable s = exec::SweepRunner(serial).Run(grid);
  const exec::SweepResultTable p = exec::SweepRunner(parallel).Run(grid);
  ASSERT_EQ(s.rows.size(), 3u);
  ASSERT_EQ(p.rows.size(), 3u);
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(s.rows[i].status, exec::JobStatus::kOk) << s.rows[i].error;
    EXPECT_EQ(core::ToJson(s.rows[i].results), core::ToJson(p.rows[i].results))
        << "row " << i << " (" << s.rows[i].config_name << ")";
    EXPECT_EQ(s.rows[i].results.raw.AllItems(), p.rows[i].results.raw.AllItems())
        << "row " << i;
  }
  // Multi-cube rows report measurable inter-cube traffic; the single-cube
  // row stays on the pre-network counter surface.
  EXPECT_FALSE(s.rows[0].results.raw.Has("hmc.remote_ops"));
  EXPECT_GT(s.rows[1].results.raw.Get("hmc.remote_ops"), 0.0);
  EXPECT_GT(s.rows[2].results.raw.Get("hmc.hop_traversals"), 0.0);
}

TEST(CubeScaling, GridSpecRejectsBadCubeValues) {
  EXPECT_THROW({ exec::ParseGridSpec("workloads=bfs;num_cubes=0"); }, SimError);
  EXPECT_THROW({ exec::ParseGridSpec("workloads=bfs;num_cubes=abc"); },
               SimError);
  EXPECT_THROW({ exec::ParseGridSpec("workloads=bfs;topology=ring"); },
               SimError);
  // Duplicate expanded names (same cube count twice) are rejected.
  EXPECT_THROW({ exec::ParseGridSpec("workloads=bfs;num_cubes=2,2"); },
               SimError);
  // The cube axis has the field table's two spellings and no third.
  EXPECT_THROW({ exec::ParseGridSpec("workloads=bfs;hmc.num_cubes=2"); },
               SimError);
}

}  // namespace
}  // namespace graphpim
