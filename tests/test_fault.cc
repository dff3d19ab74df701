// src/fault tests: deterministic injection plans, the HMC link-retry and
// vault-stall timing model, poisoned-response recovery, the sweep journal
// (crash-safe resume), and fault-tolerant sweep execution — including the
// headline robustness property: fault injection is bit-identical across
// --jobs counts, and a killed-and-resumed sweep reproduces an
// uninterrupted run exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/report.h"
#include "exec/journal.h"
#include "exec/result_sink.h"
#include "exec/sweep.h"
#include "fault/fault.h"
#include "hmc/cube.h"
#include "hmc/link.h"

namespace graphpim {
namespace {

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlan, DeterministicAcrossInstances) {
  fault::FaultParams p;
  p.link_ber = 1e-3;
  p.vault_stall_ppm = 100'000;
  p.poison_ppm = 100'000;
  p.seed = 42;
  fault::FaultPlan a(p);
  fault::FaultPlan b(p);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.CorruptPacket(512), b.CorruptPacket(512)) << i;
    EXPECT_EQ(a.VaultStall(), b.VaultStall()) << i;
    EXPECT_EQ(a.PoisonAtomic(), b.PoisonAtomic()) << i;
  }
}

// Interleaving draws from other fault classes must not perturb a stream:
// decision n of a class is a pure function of (seed, class, n).
TEST(FaultPlan, StreamsAreIndependent) {
  fault::FaultParams p;
  p.link_ber = 1e-3;
  p.vault_stall_ppm = 200'000;
  p.poison_ppm = 200'000;
  p.seed = 7;
  fault::FaultPlan crc_only(p);
  fault::FaultPlan interleaved(p);
  for (int i = 0; i < 1000; ++i) {
    // The interleaved plan burns stall/poison decisions between CRC draws.
    interleaved.VaultStall();
    interleaved.PoisonAtomic();
    EXPECT_EQ(crc_only.CorruptPacket(256), interleaved.CorruptPacket(256)) << i;
  }
}

TEST(FaultPlan, SeedsDecorrelateDecisions) {
  fault::FaultParams p;
  p.link_ber = 0.5;  // one-bit packets corrupt with probability exactly 0.5
  p.seed = 1;
  fault::FaultParams q = p;
  q.seed = 2;
  fault::FaultPlan a(p);
  fault::FaultPlan b(q);
  int differ = 0;
  for (int i = 0; i < 512; ++i) {
    if (a.CorruptPacket(1) != b.CorruptPacket(1)) ++differ;
  }
  EXPECT_GT(differ, 100);  // ~50% expected; any correlation collapse fails
}

TEST(FaultPlan, CorruptPacketProbabilityEdges) {
  fault::FaultParams off;
  off.seed = 3;  // ber stays 0
  fault::FaultPlan none(off);
  fault::FaultParams certain = off;
  certain.link_ber = 1.0;
  fault::FaultPlan always(certain);
  fault::FaultParams tiny = off;
  tiny.link_ber = 1e-15;  // must survive log-space math without underflow
  fault::FaultPlan rare(tiny);
  for (int i = 0; i < 256; ++i) {
    EXPECT_FALSE(none.CorruptPacket(1 << 20));
    EXPECT_TRUE(always.CorruptPacket(1));
    EXPECT_FALSE(rare.CorruptPacket(128));
  }
  // Zero-bit packets can't corrupt even at BER 1.
  EXPECT_FALSE(always.CorruptPacket(0));
}

TEST(FaultPlan, DeriveFaultSeedIsPureAndDecorrelated) {
  EXPECT_EQ(fault::DeriveFaultSeed(123, 0), fault::DeriveFaultSeed(123, 0));
  EXPECT_NE(fault::DeriveFaultSeed(123, 0), fault::DeriveFaultSeed(123, 1));
  EXPECT_NE(fault::DeriveFaultSeed(123, 0), fault::DeriveFaultSeed(124, 0));
  // The derived seed must not just echo the cell seed.
  EXPECT_NE(fault::DeriveFaultSeed(123, 0), 123u);
}

TEST(FaultParams, EnabledAndDescribe) {
  fault::FaultParams p;
  EXPECT_FALSE(p.Enabled());
  EXPECT_EQ(p.Describe(), "faults off");
  p.link_ber = 1e-12;
  EXPECT_TRUE(p.Enabled());
  EXPECT_NE(p.Describe().find("link_ber"), std::string::npos);
}

// --------------------------------------------------- HMC link retry model

hmc::HmcParams QuietHmc() {
  hmc::HmcParams p;
  p.t_refi = 0;  // no refresh noise in latency comparisons
  return p;
}

TEST(HmcFault, LinkRxReadyTracksReservations) {
  hmc::Link link(NsToTicks(1.0));
  EXPECT_EQ(link.rx_ready(), 0u);
  Tick done = link.ReserveRx(4, NsToTicks(10.0));
  EXPECT_EQ(link.rx_ready(), done);
  EXPECT_EQ(link.tx_ready(), 0u);  // lanes are independent
  Tick done2 = link.ReserveRx(2, 0);
  EXPECT_EQ(link.rx_ready(), done2 > done ? done2 : done);
}

TEST(HmcFault, CertainCorruptionExhaustsRetriesAndPoisons) {
  hmc::HmcParams p = QuietHmc();
  p.fault.link_ber = 1.0;  // every serialization fails its CRC
  p.fault.max_retries = 2;
  p.fault.seed = 9;
  StatRegistry stats;
  hmc::HmcCube cube(p, &stats);
  hmc::Completion c = cube.Read(0x100, 64, 0);
  EXPECT_TRUE(c.poisoned);
  // Request and response lanes both exhaust: 2 retries each + the failed
  // initial serializations.
  EXPECT_GE(stats.Get("fault.link_crc_errors"), 4.0);
  EXPECT_EQ(stats.Get("fault.retry_exhausted"), 2.0);
  EXPECT_EQ(stats.Get("fault.link_retries"), 4.0);
  EXPECT_EQ(stats.Get("fault.poisoned_ops"), 1.0);

  // The give-up path still charges the replay attempts: latency must
  // exceed the clean read's by at least the retry penalties consumed.
  hmc::HmcParams clean = QuietHmc();
  hmc::HmcCube ideal(clean);
  hmc::Completion c0 = ideal.Read(0x100, 64, 0);
  EXPECT_GE(c.response_at_host,
            c0.response_at_host + 4 * p.fault.retry_latency);
}

TEST(HmcFault, ModerateBerRecoversMostPacketsViaRetry) {
  hmc::HmcParams p = QuietHmc();
  p.fault.link_ber = 1e-4;  // ~2.5% per 256-bit packet: retries, few deaths
  p.fault.seed = 11;
  StatRegistry stats;
  hmc::HmcCube cube(p, &stats);
  int poisoned = 0;
  for (int i = 0; i < 2000; ++i) {
    hmc::Completion c =
        cube.Read(static_cast<Addr>(i) * 4096, 64, static_cast<Tick>(i) * 100);
    if (c.poisoned) ++poisoned;
  }
  EXPECT_GT(stats.Get("fault.link_retries"), 0.0);
  EXPECT_GT(stats.Get("fault.retry_flits"), 0.0);
  // One retry at ~2.5% packet error recovers almost everything; triple
  // failures (needed to poison) are ~1e-5.
  EXPECT_LT(poisoned, 5);
  EXPECT_EQ(stats.Get("fault.poisoned_ops"), poisoned);
}

TEST(HmcFault, RetriesAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    hmc::HmcParams p;
    p.fault.link_ber = 1e-4;
    p.fault.seed = seed;
    StatRegistry stats;
    hmc::HmcCube cube(p, &stats);
    Tick last = 0;
    for (int i = 0; i < 500; ++i) {
      last = cube.Read(static_cast<Addr>(i) * 4096, 64,
                       static_cast<Tick>(i) * 100)
                 .response_at_host;
    }
    return std::make_pair(last, stats.Get("fault.link_retries"));
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5).second, run(6).second);
}

TEST(HmcFault, VaultStallsDelayEveryRequestAtFullRate) {
  hmc::HmcParams p = QuietHmc();
  p.fault.vault_stall_ppm = 1'000'000;  // every request stalls
  p.fault.vault_stall_ticks = NsToTicks(500.0);
  p.fault.seed = 13;
  StatRegistry stats;
  hmc::HmcCube stalled(p, &stats);
  hmc::HmcCube ideal(QuietHmc());
  hmc::Completion slow = stalled.Read(0x40, 64, 0);
  hmc::Completion fast = ideal.Read(0x40, 64, 0);
  EXPECT_EQ(slow.response_at_host, fast.response_at_host + NsToTicks(500.0));
  EXPECT_EQ(stats.Get("fault.vault_stalls"), 1.0);
  EXPECT_EQ(stats.Get("fault.vault_stall_ns"), 500.0);
  EXPECT_FALSE(slow.poisoned);  // a stall delays, it does not corrupt
}

TEST(HmcFault, AtomicPoisoningAtFullRateFlagsEveryOp) {
  hmc::HmcParams p = QuietHmc();
  p.fault.poison_ppm = 1'000'000;
  p.fault.seed = 17;
  StatRegistry stats;
  hmc::HmcCube cube(p, &stats);
  for (int i = 0; i < 8; ++i) {
    hmc::Completion c = cube.Atomic(static_cast<Addr>(i) * 4096,
                                    hmc::AtomicOp::kAdd16, hmc::Value16{},
                                    true, static_cast<Tick>(i) * 1000);
    EXPECT_TRUE(c.poisoned);
  }
  EXPECT_EQ(stats.Get("fault.poisoned_atomics"), 8.0);
  EXPECT_EQ(stats.Get("fault.poisoned_ops"), 8.0);
  // Reads are not atomics: they stay clean under poison_ppm.
  EXPECT_FALSE(cube.Read(0x9000, 64, 0).poisoned);
}

// The acceptance gate for the whole subsystem: all-zero knobs must leave
// the timing model bit-identical to an ideal cube, even with a nonzero
// seed plumbed through.
TEST(HmcFault, ZeroKnobsAreBitIdenticalToIdealCube) {
  hmc::HmcParams faulty = QuietHmc();
  faulty.fault.seed = 0xdeadbeef;  // knobs all zero; plan disabled
  StatRegistry stats;
  hmc::HmcCube a(faulty, &stats);
  hmc::HmcCube b(QuietHmc());
  for (int i = 0; i < 200; ++i) {
    const Addr addr = static_cast<Addr>(i * 37) * 256;
    const Tick when = static_cast<Tick>(i) * 50;
    hmc::Completion ca = a.Read(addr, 64, when);
    hmc::Completion cb = b.Read(addr, 64, when);
    EXPECT_EQ(ca.response_at_host, cb.response_at_host) << i;
    EXPECT_EQ(ca.internal_done, cb.internal_done) << i;
    hmc::Completion aa =
        a.Atomic(addr, hmc::AtomicOp::kAdd16, hmc::Value16{}, true, when);
    hmc::Completion ab =
        b.Atomic(addr, hmc::AtomicOp::kAdd16, hmc::Value16{}, true, when);
    EXPECT_EQ(aa.response_at_host, ab.response_at_host) << i;
  }
  EXPECT_EQ(stats.Get("fault.link_crc_errors"), 0.0);
  EXPECT_EQ(stats.Get("fault.vault_stalls"), 0.0);
  EXPECT_EQ(stats.Get("fault.poisoned_ops"), 0.0);
}

// ----------------------------------------------------------- sweep grids

exec::SweepGrid SmallGrid(const std::string& extra = "") {
  exec::SweepGrid g =
      exec::ParseGridSpec("workloads=bfs;modes=baseline,graphpim" + extra);
  g.vertices = 2048;
  g.op_cap = 120'000;
  g.sim_threads = 4;
  for (auto& c : g.configs) c.num_cores = 4;
  return g;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SweepFault, FailingCellsAreIsolated) {
  exec::SweepGrid g = SmallGrid();
  g.workloads.push_back("no-such-workload");
  exec::SweepRunner::Options opts;
  opts.jobs = 2;
  exec::SweepResultTable t = exec::SweepRunner(opts).Run(g);
  ASSERT_EQ(t.rows.size(), 4u);
  EXPECT_EQ(t.failed_rows, 2u);
  // The healthy cell is untouched by its neighbor's failure.
  exec::SweepResultTable healthy = exec::SweepRunner(opts).Run(SmallGrid());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(t.rows[i].status, exec::JobStatus::kOk);
    EXPECT_EQ(core::ToJson(t.rows[i].results),
              core::ToJson(healthy.rows[i].results));
  }
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(t.rows[i].status, exec::JobStatus::kFailed);
    EXPECT_NE(t.rows[i].error.find("unknown workload"), std::string::npos);
    EXPECT_EQ(t.rows[i].results.cycles, 0u);
  }
  // Failed rows surface in the JSON sink but not as bogus metrics.
  const std::string json = exec::ToJson(t);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(json.find("unknown workload"), std::string::npos);
}

TEST(SweepFault, InjectionIsBitIdenticalAcrossJobCounts) {
  exec::SweepGrid g = SmallGrid(";link_ber=1e-6;vault_stall_ppm=500;poison_ppm=50");
  exec::SweepRunner::Options serial;
  serial.jobs = 1;
  exec::SweepRunner::Options parallel;
  parallel.jobs = 4;
  exec::SweepResultTable a = exec::SweepRunner(serial).Run(g);
  exec::SweepResultTable b = exec::SweepRunner(parallel).Run(g);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  double injected = 0;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(core::ToJson(a.rows[i].results), core::ToJson(b.rows[i].results))
        << "row " << i;
    injected += static_cast<double>(a.rows[i].results.link_crc_errors +
                                    a.rows[i].results.vault_stalls +
                                    a.rows[i].results.poisoned_ops);
  }
  EXPECT_EQ(exec::ToDeterministicCsv(a), exec::ToDeterministicCsv(b));
  // The knobs must actually inject something, or this test proves nothing.
  EXPECT_GT(injected, 0.0);
}

TEST(SweepFault, FaultKnobsChangeResultsButStayDeterministic) {
  exec::SweepRunner::Options opts;
  opts.jobs = 2;
  exec::SweepResultTable ideal = exec::SweepRunner(opts).Run(SmallGrid());
  exec::SweepResultTable faulty =
      exec::SweepRunner(opts).Run(SmallGrid(";link_ber=1e-6;vault_stall_ppm=500"));
  ASSERT_EQ(ideal.rows.size(), faulty.rows.size());
  for (const exec::SweepRow& r : ideal.rows) {
    EXPECT_EQ(r.results.link_crc_errors, 0u);
    EXPECT_EQ(r.results.vault_stalls, 0u);
  }
  // Degraded runs can only be slower, never faster.
  for (std::size_t i = 0; i < ideal.rows.size(); ++i) {
    EXPECT_GE(faulty.rows[i].results.cycles, ideal.rows[i].results.cycles);
  }
}

// ---------------------------------------------------------- journal/resume

TEST(Journal, FingerprintCoversGridShapeAndFaultKnobs) {
  exec::SweepGrid a = SmallGrid();
  EXPECT_EQ(exec::GridFingerprint(a), exec::GridFingerprint(SmallGrid()));
  EXPECT_NE(exec::GridFingerprint(a),
            exec::GridFingerprint(SmallGrid(";link_ber=1e-9")));
  exec::SweepGrid c = SmallGrid();
  c.base_seed = 99;
  EXPECT_NE(exec::GridFingerprint(a), exec::GridFingerprint(c));
  exec::SweepGrid d = SmallGrid();
  d.workloads.push_back("prank");
  EXPECT_NE(exec::GridFingerprint(a), exec::GridFingerprint(d));
}

TEST(Journal, WriterThrowsOnUnwritablePath) {
  exec::JournalWriter w;
  EXPECT_THROW(w.Open("/no-such-dir-anywhere/rows.jsonl", "fp"), SimError);
}

TEST(Journal, RowsRoundTripBitExactly) {
  const std::string path = TempPath("journal_roundtrip.jsonl");
  std::remove(path.c_str());

  exec::SweepRunner::Options opts;
  opts.jobs = 2;
  opts.journal_path = path;
  exec::SweepResultTable t = exec::SweepRunner(opts).Run(SmallGrid());

  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, &jd));
  EXPECT_EQ(jd.fingerprint, exec::GridFingerprint(SmallGrid()));
  EXPECT_EQ(jd.dropped_lines, 0u);
  ASSERT_EQ(jd.rows.size(), t.rows.size());
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    const exec::SweepRow& orig = t.rows[i];
    const exec::SweepRow& back = jd.rows[i];
    EXPECT_TRUE(back.from_journal);
    EXPECT_EQ(back.workload, orig.workload);
    EXPECT_EQ(back.seed, orig.seed);
    // Bit-exact payload: every double survives the %.17g round trip.
    EXPECT_EQ(core::ToJson(back.results), core::ToJson(orig.results)) << i;
    EXPECT_EQ(back.results.seconds, orig.results.seconds);
    EXPECT_EQ(back.results.energy.link_j, orig.results.energy.link_j);
    // AllItems: the journal round-trips the full registry, including the
    // merged core.* totals the compat Items() view hides.
    EXPECT_EQ(back.results.raw.AllItems(), orig.results.raw.AllItems());
  }
  std::remove(path.c_str());
}

// Simulates a SIGKILL mid-sweep: journal truncated to a strict prefix plus
// a torn trailing line. The resumed run must reproduce the uninterrupted
// table bit for bit and only re-simulate the missing coordinates.
TEST(Journal, ResumeAfterTruncationIsBitIdentical) {
  const std::string path = TempPath("journal_resume.jsonl");
  std::remove(path.c_str());

  exec::SweepRunner::Options opts;
  opts.jobs = 2;
  opts.journal_path = path;
  exec::SweepResultTable full = exec::SweepRunner(opts).Run(SmallGrid());

  // Keep header + first row, then a torn half-line (mid-write kill).
  std::vector<std::string> lines;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string cur;
    int ch;
    while ((ch = std::fgetc(f)) != EOF) {
      if (ch == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += static_cast<char>(ch);
      }
    }
    std::fclose(f);
  }
  ASSERT_GE(lines.size(), 3u);
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n%s\n", lines[0].c_str(), lines[1].c_str());
    std::fprintf(f, "%s", lines[2].substr(0, lines[2].size() / 2).c_str());
    std::fclose(f);
  }

  exec::SweepRunner::Options resume_opts = opts;
  resume_opts.resume = true;
  exec::SweepResultTable resumed = exec::SweepRunner(resume_opts).Run(SmallGrid());
  EXPECT_EQ(resumed.resumed_rows, 1u);
  ASSERT_EQ(resumed.rows.size(), full.rows.size());
  EXPECT_TRUE(resumed.rows[0].from_journal);
  EXPECT_FALSE(resumed.rows[1].from_journal);
  EXPECT_EQ(exec::ToDeterministicCsv(resumed), exec::ToDeterministicCsv(full));

  // The re-simulated row was re-journaled: a second resume restores both.
  exec::SweepResultTable again = exec::SweepRunner(resume_opts).Run(SmallGrid());
  EXPECT_EQ(again.resumed_rows, 2u);
  EXPECT_EQ(exec::ToDeterministicCsv(again), exec::ToDeterministicCsv(full));
  std::remove(path.c_str());
}

// A journal damaged in one byte must load without a crash, and every row
// it restores must be one that was journaled. Inverting all bits of a
// byte turns ASCII into a byte >= 0x80 that valid UTF-8 JSON cannot hold
// there, so each such mutant must drop its line rather than restore an
// altered row; a random replacement byte may form a different valid row,
// so those mutants only have to load.
TEST(Journal, ByteFlippedJournalsLoadOnlyJournaledRows) {
  const std::string path = TempPath("journal_flip.jsonl");
  std::remove(path.c_str());
  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  const exec::SweepResultTable t = exec::SweepRunner(opts).Run(SmallGrid());
  const std::string good = ReadTextFile(path);
  ASSERT_GT(good.size(), 100u);

  auto journaled = [&](const exec::SweepRow& r) {
    for (const exec::SweepRow& o : t.rows) {
      if (r.workload_idx == o.workload_idx &&
          r.profile_idx == o.profile_idx && r.config_idx == o.config_idx &&
          r.workload == o.workload && r.profile == o.profile &&
          r.config_name == o.config_name && r.seed == o.seed &&
          r.wall_ms == o.wall_ms &&
          core::ToJson(r.results) == core::ToJson(o.results) &&
          r.results.raw.AllItems() == o.results.raw.AllItems()) {
        return true;
      }
    }
    return false;
  };

  SplitMix64 rng(0x6a6f75726e616cULL);
  for (int i = 0; i < 300; ++i) {
    const std::size_t at = rng.Next() % good.size();
    const bool invert = i % 2 == 0;
    std::string bad = good;
    bad[at] = static_cast<char>(invert ? ~bad[at] : rng.Next() & 0xFF);
    WriteTextFile(path, bad);
    exec::JournalData jd;
    ASSERT_TRUE(exec::LoadJournal(path, &jd));
    EXPECT_LE(jd.rows.size(), t.rows.size()) << "byte " << at;
    if (!invert) continue;
    EXPECT_GE(jd.dropped_lines, 1u) << "byte " << at;
    for (const exec::SweepRow& r : jd.rows) {
      EXPECT_TRUE(journaled(r)) << "byte " << at;
    }
  }
  std::remove(path.c_str());
}

// A damaged index that still parses must not move a row into another
// cell's slot: the row whose "c" now points at config 1 says "Baseline",
// which is config 0's name, so it is dropped, and the genuine config-1
// row that follows it is restored.
TEST(Journal, ResumeDropsARowWhoseIndexNoLongerMatchesItsNames) {
  const std::string path = TempPath("journal_moved.jsonl");
  std::remove(path.c_str());
  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  const exec::SweepResultTable full = exec::SweepRunner(opts).Run(SmallGrid());
  ASSERT_EQ(full.rows.size(), 2u);

  std::string text = ReadTextFile(path);
  const std::size_t at = text.find("\"c\":0,");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "\"c\":1,");
  WriteTextFile(path, text);

  exec::SweepRunner::Options resume_opts = opts;
  resume_opts.resume = true;
  const exec::SweepResultTable resumed =
      exec::SweepRunner(resume_opts).Run(SmallGrid());
  EXPECT_EQ(resumed.resumed_rows, 1u);
  ASSERT_EQ(resumed.rows.size(), 2u);
  EXPECT_FALSE(resumed.rows[0].from_journal);
  EXPECT_TRUE(resumed.rows[1].from_journal);
  EXPECT_EQ(resumed.rows[1].config_name, "GraphPIM");
  EXPECT_EQ(exec::ToDeterministicCsv(resumed), exec::ToDeterministicCsv(full));
  std::remove(path.c_str());
}

TEST(Journal, ResumeRejectsForeignFingerprint) {
  const std::string path = TempPath("journal_foreign.jsonl");
  std::remove(path.c_str());
  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  exec::SweepRunner(opts).Run(SmallGrid());

  exec::SweepRunner::Options resume_opts = opts;
  resume_opts.resume = true;
  EXPECT_THROW(
      exec::SweepRunner(resume_opts).Run(SmallGrid(";link_ber=1e-9")),
      SimError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim
