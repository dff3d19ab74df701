// src/pmem tests: the persist-domain timing layer (flush/fence costs and
// durability stamping), the deterministic crash plan, the persist-ordering
// checker (true positives on the seeded mutants, true negative on the full
// discipline), the crash/recovery harness with the all-or-nothing
// invariant, the pmem.enable=0 passthrough contract, and the sweep-journal
// fingerprint coverage of the pmem.* knobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "core/report.h"
#include "core/runner.h"
#include "cpu/uop.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "fault/fault.h"
#include "pmem/checker.h"
#include "pmem/crash.h"
#include "pmem/pmem.h"

namespace graphpim {
namespace {

// ------------------------------------------------------ PersistDomain

pmem::PmemParams OnParams() {
  pmem::PmemParams p;
  p.enable = true;
  p.flush_ns = 40.0;
  p.fence_ns = 20.0;
  return p;
}

constexpr Addr kBase = 0x1000;
constexpr Addr kEnd = kBase + (1 << 20);

TEST(PmemTiming, FlushChargesAndFencePersists) {
  StatRegistry reg;
  pmem::PersistDomain d(OnParams(), kBase, kEnd, &reg);
  d.OnStore(0, kBase + 8, 16, NsToTicks(10));
  const Tick flush_done = d.OnFlush(0, kBase + 8, NsToTicks(10));
  EXPECT_EQ(flush_done, NsToTicks(50));  // 10 + flush_ns
  // The fence waits out the pending writeback, then charges fence_ns.
  const Tick fence_done = d.OnFence(0, NsToTicks(12));
  EXPECT_EQ(fence_done, NsToTicks(70));  // max(12, 50) + fence_ns
  d.Finish(NsToTicks(100));

  const pmem::PersistLog& log = d.log();
  ASSERT_EQ(log.stores.size(), 1u);
  EXPECT_EQ(log.stores[0].ordinal, 0u);
  EXPECT_EQ(log.stores[0].issue, NsToTicks(10));
  EXPECT_EQ(log.stores[0].persist, fence_done);
  EXPECT_EQ(log.end_tick, NsToTicks(100));
  EXPECT_DOUBLE_EQ(reg.Get("pmem.pmr_stores"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.flushes"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.fences"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.persisted_stores"), 1.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.unpersisted_at_end"), 0.0);
}

TEST(PmemTiming, FenceCoversEveryPriorFlushOfTheCore) {
  // sfence semantics: one fence makes BOTH flushed lines durable.
  StatRegistry reg;
  pmem::PersistDomain d(OnParams(), kBase, kEnd, &reg);
  d.OnStore(0, kBase, 8, NsToTicks(0));
  d.OnStore(0, kBase + 64, 8, NsToTicks(1));
  d.OnFlush(0, kBase, NsToTicks(2));
  d.OnFlush(0, kBase + 64, NsToTicks(3));
  const Tick fence_done = d.OnFence(0, NsToTicks(4));
  d.Finish(NsToTicks(200));
  ASSERT_EQ(d.log().stores.size(), 2u);
  EXPECT_EQ(d.log().stores[0].persist, fence_done);
  EXPECT_EQ(d.log().stores[1].persist, fence_done);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.persisted_stores"), 2.0);
}

TEST(PmemTiming, RedundantAndCleanFlushesAreCounted) {
  StatRegistry reg;
  pmem::PersistDomain d(OnParams(), kBase, kEnd, &reg);
  d.OnStore(0, kBase, 8, NsToTicks(0));
  d.OnFlush(0, kBase, NsToTicks(1));   // useful
  d.OnFlush(0, kBase, NsToTicks(2));   // line already flushed: redundant
  d.OnFlush(0, kBase + 128, NsToTicks(3));  // never-stored line: redundant
  d.Finish(NsToTicks(50));
  EXPECT_DOUBLE_EQ(reg.Get("pmem.flushes"), 3.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.redundant_flushes"), 2.0);
}

TEST(PmemTiming, UnflushedStoreStaysUnpersisted) {
  StatRegistry reg;
  pmem::PersistDomain d(OnParams(), kBase, kEnd, &reg);
  d.OnStore(0, kBase, 16, NsToTicks(0));
  d.OnFence(0, NsToTicks(5));  // fence without a flush covers nothing
  d.Finish(NsToTicks(50));
  EXPECT_EQ(d.log().stores[0].persist, pmem::kNeverPersisted);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.persisted_stores"), 0.0);
  EXPECT_DOUBLE_EQ(reg.Get("pmem.unpersisted_at_end"), 1.0);
}

// --------------------------------------------------------- CrashPlan

TEST(CrashPlan, DeriveCrashSeedIsPureAndDecorrelated) {
  EXPECT_EQ(fault::DeriveCrashSeed(1, 0), fault::DeriveCrashSeed(1, 0));
  EXPECT_NE(fault::DeriveCrashSeed(1, 0), fault::DeriveCrashSeed(1, 1));
  EXPECT_NE(fault::DeriveCrashSeed(1, 0), fault::DeriveCrashSeed(2, 0));
  // Crash and fault streams of the same cell must not collide.
  EXPECT_NE(fault::DeriveCrashSeed(1, 0), fault::DeriveFaultSeed(1, 0));
}

TEST(CrashPlan, SampleCrashTickIsDeterministicAndInRange) {
  fault::CrashPlan a(99), b(99);
  const Tick end = NsToTicks(50'000);
  bool any_differ = false;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Tick t = a.SampleCrashTick(i, end);
    EXPECT_EQ(t, b.SampleCrashTick(i, end)) << i;
    EXPECT_LE(t, end);
    if (i > 0 && t != a.SampleCrashTick(0, end)) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
  EXPECT_EQ(a.SampleCrashTick(7, 0), 0u);  // empty run: crash at tick 0
}

TEST(CrashPlan, InFlightOutcomeRespectsPowerfailAtomicity) {
  fault::CrashPlan plan(3);
  int seen[3] = {0, 0, 0};
  for (std::uint64_t i = 0; i < 600; ++i) {
    const int atomic8 = plan.InFlightOutcome(0x42, i, /*can_tear=*/false);
    ASSERT_GE(atomic8, 0);
    ASSERT_LE(atomic8, 1);  // 8B stores never tear
    ++seen[plan.InFlightOutcome(0x43, i, /*can_tear=*/true)];
    // Pure function of (seed, store, cycle).
    EXPECT_EQ(atomic8, plan.InFlightOutcome(0x42, i, false));
  }
  EXPECT_GT(seen[0], 100);  // old
  EXPECT_GT(seen[1], 100);  // new
  EXPECT_GT(seen[2], 100);  // torn
}

// ------------------------------------------------- persist checker

// Hand-built micro-op stream helpers (thread 0 only).
cpu::MicroOp Op(cpu::OpType type, Addr addr, std::uint8_t size = 8) {
  cpu::MicroOp op;
  op.type = type;
  op.addr = addr;
  op.size = size;
  return op;
}

TEST(PersistChecker, CleanDisciplinePasses) {
  std::vector<cpu::UopStream> streams(1);
  streams[0] = {Op(cpu::OpType::kStore, kBase, 16),
                Op(cpu::OpType::kFlush, kBase),
                Op(cpu::OpType::kFence, 0)};
  const pmem::CheckReport r =
      pmem::CheckPersistOrdering(streams, kBase, kEnd, nullptr);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.pmr_stores, 1u);
  EXPECT_EQ(r.flushes, 1u);
  EXPECT_EQ(r.fences, 1u);
}

TEST(PersistChecker, UnpersistedAndMissingFenceAreDistinct) {
  std::vector<cpu::UopStream> streams(1);
  streams[0] = {Op(cpu::OpType::kStore, kBase, 8),        // never flushed
                Op(cpu::OpType::kStore, kBase + 64, 8),   // flushed, unfenced
                Op(cpu::OpType::kFlush, kBase + 64)};
  const pmem::CheckReport r =
      pmem::CheckPersistOrdering(streams, kBase, kEnd, nullptr);
  EXPECT_EQ(r.unpersisted_stores, 1u);
  EXPECT_EQ(r.missing_fences, 1u);
  ASSERT_EQ(r.violations.size(), 2u);
}

TEST(PersistChecker, RedundantFlushIsFlagged) {
  std::vector<cpu::UopStream> streams(1);
  streams[0] = {Op(cpu::OpType::kStore, kBase, 8),
                Op(cpu::OpType::kFlush, kBase),
                Op(cpu::OpType::kFlush, kBase),  // doubled
                Op(cpu::OpType::kFence, 0)};
  const pmem::CheckReport r =
      pmem::CheckPersistOrdering(streams, kBase, kEnd, nullptr);
  EXPECT_EQ(r.redundant_flushes, 1u);
  EXPECT_EQ(r.unpersisted_stores, 0u);
}

TEST(PersistChecker, UnorderedPublishNeedsTheUpdateLog) {
  // Payload flushed but not fenced before the publish store issues — the
  // exact shape the missing-fence mutant seeds.
  std::vector<cpu::UopStream> streams(1);
  streams[0] = {Op(cpu::OpType::kStore, kBase, 16),        // payload, ord 0
                Op(cpu::OpType::kFlush, kBase),
                Op(cpu::OpType::kStore, kBase + 512, 8),   // publish, ord 1
                Op(cpu::OpType::kFlush, kBase + 512),
                Op(cpu::OpType::kFence, 0)};
  pmem::UpdateLog updates;
  updates.updates.push_back({0, {0}, 1});
  const pmem::CheckReport r =
      pmem::CheckPersistOrdering(streams, kBase, kEnd, &updates);
  EXPECT_EQ(r.unordered_publishes, 1u);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, pmem::ViolationKind::kUnorderedPublish);
  // Without the update log the same stream is merely unordered publishing
  // the checker can't see; the flush+fence discipline itself is clean.
  EXPECT_TRUE(pmem::CheckPersistOrdering(streams, kBase, kEnd, nullptr).ok());
}

TEST(PersistChecker, NonPmrStoresAreIgnored) {
  std::vector<cpu::UopStream> streams(1);
  streams[0] = {Op(cpu::OpType::kStore, kBase - 64, 8),  // below the PMR
                Op(cpu::OpType::kStore, kEnd, 8)};       // past the PMR
  const pmem::CheckReport r =
      pmem::CheckPersistOrdering(streams, kBase, kEnd, nullptr);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.pmr_stores, 0u);
}

// -------------------------------------------- crash/recovery harness

pmem::PersistLog TwoStoreLog() {
  // payload (16B, tearable) persists at 100ns; publish (8B) at 200ns.
  pmem::PersistLog log;
  pmem::PersistStoreEvent payload;
  payload.core = 0;
  payload.ordinal = 0;
  payload.size = 16;
  payload.issue = NsToTicks(10);
  payload.persist = NsToTicks(100);
  pmem::PersistStoreEvent publish;
  publish.core = 0;
  publish.ordinal = 1;
  publish.size = 8;
  publish.issue = NsToTicks(110);
  publish.persist = NsToTicks(200);
  log.stores = {payload, publish};
  log.end_tick = NsToTicks(300);
  return log;
}

pmem::UpdateLog OneUpdate() {
  pmem::UpdateLog u;
  u.invariant = "all-or-nothing";
  u.updates.push_back({0, {0}, 1});
  return u;
}

TEST(CrashRecovery, CrashBeforeIssueDiscardsTheUpdate) {
  const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
      TwoStoreLog(), OneUpdate(), NsToTicks(5), fault::CrashPlan(1), 0,
      pmem::AllOrNothingInvariant("edge rewrite"));
  EXPECT_TRUE(o.consistent);
  EXPECT_EQ(o.durable_updates, 0u);
  EXPECT_EQ(o.discarded_updates, 1u);
  EXPECT_EQ(o.inflight_stores, 0u);
}

TEST(CrashRecovery, CrashAfterBothPersistsIsDurable) {
  const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
      TwoStoreLog(), OneUpdate(), NsToTicks(250), fault::CrashPlan(1), 0,
      pmem::AllOrNothingInvariant("edge rewrite"));
  EXPECT_TRUE(o.consistent);
  EXPECT_EQ(o.durable_updates, 1u);
  EXPECT_EQ(o.discarded_updates, 0u);
}

TEST(CrashRecovery, VisiblePublishWithLostPayloadIsInconsistent) {
  // Make the payload persist AFTER the publish record — an unordered
  // discipline. Crash between the two: the publish is durable-new but the
  // payload never reached the media, which recovery must reject.
  pmem::PersistLog log = TwoStoreLog();
  log.stores[0].persist = NsToTicks(250);  // payload now persists last
  const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
      log, OneUpdate(), NsToTicks(220), fault::CrashPlan(1), 0,
      pmem::AllOrNothingInvariant("edge rewrite"));
  EXPECT_FALSE(o.consistent);
  ASSERT_FALSE(o.errors.empty());
  EXPECT_NE(o.errors[0].find("edge rewrite"), std::string::npos);
}

TEST(CrashRecovery, UpdateNamingAnAbsentStoreIsAnError) {
  pmem::UpdateLog u;
  u.updates.push_back({0, {7}, 8});  // ordinals the log never recorded
  const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
      TwoStoreLog(), u, NsToTicks(250), fault::CrashPlan(1), 0,
      pmem::AllOrNothingInvariant("edge rewrite"));
  EXPECT_FALSE(o.consistent);
}

TEST(CrashRecovery, EvaluationIsAPureFunctionOfItsInputs) {
  const fault::CrashPlan plan(fault::DeriveCrashSeed(42, 0));
  const pmem::PersistLog log = TwoStoreLog();
  const pmem::UpdateLog updates = OneUpdate();
  const auto inv = pmem::AllOrNothingInvariant("edge rewrite");
  for (std::uint64_t c = 0; c < 32; ++c) {
    const Tick t = plan.SampleCrashTick(c, log.end_tick);
    EXPECT_EQ(pmem::FormatCrashOutcome(
                  pmem::EvaluateCrashRecovery(log, updates, t, plan, c, inv)),
              pmem::FormatCrashOutcome(
                  pmem::EvaluateCrashRecovery(log, updates, t, plan, c, inv)))
        << c;
  }
}

// ------------------------------------------------------- end to end

core::Experiment PersistExperiment(const std::string& wl,
                                   pmem::PersistMode mode) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 1;
  eo.op_cap = 40'000;
  eo.persist = mode;
  return core::Experiment("ldbc", 512, wl, eo);
}

core::SimConfig PersistConfig() {
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;
  sc.pmem.enable = true;
  return sc;
}

TEST(PersistEndToEnd, FullDisciplineIsCheckerClean) {
  for (const char* wl : {"gup", "tmorph"}) {
    core::Experiment exp = PersistExperiment(wl, pmem::PersistMode::kFull);
    ASSERT_TRUE(exp.persist_capable());
    ASSERT_NE(exp.update_log(), nullptr);
    EXPECT_FALSE(exp.update_log()->empty()) << wl;
    const pmem::CheckReport r = pmem::CheckPersistOrdering(
        exp.trace().streams, exp.pmr_base(), exp.pmr_end(), exp.update_log());
    EXPECT_TRUE(r.ok()) << wl << ": " << pmem::FormatCheckReport(r, nullptr);
  }
}

TEST(PersistEndToEnd, MissingFenceMutantIsFlaggedAsUnorderedPublish) {
  for (const char* wl : {"gup", "tmorph"}) {
    core::Experiment exp =
        PersistExperiment(wl, pmem::PersistMode::kMissingFence);
    const pmem::CheckReport r = pmem::CheckPersistOrdering(
        exp.trace().streams, exp.pmr_base(), exp.pmr_end(), exp.update_log());
    EXPECT_GT(r.unordered_publishes, 0u) << wl;
    EXPECT_EQ(r.redundant_flushes, 0u) << wl;
  }
}

TEST(PersistEndToEnd, RedundantFlushMutantIsFlagged) {
  core::Experiment exp =
      PersistExperiment("gup", pmem::PersistMode::kRedundantFlush);
  const pmem::CheckReport r = pmem::CheckPersistOrdering(
      exp.trace().streams, exp.pmr_base(), exp.pmr_end(), exp.update_log());
  EXPECT_GT(r.redundant_flushes, 0u);
  EXPECT_EQ(r.unordered_publishes, 0u);
}

TEST(PersistEndToEnd, DisabledPmemIsAStrictPassthrough) {
  core::Experiment exp = PersistExperiment("gup", pmem::PersistMode::kOff);
  core::SimConfig plain = core::SimConfig::Scaled(core::Mode::kGraphPim);
  plain.num_cores = 4;
  core::SimConfig off = plain;
  off.pmem.flush_ns = 999.0;  // knobs are inert while enable=0
  off.pmem.fence_ns = 999.0;
  const core::SimResults a = exp.Run(plain);
  const core::SimResults b = exp.Run(off);
  EXPECT_EQ(core::ToJson(a), core::ToJson(b));
  EXPECT_EQ(core::FormatReport(a), core::FormatReport(b));
  EXPECT_FALSE(a.raw.Has("pmem.flushes"));
}

TEST(PersistEndToEnd, EnabledRunChargesPersistTimeAndExportsStats) {
  core::Experiment exp = PersistExperiment("gup", pmem::PersistMode::kFull);
  core::SimConfig off = PersistConfig();
  off.pmem.enable = false;  // same persist trace, free flush/fence ops
  const core::SimResults cheap = exp.Run(off);
  const core::SimResults priced = exp.Run(PersistConfig());
  EXPECT_GT(priced.cycles, cheap.cycles);
  ASSERT_TRUE(priced.raw.Has("pmem.flushes"));
  EXPECT_GT(priced.raw.Get("pmem.flushes"), 0.0);
  EXPECT_DOUBLE_EQ(priced.raw.Get("pmem.unpersisted_at_end"), 0.0);
  EXPECT_NE(core::FormatReport(priced).find("pmem: "), std::string::npos);
  // The pmem line sits after the golden-diff cutoff, like the span section.
  EXPECT_LT(core::FormatReport(priced).find("uncore energy:"),
            core::FormatReport(priced).find("pmem: "));
}

TEST(PersistEndToEnd, FullDisciplineSurvivesEveryCrashTick) {
  // The headline robustness property: 100 deterministic crash/recovery
  // cycles over a full-discipline run all recover consistently.
  for (const char* wl : {"gup", "tmorph"}) {
    core::Experiment exp = PersistExperiment(wl, pmem::PersistMode::kFull);
    pmem::PersistLog log;
    core::RunOptions ro;
    ro.persist = &log;
    exp.Run(PersistConfig(), ro);
    ASSERT_FALSE(log.empty()) << wl;
    const fault::CrashPlan plan(fault::DeriveCrashSeed(1, 0));
    const auto inv = exp.recovery_invariant();
    std::uint64_t durable = 0;
    for (std::uint64_t c = 0; c < 100; ++c) {
      const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
          log, *exp.update_log(), plan.SampleCrashTick(c, log.end_tick), plan,
          c, inv);
      EXPECT_TRUE(o.consistent)
          << wl << " cycle " << c << ": " << pmem::FormatCrashOutcome(o);
      durable += o.durable_updates;
    }
    EXPECT_GT(durable, 0u) << wl;
  }
}

TEST(PersistEndToEnd, MissingFenceMutantTearsUpdatesUnderCrash) {
  // With the payload fence elided, payload and publish persist at the SAME
  // fence, so a crash inside that window can observe the publish record
  // while the payload drew old/torn — the inconsistency the full
  // discipline provably excludes.
  core::Experiment exp =
      PersistExperiment("gup", pmem::PersistMode::kMissingFence);
  pmem::PersistLog log;
  core::RunOptions ro;
  ro.persist = &log;
  exp.Run(PersistConfig(), ro);
  const fault::CrashPlan plan(fault::DeriveCrashSeed(1, 0));
  const auto inv = exp.recovery_invariant();
  std::uint64_t inconsistent = 0;
  for (std::uint64_t c = 0; c < 100; ++c) {
    const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
        log, *exp.update_log(), plan.SampleCrashTick(c, log.end_tick), plan,
        c, inv);
    if (!o.consistent) ++inconsistent;
  }
  EXPECT_GT(inconsistent, 0u);
}

// ------------------------------------------------ sweep integration

exec::SweepGrid PmemGrid(double flush_ns = 40.0) {
  exec::SweepGrid g =
      exec::ParseGridSpec("workloads=gup;modes=baseline,graphpim");
  g.vertices = 512;
  g.op_cap = 20'000;
  g.sim_threads = 4;
  for (auto& c : g.configs) {
    c.num_cores = 4;
    c.pmem.enable = true;
    c.pmem.flush_ns = flush_ns;
  }
  return g;
}

TEST(PmemSweep, EnableMustBeUniformAcrossTheGrid) {
  exec::SweepGrid g = PmemGrid();
  g.configs[1].pmem.enable = false;  // half-persistent grid is meaningless
  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  EXPECT_THROW(exec::SweepRunner(opts).Run(g), SimError);
}

// The trace-shape rule every driver builds its Experiment with must
// generate the flush/fence discipline whenever the persist domain is on,
// or a pmem run would replay a trace with no persist ops. A sweep cell's
// options carry it at any seed.
TEST(PmemSweep, RetryOptionsCarryFullPersistMode) {
  const exec::SweepGrid g = PmemGrid();
  core::Experiment::Options shaped;
  shaped.seed = 77;
  core::ShapeTraceFor(g.configs, &shaped);
  EXPECT_EQ(shaped.persist, pmem::PersistMode::kFull);
  EXPECT_EQ(shaped.seed, 77u);  // everything else is left as it was

  const std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  const core::Experiment::Options eo = exec::MakeExperimentOptions(g, seed);
  EXPECT_EQ(eo.persist, pmem::PersistMode::kFull);
  EXPECT_EQ(eo.seed, seed);
  EXPECT_EQ(eo.num_threads, g.sim_threads);
  EXPECT_EQ(eo.op_cap, g.op_cap);

  exec::SweepGrid off = PmemGrid();
  for (auto& c : off.configs) c.pmem.enable = false;
  core::Experiment::Options plain;
  core::ShapeTraceFor(off.configs, &plain);
  EXPECT_EQ(plain.persist, pmem::PersistMode::kOff);
}

TEST(PmemSweep, TraceShapeRejectsNonUniformConfigs) {
  exec::SweepGrid g = PmemGrid();
  g.configs[1].pmem.enable = false;
  core::Experiment::Options eo;
  EXPECT_THROW(core::ShapeTraceFor(g.configs, &eo), SimError);
  EXPECT_THROW(exec::MakeExperimentOptions(g, 1), SimError);

  exec::SweepGrid ann = PmemGrid();
  ann.configs[0].ann.k = 3;
  EXPECT_THROW(core::ShapeTraceFor(ann.configs, &eo), SimError);
  // One config is uniform with itself.
  EXPECT_NO_THROW(core::ShapeTraceFor({ann.configs[0]}, &eo));
  EXPECT_EQ(eo.params.ann.k, 3);
}

TEST(PmemSweep, FingerprintCoversPmemKnobs) {
  EXPECT_NE(exec::GridFingerprint(PmemGrid(40.0)),
            exec::GridFingerprint(PmemGrid(80.0)));
}

TEST(PmemSweep, ResumeRefusesAJournalWithDifferentPmemKnobs) {
  // Regression for the journal-splicing hazard: rows simulated under one
  // flush cost must not seed a resume under another.
  const std::string path = ::testing::TempDir() + "/gp_pmem_journal.jsonl";
  std::remove(path.c_str());
  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  exec::SweepResultTable t = exec::SweepRunner(opts).Run(PmemGrid(40.0));
  EXPECT_EQ(t.failed_rows, 0u);

  exec::SweepRunner::Options resume_opts = opts;
  resume_opts.resume = true;
  EXPECT_THROW(exec::SweepRunner(resume_opts).Run(PmemGrid(80.0)), SimError);
  // The unchanged grid still resumes.
  exec::SweepResultTable again =
      exec::SweepRunner(resume_opts).Run(PmemGrid(40.0));
  EXPECT_EQ(again.failed_rows, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim
