// Tests for phase-delta capture (trace::IntervalLog cut at barriers),
// trace export, and the sweep-journal phase sidecar.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "fault/fault.h"

namespace graphpim {
namespace {

trace::IntervalLog TwoPhases() {
  trace::IntervalLog log;
  StatRegistry reg;
  reg.Add("hmc.reads", 10.0);
  reg.Add("core.insts", 100.0);
  log.Cut("superstep.0", 0, NsToTicks(50.0), &reg);
  reg.Add("hmc.reads", 5.0);
  log.Cut("drain.1", NsToTicks(50.0), NsToTicks(80.0), &reg);
  return log;
}

TEST(IntervalLog, PhaseCutsCarryDeltasNotTotals) {
  trace::IntervalLog log = TwoPhases();
  ASSERT_EQ(log.intervals().size(), 2u);
  const trace::Interval& p0 = log.intervals()[0];
  EXPECT_EQ(p0.name, "superstep.0");
  ASSERT_EQ(p0.deltas.size(), 2u);  // name-sorted: core.insts, hmc.reads
  EXPECT_EQ(p0.deltas[0].first, "core.insts");
  EXPECT_DOUBLE_EQ(p0.deltas[0].second, 100.0);
  EXPECT_DOUBLE_EQ(p0.deltas[1].second, 10.0);
  // Second phase: only hmc.reads moved, and by its delta, not its total.
  const trace::Interval& p1 = log.intervals()[1];
  ASSERT_EQ(p1.deltas.size(), 1u);
  EXPECT_EQ(p1.deltas[0].first, "hmc.reads");
  EXPECT_DOUBLE_EQ(p1.deltas[0].second, 5.0);
}

TEST(IntervalLog, NullRegistryCutKeepsTheBaseline) {
  trace::IntervalLog log;
  StatRegistry reg;
  reg.Add("hmc.reads", 10.0);
  log.Cut("a", 0, 10, &reg);
  reg.Add("hmc.reads", 3.0);
  ASSERT_NE(log.Cut("b", 10, 20, nullptr), nullptr);
  EXPECT_TRUE(log.intervals()[1].deltas.empty());
  // The next registry cut diffs against "a", so the 3 reads are not lost.
  log.Cut("c", 20, 30, &reg);
  ASSERT_EQ(log.intervals()[2].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(log.intervals()[2].deltas[0].second, 3.0);
}

TEST(IntervalLog, PhaseChromeTraceAndJsonlFormats) {
  trace::IntervalLog log = TwoPhases();
  const std::string chrome = trace::ToChromeTrace(log);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"superstep.0\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);

  const std::string jsonl = trace::PhasesToJsonl(log);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"phase\":\"drain.1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"hmc.reads\":5"), std::string::npos);
}

TEST(IntervalLog, WriteTraceSelectsFormatByExtension) {
  trace::IntervalLog log = TwoPhases();
  const std::string base = ::testing::TempDir() + "/gp_trace_test";
  trace::WriteTrace(log, base + ".jsonl");
  trace::WriteTrace(log, base + ".json");
  std::ifstream a(base + ".jsonl");
  std::string first;
  std::getline(a, first);
  EXPECT_EQ(first.rfind("{\"phase\":", 0), 0u);
  std::ifstream b(base + ".json");
  std::string head;
  std::getline(b, head);
  EXPECT_NE(head.find("traceEvents"), std::string::npos);
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".json").c_str());
}

// End to end through the run loop: phases cut at BSP barriers, cover the
// whole run, and their deltas sum back to the final counter totals.
TEST(IntervalLog, RunSimulationPhasesSumToTotals) {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 30'000;
  core::Experiment exp("ldbc", 512, "bfs", eo);
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;

  trace::IntervalLog log;
  core::RunOptions ro;
  ro.phases = &log;
  core::SimResults r = exp.Run(sc, ro);

  ASSERT_FALSE(log.empty());
  // The final cut is the drain phase; earlier ones are supersteps.
  EXPECT_EQ(log.intervals().back().name.rfind("drain.", 0), 0u);
  Tick prev_end = 0;
  double insts = 0.0, reads = 0.0;
  for (const trace::Interval& ph : log.intervals()) {
    EXPECT_EQ(ph.start, prev_end);  // contiguous coverage
    EXPECT_GE(ph.end, ph.start);
    prev_end = ph.end;
    for (const auto& [k, v] : ph.deltas) {
      if (k == "core.insts") insts += v;
      if (k == "hmc.reads") reads += v;
    }
  }
  EXPECT_DOUBLE_EQ(insts, r.raw.Get("core.insts"));
  EXPECT_DOUBLE_EQ(reads, r.raw.Get("hmc.reads"));
  // Identity check: a phase-instrumented run must not perturb the results.
  EXPECT_EQ(core::ToJson(r), core::ToJson(exp.Run(sc)));
}

TEST(Journal, PhaseSidecarLinesAreWrittenAndSkippedOnLoad) {
  const std::string path = ::testing::TempDir() + "/gp_phases_journal.jsonl";
  std::remove(path.c_str());

  exec::SweepGrid grid;
  grid.workloads = {"bfs"};
  grid.profiles = {"ldbc"};
  grid.vertices = 512;
  grid.sim_threads = 2;
  grid.op_cap = 10'000;
  core::SimConfig c = core::SimConfig::Scaled(core::Mode::kGraphPim);
  c.num_cores = 2;
  grid.configs = {c};
  grid.config_names = {"graphpim"};

  exec::SweepRunner::Options opts;
  opts.jobs = 1;
  opts.journal_path = path;
  opts.journal_phases = true;
  exec::SweepResultTable t = exec::SweepRunner(opts).Run(grid);
  ASSERT_EQ(t.failed_rows, 0u);

  // The same replay exported through --metrics-out's JSONL writer: the
  // sidecar's phases must be exactly these lines, comma-joined.
  const std::uint64_t cell_seed = exec::DeriveCellSeed(grid.base_seed, 0, 0);
  const core::Experiment exp(grid.profiles[0], grid.vertices,
                             grid.workloads[0],
                             exec::MakeExperimentOptions(grid, cell_seed));
  core::SimConfig cfg = grid.configs[0];
  cfg.hmc.fault.seed = fault::DeriveFaultSeed(cell_seed, 0);
  trace::IntervalLog phases;
  core::RunOptions ro;
  ro.phases = &phases;
  exp.Run(cfg, ro);
  const std::string metrics = ::testing::TempDir() + "/gp_phases_metrics.jsonl";
  trace::WriteTrace(phases, metrics);
  std::ifstream mf(metrics);
  std::string line;
  std::string want;
  while (std::getline(mf, line)) want += (want.empty() ? "" : ",") + line;
  ASSERT_NE(want.find("superstep."), std::string::npos);
  std::remove(metrics.c_str());

  // The journal holds header + row + exactly one phases_for sidecar.
  std::ifstream in(path);
  std::size_t sidecars = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"phases_for\":", 0) == 0) {
      ++sidecars;
      EXPECT_EQ(line, "{\"phases_for\":{\"w\":0,\"p\":0,\"c\":0},\"phases\":[" +
                          want + "]}");
    }
  }
  EXPECT_EQ(sidecars, 1u);

  // Sidecars are annotations: loading must restore the row and count
  // nothing as dropped.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(path, &jd));
  EXPECT_EQ(jd.rows.size(), 1u);
  EXPECT_EQ(jd.dropped_lines, 0u);
  EXPECT_EQ(core::ToJson(jd.rows[0].results), core::ToJson(t.rows[0].results));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphpim
