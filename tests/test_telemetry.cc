// Telemetry window tests (DESIGN.md §17): FixedWindows boundary math, the
// JSONL/Chrome-counter exporters, the sink-required config gate, windowed
// end-to-end runs (delta conservation, rerun determinism, strict
// off-identity), serve per-window gauges, the journal timeline sidecar,
// and the run-comparison engine behind tools/graphpim_compare.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/sim_config.h"
#include "exec/journal.h"
#include "exec/sweep.h"
#include "serve/engine.h"
#include "serve/slo.h"
#include "telemetry/compare.h"

namespace graphpim {
namespace {

// ---------------------------------------------------------------------------
// FixedWindows units.

TEST(FixedWindows, CutsAtBoundariesAndAttachesDeltasToFirstWindow) {
  StatRegistry reg;
  trace::IntervalLog tl;
  trace::FixedWindows ws(100, &tl, {});

  reg.Add("x", 5.0);
  ws.AdvanceTo(50, &reg);
  EXPECT_TRUE(tl.empty());  // boundary 100 not reached
  EXPECT_EQ(ws.next_boundary(), 100u);

  ws.AdvanceTo(100, &reg);
  ASSERT_EQ(tl.intervals().size(), 1u);
  const trace::Interval& w0 = tl.intervals()[0];
  EXPECT_EQ(w0.start, 0u);
  EXPECT_EQ(w0.end, 100u);
  ASSERT_EQ(w0.deltas.size(), 1u);
  EXPECT_EQ(w0.deltas[0].first, "x");
  EXPECT_DOUBLE_EQ(w0.deltas[0].second, 5.0);

  // One quantum jumps two boundaries: the accrued delta attaches to the
  // first window of the span, the second stays empty (virtual time inside
  // a quantum is not subdividable after the fact).
  reg.Add("x", 2.0);
  ws.AdvanceTo(350, &reg);
  ASSERT_EQ(tl.intervals().size(), 3u);
  EXPECT_EQ(tl.intervals()[1].end, 200u);
  ASSERT_EQ(tl.intervals()[1].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(tl.intervals()[1].deltas[0].second, 2.0);
  EXPECT_TRUE(tl.intervals()[2].deltas.empty());
  EXPECT_EQ(ws.next_boundary(), 400u);

  // Finish flushes the trailing partial window up to the final tick.
  reg.Add("x", 1.0);
  ws.Finish(370, &reg);
  ASSERT_EQ(tl.intervals().size(), 4u);
  EXPECT_EQ(tl.intervals()[3].start, 300u);
  EXPECT_EQ(tl.intervals()[3].end, 370u);
  ASSERT_EQ(tl.intervals()[3].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(tl.intervals()[3].deltas[0].second, 1.0);

  // Idempotent: a second Finish adds nothing.
  ws.Finish(370, &reg);
  EXPECT_EQ(tl.intervals().size(), 4u);
}

TEST(FixedWindows, TelemetryOnAlwaysYieldsAtLeastOneWindow) {
  StatRegistry reg;
  trace::IntervalLog tl;
  trace::FixedWindows ws(1000, &tl, {});
  ws.Finish(0, &reg);  // degenerate run: no tick ever advanced
  ASSERT_EQ(tl.intervals().size(), 1u);
  EXPECT_EQ(tl.intervals()[0].start, 0u);
  EXPECT_EQ(tl.intervals()[0].end, 0u);
}

TEST(FixedWindows, GaugeSamplerRunsPerCutInEmissionOrder) {
  trace::IntervalLog tl;
  std::vector<std::pair<Tick, Tick>> seen;
  trace::FixedWindows ws(100, &tl, [&](Tick s, Tick e, trace::Items* out) {
    seen.emplace_back(s, e);
    out->emplace_back("z.gauge", 2.0);
    out->emplace_back("a.gauge", 1.0);  // emission order, NOT sorted
  });
  // No registry: gauges-only windows (the serve engine's kind).
  ws.AdvanceTo(200, nullptr);
  ws.Finish(250, nullptr);
  ASSERT_EQ(tl.intervals().size(), 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<Tick, Tick>{0, 100}));
  EXPECT_EQ(seen[2], (std::pair<Tick, Tick>{200, 250}));
  const trace::Interval& w0 = tl.intervals()[0];
  EXPECT_TRUE(w0.deltas.empty());
  ASSERT_EQ(w0.gauges.size(), 2u);
  EXPECT_EQ(w0.gauges[0].first, "z.gauge");
  EXPECT_EQ(w0.gauges[1].first, "a.gauge");
}

TEST(FixedWindows, MaxWindowsCapCountsDroppedCuts) {
  StatRegistry reg;
  trace::IntervalLog tl(2);
  trace::FixedWindows ws(100, &tl, {});
  ws.AdvanceTo(400, &reg);  // four boundaries
  EXPECT_EQ(tl.intervals().size(), 2u);
  EXPECT_EQ(tl.dropped(), 2u);

  // A cap of 0 means no limit.
  trace::IntervalLog unbounded(0);
  trace::FixedWindows all(100, &unbounded, {});
  all.AdvanceTo(400, &reg);
  EXPECT_EQ(unbounded.intervals().size(), 4u);
  EXPECT_EQ(unbounded.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters.

trace::IntervalLog TinyTimeline() {
  trace::IntervalLog tl;
  trace::FixedWindows ws(NsToTicks(100), &tl, [](Tick, Tick, trace::Items* g) {
    g->emplace_back("tele.link.occupancy", 0.5);
  });
  StatRegistry reg;
  reg.Add("core.insts", 42.0);
  ws.AdvanceTo(NsToTicks(100), &reg);
  ws.Finish(NsToTicks(150), &reg);
  return tl;
}

TEST(TimelineExport, JsonlCarriesWindowFieldsAndOptionalPoint) {
  const trace::IntervalLog tl = TinyTimeline();
  const std::string plain = trace::WindowsToJsonl(tl);
  EXPECT_EQ(plain,
            "{\"window\":0,\"start_ns\":0.000,\"end_ns\":100.000,"
            "\"deltas\":{\"core.insts\":42},"
            "\"gauges\":{\"tele.link.occupancy\":0.5}}\n"
            "{\"window\":1,\"start_ns\":100.000,\"end_ns\":150.000,"
            "\"deltas\":{},\"gauges\":{\"tele.link.occupancy\":0.5}}\n");

  const std::string pointed = trace::WindowsToJsonl(tl, "GraphPIM@qps=1e6");
  EXPECT_EQ(pointed.rfind("{\"point\":\"GraphPIM@qps=1e6\",\"window\":0,", 0),
            0u)
      << pointed;
  EXPECT_TRUE(trace::WindowsToJsonl(trace::IntervalLog{}).empty());
}

TEST(TimelineExport, ChromeCountersRidePid3AndNamespacePoints) {
  const trace::IntervalLog tl = TinyTimeline();
  const trace::IntervalLog no_phases;
  const std::string ev = trace::ToChromeTrace(no_phases, nullptr, {{"", &tl}});
  EXPECT_NO_THROW(telemetry::FlattenRunJson(ev)) << ev;
  // Counter deltas get a tele: track prefix; gauges keep their names.
  EXPECT_NE(ev.find("{\"name\":\"tele:core.insts\",\"ph\":\"C\",\"pid\":3,"
                    "\"ts\":0.100000,\"args\":{\"delta\":42}}"),
            std::string::npos)
      << ev;
  EXPECT_NE(ev.find("\"name\":\"tele.link.occupancy\",\"ph\":\"C\",\"pid\":3,"
                    "\"ts\":0.150000,\"args\":{\"value\":0.5}"),
            std::string::npos);
  // A point prefixes every track of its windows; several points share one
  // traceEvents array.
  const std::string scoped =
      trace::ToChromeTrace(no_phases, nullptr, {{"p1", &tl}, {"p2", &tl}});
  EXPECT_NO_THROW(telemetry::FlattenRunJson(scoped)) << scoped;
  EXPECT_NE(scoped.find("\"name\":\"p1|tele:core.insts\""), std::string::npos);
  EXPECT_NE(scoped.find("\"name\":\"p2|tele.link.occupancy\""),
            std::string::npos);
  // JSONL output carries the same points as "point" fields.
  const std::string path = ::testing::TempDir() + "/gp_points.jsonl";
  trace::WriteTrace(no_phases, path, nullptr, {{"p1", &tl}, {"p2", &tl}});
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            trace::WindowsToJsonl(tl, "p1") + trace::WindowsToJsonl(tl, "p2"));
  std::remove(path.c_str());
}

TEST(TimelineExport, RequireSinkGatesOnWindowAndSink) {
  EXPECT_NO_THROW(trace::RequireSink(0.0, false, "hint"));
  EXPECT_NO_THROW(trace::RequireSink(100.0, true, "hint"));
  EXPECT_THROW(trace::RequireSink(100.0, false, "hint"), SimError);
}

// ---------------------------------------------------------------------------
// Config surface.

TEST(TelemetryConfig, KnobsParseRangeCheckAndCrossValidate) {
  Config cfg;
  cfg.Set("telemetry-window-ns", "2500");
  cfg.Set("telemetry.max_windows", "64");
  const core::SimConfig sc =
      core::SimConfig::FromConfig(cfg, core::Mode::kGraphPim);
  EXPECT_DOUBLE_EQ(sc.telemetry_window_ns, 2500.0);
  EXPECT_EQ(sc.telemetry_max_windows, 64u);

  Config neg;
  neg.Set("telemetry-window-ns", "-5");
  EXPECT_THROW(core::SimConfig::FromConfig(neg, core::Mode::kGraphPim),
               SimError);
  Config frac;
  frac.Set("telemetry-max-windows", "1.5");  // integer-only knob
  EXPECT_THROW(core::SimConfig::FromConfig(frac, core::Mode::kGraphPim),
               SimError);
  // Cross-field Validate(): a sub-nanosecond window cuts inside one tick.
  core::SimConfig sub = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sub.telemetry_window_ns = 0.5;
  EXPECT_THROW(sub.Validate(), SimError);
}

// ---------------------------------------------------------------------------
// End-to-end: windowed replay runs.

core::SimConfig WindowedConfig(double window_ns) {
  core::SimConfig sc = core::SimConfig::Scaled(core::Mode::kGraphPim);
  sc.num_cores = 4;
  sc.telemetry_window_ns = window_ns;
  return sc;
}

core::Experiment TinyExperiment() {
  core::Experiment::Options eo;
  eo.num_threads = 4;
  eo.seed = 3;
  eo.op_cap = 30'000;
  return core::Experiment("ldbc", 512, "bfs", eo);
}

TEST(TelemetryEndToEnd, WindowDeltasConserveRunTotals) {
  const core::Experiment exp = TinyExperiment();
  trace::IntervalLog tl;
  core::RunOptions ro;
  ro.timeline = &tl;
  const core::SimResults r = exp.Run(WindowedConfig(2000.0), ro);

  ASSERT_FALSE(tl.empty());
  double insts = 0.0;
  double atomics = 0.0;
  const std::vector<trace::Interval>& ws = tl.intervals();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const trace::Interval& w = ws[i];
    EXPECT_TRUE(w.name.empty());  // windows are numbered by position
    EXPECT_LE(w.start, w.end);
    if (i > 0) {
      EXPECT_EQ(w.start, ws[i - 1].end);
    }
    EXPECT_FALSE(w.gauges.empty());
    EXPECT_EQ(w.gauges[0].first, "tele.pou.inflight");
    for (const auto& [k, v] : w.deltas) {
      if (k == "core.insts") insts += v;
      if (k == "core.atomics") atomics += v;
    }
  }
  // Finish() flushes through the final tick, so per-window deltas sum to
  // the run totals exactly.
  EXPECT_DOUBLE_EQ(insts, static_cast<double>(r.insts));
  EXPECT_DOUBLE_EQ(atomics, static_cast<double>(r.atomics));
}

TEST(TelemetryEndToEnd, TimelineIsBitIdenticalAcrossReruns) {
  const core::Experiment exp = TinyExperiment();
  auto run = [&]() {
    trace::IntervalLog tl;
    core::RunOptions ro;
    ro.timeline = &tl;
    exp.Run(WindowedConfig(2000.0), ro);
    return trace::WindowsToJsonl(tl);
  };
  const std::string first = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(TelemetryEndToEnd, OffIsIdentityAndLeavesTimelineUntouched) {
  const core::Experiment exp = TinyExperiment();
  trace::IntervalLog tl;
  core::RunOptions ro;
  ro.timeline = &tl;
  const core::SimResults off = exp.Run(WindowedConfig(0.0), ro);
  EXPECT_TRUE(tl.empty());  // no window policy was ever constructed

  const core::SimResults plain = exp.Run(WindowedConfig(0.0));
  EXPECT_EQ(core::ToJson(off), core::ToJson(plain));
  // ...and a windowed run does not perturb the simulation itself.
  const core::SimResults on = exp.Run(WindowedConfig(2000.0), ro);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(core::ToJson(on), core::ToJson(off));
}

// ---------------------------------------------------------------------------
// Serve per-window telemetry.

serve::ServeParams WindowedServeParams(double window_ns, double slo_ns) {
  serve::ServeParams p;
  p.cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  p.cfg.telemetry_window_ns = window_ns;
  p.traffic.qps = 2e6;
  p.traffic.num_requests = 40;
  p.traffic.num_tenants = 2;
  p.traffic.num_vertices = 2048;
  p.traffic.seed = 7;
  p.query.max_hops = 2;
  p.query.max_frontier = 16;
  p.query.op_budget = 600;
  p.queue_depth = 8;
  p.slots = 2;
  p.batch_max = 4;
  p.slo_ns = slo_ns;
  return p;
}

serve::ServedGraph::Options TinyServedGraph() {
  serve::ServedGraph::Options go;
  go.profile = "ldbc";
  go.num_vertices = 2048;
  go.num_tenants = 2;
  go.seed = 7;
  return go;
}

TEST(ServeTelemetry, WindowGaugesConservePointTotals) {
  const serve::ServedGraph sg(TinyServedGraph());
  const serve::ServeParams p = WindowedServeParams(20'000.0, 10'000.0);
  const serve::ServePoint pt = serve::RunServePoint(sg, p);

  ASSERT_FALSE(pt.timeline.empty());
  double arrivals = 0.0;
  double completed = 0.0;
  double dropped = 0.0;
  bool saw_burn = false;
  for (const trace::Interval& w : pt.timeline.intervals()) {
    EXPECT_TRUE(w.deltas.empty());  // serve windows are gauges-only
    for (const auto& [k, v] : w.gauges) {
      if (k == "serve.arrivals") arrivals += v;
      if (k == "serve.completed") completed += v;
      if (k == "serve.dropped") dropped += v;
      if (k == "serve.tenant0.slo_burn" || k == "serve.tenant1.slo_burn") {
        saw_burn = true;
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
  EXPECT_DOUBLE_EQ(arrivals, static_cast<double>(pt.offered));
  EXPECT_DOUBLE_EQ(completed, static_cast<double>(pt.served));
  EXPECT_DOUBLE_EQ(dropped, static_cast<double>(pt.dropped));
  EXPECT_TRUE(saw_burn);

  // The heartbeat note renders the last window's gauges.
  const std::string note = serve::TimelineNote(pt.timeline);
  EXPECT_EQ(note.rfind("qps=", 0), 0u) << note;
  EXPECT_NE(note.find("p99="), std::string::npos);
  EXPECT_TRUE(serve::TimelineNote(trace::IntervalLog{}).empty());
}

TEST(ServeTelemetry, WindowTableIsJobsInvariantAndOffIsSilent) {
  const serve::ServedGraph sg(TinyServedGraph());
  const serve::ServeParams base = WindowedServeParams(20'000.0, 10'000.0);
  std::vector<std::pair<std::string, core::SimConfig>> configs = {
      {"GraphPIM", base.cfg}};
  core::SimConfig bl = core::SimConfig::Scaled(core::Mode::kBaseline);
  bl.telemetry_window_ns = base.cfg.telemetry_window_ns;
  configs.emplace_back("Baseline", bl);
  const std::vector<double> qps = {2e5, 2e6};

  const serve::ServeGridResult j1 = serve::RunServeGrid(sg, base, configs, qps, 1);
  const serve::ServeGridResult j4 = serve::RunServeGrid(sg, base, configs, qps, 4);
  const std::string t1 = serve::FormatServeTimeline(j1.points);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, serve::FormatServeTimeline(j4.points));
  EXPECT_NE(t1.find("tenant burn"), std::string::npos);

  // Telemetry off: no windows, and the table renders as "" so the serve
  // report stays byte-identical to pre-telemetry builds.
  serve::ServeParams off = base;
  off.cfg.telemetry_window_ns = 0.0;
  const serve::ServePoint pt = serve::RunServePoint(sg, off);
  EXPECT_TRUE(pt.timeline.empty());
  EXPECT_TRUE(serve::FormatServeTimeline({pt}).empty());
}

TEST(ServeTelemetry, MaxWindowsZeroIsUnbounded) {
  // telemetry.max_windows=0 means "no limit", as in the simulator, not
  // "keep nothing".
  const serve::ServedGraph sg(TinyServedGraph());
  serve::ServeParams p = WindowedServeParams(2'000.0, 10'000.0);
  p.cfg.telemetry_max_windows = 1'000'000;
  const serve::ServePoint capped = serve::RunServePoint(sg, p);
  p.cfg.telemetry_max_windows = 0;
  const serve::ServePoint unbounded = serve::RunServePoint(sg, p);
  ASSERT_GT(capped.timeline.intervals().size(), 1u);
  EXPECT_EQ(trace::WindowsToJsonl(unbounded.timeline),
            trace::WindowsToJsonl(capped.timeline));
  EXPECT_EQ(unbounded.timeline.dropped(), 0u);

  // A real cap keeps the first windows and counts the rest.
  p.cfg.telemetry_max_windows = 1;
  const serve::ServePoint one = serve::RunServePoint(sg, p);
  ASSERT_EQ(one.timeline.intervals().size(), 1u);
  EXPECT_EQ(one.timeline.dropped(), capped.timeline.intervals().size() - 1);
  EXPECT_NE(serve::FormatServeTimeline({one}).find("windows past "
                                                   "telemetry.max_windows"),
            std::string::npos);
}

TEST(ServeTelemetry, NegativeSloIsRejected) {
  const serve::ServedGraph sg(TinyServedGraph());
  serve::ServeParams p = WindowedServeParams(0.0, -1.0);
  EXPECT_THROW(serve::RunServePoint(sg, p), SimError);
  // The grid must fail fast on the orchestrating thread too — a throw
  // inside a pool worker would terminate the process.
  EXPECT_THROW(
      serve::RunServeGrid(sg, p, {{"GraphPIM", p.cfg}}, {2e5}, 1), SimError);
}

// ---------------------------------------------------------------------------
// Sweep journal timeline sidecar.

TEST(TelemetryJournal, SidecarsAreWrittenSkippedOnLoadAndJobsInvariant) {
  exec::SweepGrid grid;
  grid.workloads = {"bfs"};
  grid.profiles = {"ldbc"};
  grid.vertices = 512;
  grid.sim_threads = 2;
  grid.op_cap = 10'000;
  core::SimConfig c = core::SimConfig::Scaled(core::Mode::kGraphPim);
  c.num_cores = 2;
  c.telemetry_window_ns = 2000.0;
  grid.configs = {c, core::SimConfig::Scaled(core::Mode::kBaseline)};
  grid.configs[1].num_cores = 2;
  grid.configs[1].telemetry_window_ns = 2000.0;
  grid.config_names = {"graphpim", "baseline"};

  auto sidecars_with_jobs = [&](int jobs, const std::string& path) {
    std::remove(path.c_str());
    exec::SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.journal_path = path;
    exec::SweepResultTable t = exec::SweepRunner(opts).Run(grid);
    EXPECT_EQ(t.failed_rows, 0u);
    std::ifstream in(path);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.rfind("{\"timeline_for\":", 0) == 0) {
        // The flattener doubles as a strict-JSON check on the sidecar.
        EXPECT_NO_THROW(telemetry::FlattenRunJson(line)) << line;
        out += line;
        out += '\n';
      }
    }
    return out;
  };

  const std::string p1 = ::testing::TempDir() + "/gp_tele_j1.jsonl";
  const std::string p4 = ::testing::TempDir() + "/gp_tele_j4.jsonl";
  const std::string s1 = sidecars_with_jobs(1, p1);
  const std::string s4 = sidecars_with_jobs(4, p4);
  ASSERT_FALSE(s1.empty());
  // Rows are harvested in grid order at any --jobs, so the timeline
  // sidecars are bit-identical too.
  EXPECT_EQ(s1, s4);
  EXPECT_NE(s1.find("\"windows\":[{"), std::string::npos);

  // Sidecars are annotations: loading restores the rows and drops nothing.
  exec::JournalData jd;
  ASSERT_TRUE(exec::LoadJournal(p1, &jd));
  EXPECT_EQ(jd.rows.size(), 2u);
  EXPECT_EQ(jd.dropped_lines, 0u);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

// ---------------------------------------------------------------------------
// Comparison engine (tools/graphpim_compare).

TEST(CompareEngine, FlattensDocumentsAndJsonl) {
  const telemetry::FlatRun doc = telemetry::FlattenRunJson(
      R"({"a":{"b":2},"arr":[1,2],"flag":true,"name":"ignored"})");
  ASSERT_EQ(doc.values.size(), 4u);
  EXPECT_DOUBLE_EQ(*doc.Find("a.b"), 2.0);
  EXPECT_DOUBLE_EQ(*doc.Find("arr.0"), 1.0);
  EXPECT_DOUBLE_EQ(*doc.Find("arr.1"), 2.0);
  EXPECT_DOUBLE_EQ(*doc.Find("flag"), 1.0);  // booleans compare as 0/1
  EXPECT_EQ(doc.Find("name"), nullptr);      // strings identify, not measure

  // JSONL lines key by their identity fields.
  const telemetry::FlatRun tl = telemetry::FlattenRunJson(
      trace::WindowsToJsonl(TinyTimeline(), "p1"));
  EXPECT_NE(tl.Find("point.p1.window.0.deltas.core.insts"), nullptr);
  EXPECT_NE(tl.Find("point.p1.window.1.gauges.tele.link.occupancy"), nullptr);

  EXPECT_THROW(telemetry::FlattenRunJson("{\"a\":"), SimError);
  EXPECT_THROW(telemetry::FlattenRunJson(""), SimError);
}

TEST(CompareEngine, TolerancesGateDriftAndMissingKeys) {
  const telemetry::FlatRun base =
      telemetry::FlattenRunJson(R"({"cycles":1000,"ipc":2.0,"gone":1})");
  const telemetry::FlatRun head =
      telemetry::FlattenRunJson(R"({"cycles":1100,"ipc":2.0,"fresh":1})");

  telemetry::CompareOptions opts;
  opts.rel_tol = 0.02;
  telemetry::DriftReport rep = telemetry::CompareRuns(base, head, opts);
  EXPECT_EQ(rep.compared, 2u);
  EXPECT_EQ(rep.failed, 1u);  // cycles drifted 10% > 2%
  EXPECT_EQ(rep.missing, 2u);
  EXPECT_FALSE(rep.pass());
  // Failures sort first and the table renders them past any row cap.
  ASSERT_FALSE(rep.rows.empty());
  EXPECT_EQ(rep.rows[0].key, "cycles");
  const std::string table = telemetry::FormatDriftTable(rep, 0);
  EXPECT_NE(table.find("cycles"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  EXPECT_NE(table.find("+10.00%"), std::string::npos);

  // A per-key override (longest matching prefix) absorbs the drift...
  opts.per_key.emplace_back("cycles", 0.25);
  EXPECT_TRUE(telemetry::CompareRuns(base, head, opts).pass());
  // ...and --fail-on-missing turns one-sided keys into failures.
  opts.fail_on_missing = true;
  telemetry::DriftReport strict = telemetry::CompareRuns(base, head, opts);
  EXPECT_EQ(strict.failed, 2u);

  // Key filtering restricts the comparison surface.
  telemetry::CompareOptions keyed;
  keyed.keys = {"ipc"};
  telemetry::DriftReport only_ipc = telemetry::CompareRuns(base, head, keyed);
  EXPECT_EQ(only_ipc.compared, 1u);
  EXPECT_TRUE(only_ipc.pass());
}

}  // namespace
}  // namespace graphpim
