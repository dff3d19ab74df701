// perfbench — layer-timed benchmark harness for the GraphPIM simulator.
//
// Runs one named workload in this process, single-threaded, for a host-time
// budget, timing calls into each module's public functions from outside:
//
//   graph      GenerateProfile, the CsrGraph constructor
//   workloads  CreateWorkload (BfsWorkload for bfs) + Workload::Generate +
//              TraceBuilder::Take
//   core       RunSimulation (once per machine mode), FormatReport
//   serve      the ServedGraph constructor, RunServePoint (once per point)
//
// One iteration is the whole pipeline from an empty process state to the
// formatted report. Iterations repeat while the next one is expected to end
// within --seconds, and until at least kMinIters ran. With --trace=1
// iterations alternate between untraced and traced ones: traced iterations
// record a span around every call above (kept in memory, written as
// Chrome-trace JSON at exit). The first traced iteration then takes the
// per-layer measurements that do not belong in the timed pipeline: a
// replay under each Fig 7 machine the workload does not replay, the
// standalone mem/hmc component drives, the serve path's layers through
// standalone calls, and the fixed cost of a RunSimulation call.
//
// Before the first iteration and after every one, a burst of host-speed
// probes times a fixed integer kernel (see ProbeOnce below); run.py scales
// each iteration's host times by the probe times around it.
//
// Output: progress lines on stderr, and one JSON object on stdout holding
// every iteration's stage times, the probe times and the deterministic
// simulated outputs of every operation (one mode replay or one serve point).
// perfbench/run.py checks those outputs and turns the samples into the
// benchmark's metrics.
//
//   perfbench --workload=bfs-ldbc-1m [--seed=1] [--seconds=20]
//             [--trace=0|1] [--trace-out=FILE] [--tiny=0|1]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/string_util.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/sim_config.h"
#include "graph/csr.h"
#include "graph/generator.h"
#include "graph/region.h"
#include "hmc/topology.h"
#include "mem/hierarchy.h"
#include "serve/engine.h"
#include "serve/query.h"
#include "serve/slo.h"
#include "serve/traffic.h"
#include "workloads/bfs.h"
#include "workloads/trace.h"
#include "workloads/workload.h"

using namespace graphpim;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

// Seconds since process start.
double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// Workload table.

struct WorkloadSpec {
  std::string name;
  std::string algo;        // workloads:: name; empty for the serve workload
  VertexId vertices = 0;
  std::vector<core::Mode> modes;
  // Serve only.
  std::size_t requests = 0;
  std::vector<double> qps;
};

constexpr int kThreads = 16;
constexpr std::uint64_t kOpCap = 12'000'000;
constexpr double kMispredictRate = 0.06;  // Experiment::Options default
// Two iterations at least: every run checks that repeated iterations give
// identical simulated outputs, and a run with --trace=1 needs one untraced
// and one traced iteration.
constexpr int kMinIters = 2;

std::vector<WorkloadSpec> Workloads() {
  using core::Mode;
  return {
      {"bfs-ldbc-1m", "bfs", 1u << 20, {Mode::kBaseline, Mode::kGraphPim}, 0, {}},
      {"prank-ldbc-256k", "prank", 1u << 18,
       {Mode::kBaseline, Mode::kUPei, Mode::kGraphPim}, 0, {}},
      {"tc-ldbc-128k", "tc", 1u << 17, {Mode::kBaseline, Mode::kGraphPim}, 0, {}},
      {"serve-ldbc-64k", "", 1u << 16, {Mode::kBaseline, Mode::kGraphPim},
       2000, {2e5, 1e6, 5e6}},
  };
}

// Metric-name spelling of a mode.
std::string ModeId(core::Mode m) {
  switch (m) {
    case core::Mode::kBaseline: return "baseline";
    case core::Mode::kUPei: return "upei";
    case core::Mode::kGraphPim: return "graphpim";
    case core::Mode::kUncacheNoPim: return "uncache";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Host-speed probe.
//
// The CPUs of a shared host change speed over seconds to minutes, and a
// workload's time moves with them. The probe is a fixed integer kernel that
// touches no memory (an LCG feeding a shift-xor accumulator with a
// data-dependent branch). It belongs to the harness, so no change to the
// simulator moves it. A burst of kProbeBurst probes runs before the first
// iteration and after every iteration, outside every timed interval.
// run.py multiplies the host times of each iteration by kProbeNominalS over
// the median probe time of the bursts before and after it, which reports
// the iteration at the host speed where one probe takes kProbeNominalS.

constexpr std::uint64_t kProbeSteps = 8'000'000;
constexpr int kProbeBurst = 5;
// A round figure for the probe's median time on the reference host, a
// 4-vCPU Intel Xeon VM at 2.1 GHz, where medians of 19-23 ms were seen.
constexpr double kProbeNominalS = 0.020;

volatile std::uint64_t g_probe_sink = 0;

double ProbeOnce() {
  const double t0 = Now();
  std::uint64_t x = 1, a = 0;
  for (std::uint64_t i = 0; i < kProbeSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    a += (x >> 29) ^ (a << 3);
    if ((a & 1) != 0) a ^= x;
  }
  g_probe_sink = a;
  return Now() - t0;
}

std::vector<double> ProbeBurst() {
  std::vector<double> out;
  for (int i = 0; i < kProbeBurst; ++i) out.push_back(ProbeOnce());
  return out;
}

// ---------------------------------------------------------------------------
// Span recorder (traced iterations only).

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}

  int Begin(const std::string& name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, Now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Closes a span when the enclosing block ends (exceptions included).
class ScopedSpan {
 public:
  ScopedSpan(Recorder& rec, const std::string& name)
      : rec_(rec), id_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

// Layer of a span: its name up to the first '.', "harness" for the root.
std::string LayerOf(const Span& s) {
  const std::size_t dot = s.name.find('.');
  return dot == std::string::npos ? "harness" : s.name.substr(0, dot);
}

// Self time per layer: each span's duration minus what its children cover
// (children never overlap, the harness is single-threaded).
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i])] += spans[i].end - spans[i].start - child[i];
  }
  return out;
}

// Host cost of the spans of one traced iteration, measured directly: one
// Begin/End pair per span name on a scratch recorder, repeated kRounds
// times. (Traced minus untraced total_s would bury this cost in host noise.)
double TracingOverheadS(const std::vector<Span>& spans) {
  constexpr int kRounds = 2000;
  Recorder rec(true);
  const double t0 = Now();
  for (int r = 0; r < kRounds; ++r) {
    for (const Span& s : spans) rec.End(rec.Begin(s.name));
  }
  return (Now() - t0) / kRounds;
}

// ---------------------------------------------------------------------------
// Iteration results.

struct OpOutcome {
  std::string op;
  std::vector<std::pair<std::string, std::string>> values;
  std::string error;  // non-empty when the call threw
};

struct IterResult {
  bool traced = false;
  double setup_s = 0.0;
  double replay_s = 0.0;
  double report_s = 0.0;
  double total_s = 0.0;
  std::uint64_t sim_ops = 0;
  std::vector<OpOutcome> ops;
  std::vector<Span> spans;
  std::map<std::string, double> layers;  // traced iterations only
};

std::string U64(std::uint64_t v) { return std::to_string(v); }
std::string Dbl(double v) { return StrFormat("%.17g", v); }

double SpanSeconds(const Recorder& rec, const std::string& name) {
  double s = 0.0;
  for (const Span& sp : rec.spans()) {
    if (sp.name == name) s += sp.end - sp.start;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Component drives: the memory ops of a replayed trace fed straight into a
// standalone cache hierarchy over its own cube network, then the PMR
// atomics and the hierarchy's memory misses fed into a standalone cube
// network. The tick schedule is synthetic (each core issues its next
// memory op when the previous one completes; the cube drive issues one
// request per kHmcGapNs), so these give host cost per call, not simulated
// timing.

constexpr std::uint64_t kMaxDriveOps = 4'000'000;
constexpr double kHmcGapNs = 1.0;

void DriveComponents(const workloads::Trace& trace, Addr pmr_base, Addr pmr_end,
                     std::map<std::string, double>* layers) {
  struct MemOp {
    int core;
    cpu::MicroOp op;
  };
  // Round-robin interleave of the per-core streams, memory ops only.
  std::vector<MemOp> ops;
  const core::SimConfig base = core::SimConfig::Scaled(core::Mode::kBaseline);
  const int cores = std::min(static_cast<int>(trace.streams.size()), base.num_cores);
  std::vector<std::size_t> pos(static_cast<std::size_t>(cores), 0);
  for (bool more = true; more && ops.size() < kMaxDriveOps;) {
    more = false;
    for (int c = 0; c < cores && ops.size() < kMaxDriveOps; ++c) {
      const cpu::UopStream& s = trace.streams[static_cast<std::size_t>(c)];
      std::size_t& p = pos[static_cast<std::size_t>(c)];
      while (p < s.size()) {
        const cpu::MicroOp op = s[p++];
        if (op.type == cpu::OpType::kLoad || op.type == cpu::OpType::kStore ||
            op.type == cpu::OpType::kAtomic) {
          ops.push_back({c, op});
          break;
        }
      }
      if (p < s.size()) more = true;
    }
  }

  StatRegistry mstats;
  hmc::HmcNetwork mnet(base.hmc, &mstats, pmr_base, pmr_end);
  mem::CacheHierarchy hier(base.num_cores, base.cache, &mnet, &mstats);
  std::vector<Tick> ready(static_cast<std::size_t>(cores), 0);
  std::vector<std::uint8_t> missed(ops.size(), 0);
  const double mem_start = Now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const MemOp& m = ops[i];
    mem::AccessType type = mem::AccessType::kRead;
    if (m.op.type == cpu::OpType::kStore) type = mem::AccessType::kWrite;
    if (m.op.type == cpu::OpType::kAtomic) type = mem::AccessType::kAtomicRmw;
    Tick& t = ready[static_cast<std::size_t>(m.core)];
    const mem::AccessResult r = hier.Access(m.core, type, m.op.addr, t, m.op.comp);
    t = std::max(t + 1, r.complete);
    missed[i] = r.hit_level == 0 ? 1 : 0;
  }
  const double mem_s = Now() - mem_start;

  struct HmcReq {
    Addr addr;
    hmc::AtomicOp aop;
    bool atomic;
    bool want_return;
  };
  std::vector<HmcReq> reqs;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const cpu::MicroOp& op = ops[i].op;
    if (op.type == cpu::OpType::kAtomic && op.addr >= pmr_base && op.addr < pmr_end) {
      reqs.push_back({op.addr, op.aop, true, op.WantReturn()});
    } else if (missed[i] != 0) {
      reqs.push_back({op.addr, op.aop, false, false});
    }
  }
  const core::SimConfig pim = core::SimConfig::Scaled(core::Mode::kGraphPim);
  StatRegistry hstats;
  hmc::HmcNetwork hnet(pim.hmc, &hstats, pmr_base, pmr_end);
  const double hmc_start = Now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const HmcReq& q = reqs[i];
    const Tick when = NsToTicks(kHmcGapNs * static_cast<double>(i));
    if (q.atomic) {
      hnet.Atomic(q.addr, q.aop, hmc::Value16{}, q.want_return, when);
    } else {
      hnet.Read(q.addr, base.cache.line_bytes, when);
    }
  }
  const double hmc_s = Now() - hmc_start;

  auto& L = *layers;
  L["mem.calls"] = static_cast<double>(ops.size());
  L["mem.access_ns"] = ops.empty() ? 0.0 : mem_s * 1e9 / static_cast<double>(ops.size());
  L["mem.l1_misses"] = mstats.Get("cache.l1_misses");
  L["mem.l3_misses"] = mstats.Get("cache.l3_misses");
  L["mem.coherence_invals"] = mstats.Get("cache.coherence_invals");
  L["hmc.calls"] = static_cast<double>(reqs.size());
  L["hmc.access_ns"] = reqs.empty() ? 0.0 : hmc_s * 1e9 / static_cast<double>(reqs.size());
  L["hmc.reads"] = hstats.Get("hmc.reads");
  L["hmc.atomics"] = hstats.Get("hmc.atomics");
  L["hmc.req_flits"] = hstats.Get("hmc.req_flits");
}

// Host cost of one RunSimulation call on a minimal trace (16 streams of 10
// loads): the fixed set-up cost the serve path pays once per batch.
double ReplayFixedUs() {
  const graph::AddressSpace space;
  workloads::Trace t;
  t.streams.resize(kThreads);
  for (int s = 0; s < kThreads; ++s) {
    for (int k = 0; k < 10; ++k) {
      cpu::MicroOp op;
      op.type = cpu::OpType::kLoad;
      op.addr = graph::AddressSpace::kMetaBase + 64 * static_cast<Addr>(s * 10 + k);
      t.streams[static_cast<std::size_t>(s)].push_back(op);
    }
  }
  const core::SimConfig cfg = core::SimConfig::Scaled(core::Mode::kGraphPim);
  std::vector<double> us;
  for (int i = 0; i < 205; ++i) {
    const double t0 = Now();
    core::RunSimulation(t, cfg, space.pmr_base(), space.pmr_end(), core::RunOptions{});
    if (i >= 5) us.push_back((Now() - t0) * 1e6);  // first calls warm up
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// The Fig 7 machines: every traced run reports a replay time for each.
const core::Mode kReplayModes[] = {core::Mode::kBaseline, core::Mode::kUPei,
                                   core::Mode::kGraphPim};

void RecordReplay(core::Mode m, double seconds, std::uint64_t insts,
                  std::map<std::string, double>* layers) {
  const std::string id = ModeId(m);
  (*layers)["core.replay_s." + id] = seconds;
  (*layers)["core.replay_ns_per_op." + id] =
      insts == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(insts);
}

// A standalone RunSimulation of `trace` under mode `m`, outside the timed
// pipeline (for the modes a workload's pipeline does not replay).
void TimeReplay(const workloads::Trace& trace, Addr pmr_base, Addr pmr_end,
                core::Mode m, std::map<std::string, double>* layers) {
  const double t0 = Now();
  const core::SimResults r = core::RunSimulation(
      trace, core::SimConfig::Scaled(m), pmr_base, pmr_end, core::RunOptions{});
  RecordReplay(m, Now() - t0, r.insts, layers);
}

// The workload object for `algo`. bfs starts, as in the tools, at vertex 0,
// but vertex ids are a seeded random permutation, so for a few seeds vertex
// 0 has no out-edges and bfs would replay a near-empty trace. The benchmark
// then starts at the first vertex that has out-edges. At the pinned seed
// that is vertex 0 itself.
std::unique_ptr<workloads::Workload> MakeWorkload(const std::string& algo,
                                                  const graph::CsrGraph& g) {
  if (algo != "bfs") return workloads::CreateWorkload(algo);
  VertexId root = 0;
  while (root + 1 < g.num_vertices() && g.OutDegree(root) == 0) ++root;
  return std::make_unique<workloads::BfsWorkload>(root);
}

// ---------------------------------------------------------------------------
// One iteration of a trace workload: generate, CSR, tracegen, one replay
// per mode, report.

IterResult RunTraceIteration(const WorkloadSpec& w, std::uint64_t seed,
                             bool traced, bool extras) {
  IterResult it;
  it.traced = traced;
  Recorder rec(traced);
  const double t0 = Now();
  const int root = rec.Begin("iteration");

  graph::EdgeList el;
  graph::AddressSpace space;
  std::unique_ptr<graph::CsrGraph> g;
  workloads::Trace trace;
  std::string setup_error;
  try {
    {
      ScopedSpan s(rec, "graph.generate");
      el = graph::GenerateProfile("ldbc", w.vertices, seed);
    }
    {
      ScopedSpan s(rec, "graph.csr");
      g = std::make_unique<graph::CsrGraph>(el, space, false);
    }
    ScopedSpan s(rec, "workloads.tracegen");
    std::unique_ptr<workloads::Workload> wl;
    {
      ScopedSpan c(rec, "workloads.create");
      wl = MakeWorkload(w.algo, *g);
    }
    workloads::TraceBuilder tb(kThreads, &space, kMispredictRate, seed);
    tb.SetOpCap(kOpCap);
    {
      ScopedSpan c(rec, "workloads.generate");
      wl->Generate(*g, space, tb);
    }
    ScopedSpan c(rec, "workloads.take");
    trace = tb.Take();
  } catch (const std::exception& e) {
    setup_error = std::string("setup: ") + e.what();
  }
  const double t_setup = Now();

  std::vector<core::SimResults> results;
  std::vector<core::Mode> replayed;  // the mode of each entry of `results`
  for (core::Mode m : w.modes) {
    OpOutcome o;
    o.op = ModeId(m);
    if (!setup_error.empty()) {
      o.error = setup_error;
      it.ops.push_back(std::move(o));
      continue;
    }
    try {
      ScopedSpan s(rec, "core.replay." + ModeId(m));
      core::SimResults r = core::RunSimulation(trace, core::SimConfig::Scaled(m),
                                               space.pmr_base(), space.pmr_end(),
                                               core::RunOptions{});
      o.values = {{"cycles", U64(r.cycles)},
                  {"insts", U64(r.insts)},
                  {"atomics", U64(r.atomics)},
                  {"offloaded_atomics", U64(r.offloaded_atomics)},
                  {"trace_ops", U64(trace.TotalOps())},
                  {"trace_bytes", U64(trace.BytesUsed())}};
      it.sim_ops += r.insts;
      results.push_back(std::move(r));
      replayed.push_back(m);
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    it.ops.push_back(std::move(o));
  }
  const double t_replay = Now();

  std::size_t report_bytes = 0;
  {
    ScopedSpan s(rec, "core.report");
    for (const core::SimResults& r : results) report_bytes += core::FormatReport(r).size();
  }
  rec.End(root);
  const double t_end = Now();
  it.setup_s = t_setup - t0;
  it.replay_s = t_replay - t_setup;
  it.report_s = t_end - t_replay;
  it.total_s = t_end - t0;
  if (report_bytes == 0 && !results.empty()) {
    for (OpOutcome& o : it.ops) o.error = "empty report";
  }

  if (traced) {
    auto& L = it.layers;
    L["graph.generate_s"] = SpanSeconds(rec, "graph.generate");
    L["graph.csr_s"] = SpanSeconds(rec, "graph.csr");
    L["graph.edges"] = g ? static_cast<double>(g->num_edges()) : 0.0;
    L["workloads.tracegen_s"] = SpanSeconds(rec, "workloads.tracegen");
    L["workloads.trace_ops"] = static_cast<double>(trace.TotalOps());
    L["workloads.trace_bytes"] = static_cast<double>(trace.BytesUsed());
    for (std::size_t i = 0; i < results.size(); ++i) {
      RecordReplay(replayed[i], SpanSeconds(rec, "core.replay." + ModeId(replayed[i])),
                   results[i].insts, &L);
    }
    L["core.report_ms"] = SpanSeconds(rec, "core.report") * 1e3;
    it.spans = rec.spans();
    if (extras && setup_error.empty()) {
      for (core::Mode m : kReplayModes) {
        if (std::find(w.modes.begin(), w.modes.end(), m) == w.modes.end()) {
          TimeReplay(trace, space.pmr_base(), space.pmr_end(), m, &L);
        }
      }
      DriveComponents(trace, space.pmr_base(), space.pmr_end(), &L);
    }
  }
  return it;
}

// The serve path's layers measured by standalone calls on the workload's
// own inputs, outside the timed pipeline: the generate and CSR calls the
// ServedGraph constructor makes, the query traces of the whole schedule
// emitted into one 16-stream trace (the tracegen each RunServePoint does
// per batch), that trace replayed once per mode (steady-state replay
// without the per-batch set-up cost), and the component drives on it.
void DecomposeServe(const WorkloadSpec& w, std::uint64_t seed,
                    const serve::ServedGraph& sg, const serve::ServeParams& base,
                    std::map<std::string, double>* layers) {
  auto& L = *layers;
  double t0 = Now();
  const graph::EdgeList el = graph::GenerateProfile("ldbc", w.vertices, seed);
  L["graph.generate_s"] = Now() - t0;
  graph::AddressSpace space;
  t0 = Now();
  const graph::CsrGraph g(el, space);
  L["graph.csr_s"] = Now() - t0;
  L["graph.edges"] = static_cast<double>(g.num_edges());

  serve::TrafficSpec spec = base.traffic;
  spec.num_vertices = sg.graph().num_vertices();
  spec.qps = w.qps.front();
  t0 = Now();
  const std::vector<serve::ServeRequest> sched = serve::GenerateSchedule(spec);
  workloads::TraceBuilder tb(kThreads, &sg.space(), kMispredictRate, seed);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    serve::EmitQuery(sg, sched[i], base.query, tb, static_cast<int>(i % kThreads));
  }
  const workloads::Trace trace = tb.Take();
  L["workloads.tracegen_s"] = Now() - t0;
  L["workloads.trace_ops"] = static_cast<double>(trace.TotalOps());
  L["workloads.trace_bytes"] = static_cast<double>(trace.BytesUsed());
  for (core::Mode m : kReplayModes) {
    TimeReplay(trace, sg.pmr_base(), sg.pmr_end(), m, layers);
  }
  DriveComponents(trace, sg.pmr_base(), sg.pmr_end(), layers);
}

// ---------------------------------------------------------------------------
// One iteration of the serve workload: the resident graph, one
// RunServePoint per (mode, qps) point, the saturation report.

IterResult RunServeIteration(const WorkloadSpec& w, std::uint64_t seed,
                             bool traced, bool extras) {
  IterResult it;
  it.traced = traced;
  Recorder rec(traced);
  const double t0 = Now();
  const int root = rec.Begin("iteration");

  serve::ServedGraph::Options go;
  go.profile = "ldbc";
  go.num_vertices = w.vertices;
  go.num_tenants = 2;
  go.seed = seed;
  std::unique_ptr<serve::ServedGraph> sg;
  std::string setup_error;
  try {
    ScopedSpan s(rec, "serve.graph");
    sg = std::make_unique<serve::ServedGraph>(go);
  } catch (const std::exception& e) {
    setup_error = std::string("setup: ") + e.what();
  }
  const double t_setup = Now();

  serve::ServeParams base;
  base.traffic.num_requests = w.requests;
  base.traffic.num_tenants = go.num_tenants;
  base.traffic.seed = seed;
  std::vector<serve::ServePoint> points;
  for (core::Mode m : w.modes) {
    for (double qps : w.qps) {
      OpOutcome o;
      o.op = StrFormat("%s@qps=%g", ModeId(m).c_str(), qps);
      if (!setup_error.empty()) {
        o.error = setup_error;
        it.ops.push_back(std::move(o));
        continue;
      }
      try {
        ScopedSpan s(rec, "serve.point." + o.op);
        serve::ServeParams p = base;
        p.cfg = core::SimConfig::Scaled(m);
        p.traffic.qps = qps;
        serve::ServePoint pt = serve::RunServePoint(*sg, p);
        pt.config_name = core::ToString(m);
        o.values = {{"served", U64(pt.served)},
                    {"dropped", U64(pt.dropped)},
                    {"batches", U64(pt.batches)},
                    {"replayed_ops", U64(pt.replayed_ops)},
                    {"p50_ns", Dbl(pt.p50_ns)},
                    {"p99_ns", Dbl(pt.p99_ns)},
                    {"achieved_qps", Dbl(pt.achieved_qps)}};
        it.sim_ops += pt.replayed_ops;
        points.push_back(std::move(pt));
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      it.ops.push_back(std::move(o));
    }
  }
  const double t_replay = Now();

  std::size_t report_bytes = 0;
  if (!points.empty()) {
    ScopedSpan s(rec, "core.report");
    report_bytes = serve::FormatSaturationTable(points).size() +
                   serve::FormatKneeSummary(points).size();
  }
  rec.End(root);
  const double t_end = Now();
  it.setup_s = t_setup - t0;
  it.replay_s = t_replay - t_setup;
  it.report_s = t_end - t_replay;
  it.total_s = t_end - t0;
  if (report_bytes == 0 && !points.empty()) {
    for (OpOutcome& o : it.ops) o.error = "empty report";
  }

  if (traced) {
    auto& L = it.layers;
    std::uint64_t batches = 0, replayed = 0;
    for (const serve::ServePoint& p : points) {
      batches += p.batches;
      replayed += p.replayed_ops;
    }
    double point_s = 0.0;
    for (const Span& sp : rec.spans()) {
      if (sp.name.rfind("serve.point.", 0) == 0) point_s += sp.end - sp.start;
    }
    L["serve.graph_s"] = SpanSeconds(rec, "serve.graph");
    L["serve.point_s"] = points.empty() ? 0.0 : point_s / static_cast<double>(points.size());
    L["serve.batches"] = static_cast<double>(batches);
    L["serve.replayed_ops"] = static_cast<double>(replayed);
    L["serve.host_us_per_batch"] =
        batches == 0 ? 0.0 : point_s * 1e6 / static_cast<double>(batches);
    L["core.report_ms"] = SpanSeconds(rec, "core.report") * 1e3;
    it.spans = rec.spans();
    if (extras && sg) DecomposeServe(w, seed, *sg, base, &L);
  }
  return it;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += JsonString(k) + ":" + Dbl(v);
  }
  return out + "}";
}

std::string IterJson(const IterResult& it) {
  std::string out = StrFormat(
      "{\"traced\":%d,\"setup_s\":%s,\"replay_s\":%s,\"report_s\":%s,"
      "\"total_s\":%s,\"sim_ops\":%llu,\"ops\":[",
      it.traced ? 1 : 0, Dbl(it.setup_s).c_str(), Dbl(it.replay_s).c_str(),
      Dbl(it.report_s).c_str(), Dbl(it.total_s).c_str(),
      static_cast<unsigned long long>(it.sim_ops));
  for (std::size_t i = 0; i < it.ops.size(); ++i) {
    const OpOutcome& o = it.ops[i];
    if (i > 0) out += ",";
    out += "{\"op\":" + JsonString(o.op) + ",\"error\":" + JsonString(o.error) +
           ",\"values\":{";
    for (std::size_t j = 0; j < o.values.size(); ++j) {
      if (j > 0) out += ",";
      out += JsonString(o.values[j].first) + ":" + JsonString(o.values[j].second);
    }
    out += "}}";
  }
  return out + "]}";
}

// Chrome-trace JSON of the traced iterations' spans: one X event per span,
// timestamps in microseconds since process start, the causing span named in
// args.parent. Each traced iteration gets its own tid.
bool WriteChromeTrace(const std::vector<IterResult>& iters, const std::string& path) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const IterResult& it : iters) {
    if (!it.traced) continue;
    ++tid;
    for (const Span& s : it.spans) {
      if (!first) out += ",";
      first = false;
      const std::string parent =
          s.parent < 0 ? "" : it.spans[static_cast<std::size_t>(s.parent)].name;
      out += StrFormat(
          "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%s}}",
          JsonString(s.name).c_str(), JsonString(LayerOf(s)).c_str(), tid,
          s.start * 1e6, (s.end - s.start) * 1e6, JsonString(parent).c_str());
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::runtime_error("bad argument '" + arg + "' (expected --key=value)");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      a.workload = val;
    } else if (key == "seed") {
      a.seed = std::stoull(val);
    } else if (key == "seconds") {
      a.seconds = std::stod(val);
    } else if (key == "trace") {
      a.trace = val == "1";
    } else if (key == "trace-out") {
      a.trace_out = val;
    } else if (key == "tiny") {
      a.tiny = val == "1";
    } else {
      throw std::runtime_error("unknown flag --" + key);
    }
  }
  return a;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec w;
  bool found = false;
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == args.workload) {
      w = s;
      found = true;
    }
  }
  if (!found) throw std::runtime_error("unknown workload '" + args.workload + "'");
  if (args.tiny) {  // smoke-test scale
    w.vertices >>= 6;
    w.requests = std::min<std::size_t>(w.requests, 100);
  }
  const bool serve = w.algo.empty();

  // Untraced and traced iterations alternate in a traced run, so both see
  // the same machine conditions; an untraced run has untraced ones only.
  // An iteration starts only if it is expected (from the previous one) to
  // end within the budget, so a run lasts about --seconds.
  std::vector<IterResult> iters;
  int untraced = 0, traced = 0;
  const double deadline = Now() + args.seconds;
  double last_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<std::vector<double>> probes = {ProbeBurst()};
  while (Now() + last_s <= deadline ||
         static_cast<int>(iters.size()) < kMinIters ||
         (args.trace && traced == 0)) {
    const double start = Now();
    const bool tr = args.trace && traced < untraced;
    // The first traced iteration also takes the measurements that stay
    // outside the timed pipeline.
    const bool extras = tr && traced == 0;
    IterResult it = serve ? RunServeIteration(w, args.seed, tr, extras)
                          : RunTraceIteration(w, args.seed, tr, extras);
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu iter=%zu%s setup=%.3fs replay=%.3fs "
                 "report=%.4fs total=%.3fs\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 iters.size(), tr ? " traced" : "", it.setup_s, it.replay_s,
                 it.report_s, it.total_s);
    (tr ? traced : untraced) += 1;
    iters.push_back(std::move(it));
    if (iters.size() == 1) {
      // The peak of one pipeline in a fresh process, as a one-shot run sees
      // it; later iterations reuse freed heap, so their peak depends on
      // allocator history rather than on the program.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    probes.push_back(ProbeBurst());
    last_s = Now() - start;
  }

  std::map<std::string, double> layers;
  if (args.trace) {
    // Per-layer values come from the first traced iteration; self times
    // and the traced total_s are medians over all of them.
    std::vector<double> traced_total;
    std::map<std::string, std::vector<double>> self;
    const std::vector<Span>* first_spans = nullptr;
    for (const IterResult& it : iters) {
      if (!it.traced) continue;
      if (layers.empty()) {
        layers = it.layers;
        first_spans = &it.spans;
      }
      traced_total.push_back(it.total_s);
      for (const auto& [layer, s] : SelfTimes(it.spans)) self[layer].push_back(s);
    }
    for (const auto& [layer, v] : self) layers["trace.self_s." + layer] = Median(v);
    layers["trace.total_s"] = Median(traced_total);
    layers["trace.overhead_s"] = first_spans ? TracingOverheadS(*first_spans) : 0.0;
    layers["core.replay_fixed_us"] = ReplayFixedUs();
    if (!args.trace_out.empty() && !WriteChromeTrace(iters, args.trace_out)) {
      throw std::runtime_error("cannot write trace file '" + args.trace_out + "'");
    }
  }

  std::string out = StrFormat(
      "{\"workload\":%s,\"seed\":%llu,\"tiny\":%d,\"peak_rss_mb\":%s,"
      "\"probe_nominal_s\":%s,\"probe_s\":[",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.tiny ? 1 : 0, Dbl(peak_rss_mb).c_str(), Dbl(kProbeNominalS).c_str());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out += i > 0 ? ",[" : "[";
    for (std::size_t j = 0; j < probes[i].size(); ++j) {
      out += (j > 0 ? "," : "") + Dbl(probes[i][j]);
    }
    out += "]";
  }
  out += "],\"iterations\":[";
  for (std::size_t i = 0; i < iters.size(); ++i) {
    if (i > 0) out += ",";
    out += IterJson(iters[i]);
  }
  out += "],\"layers\":" + JsonMap(layers) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
