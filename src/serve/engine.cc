#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>

#include "common/log.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/runner.h"
#include "exec/thread_pool.h"
#include "serve/slo.h"

namespace graphpim::serve {

namespace {

// Salt for the per-batch TraceBuilder seed (branch-mispredict sampling):
// value-derived from the traffic seed and the batch's first request id, so
// batch composition — not scheduling — decides the stream.
constexpr std::uint64_t kBatchSalt = 0x5365727665426174ULL;  // "ServeBat"

// The one parameter check of a serve point. Flag-reachable parameters
// throw SimError (caught at the tool's main), never GP_CHECK-panic; the
// grid runs it per config on the orchestrating thread, before any point
// is submitted, rather than deep inside a pool worker.
void CheckServeParams(const ServedGraph& sg, const ServeParams& params) {
  if (params.slots < 1) GP_THROW("serve needs at least one dispatch slot");
  if (params.batch_max < 1) GP_THROW("serve needs batch_max >= 1");
  if (params.batch_max > static_cast<std::size_t>(params.cfg.num_cores)) {
    GP_THROW("batch_max ", params.batch_max, " exceeds the config's ",
             params.cfg.num_cores, " cores: a batch maps one query per core");
  }
  if (params.queue_depth < 1) GP_THROW("serve needs queue_depth >= 1");
  if (params.slo_ns < 0.0) {
    GP_THROW("serve slo_ns must be >= 0 (got ", params.slo_ns, ")");
  }
  if (!(params.dispatch_ns >= 0.0)) {
    GP_THROW("serve dispatch_ns must be >= 0 (got ", params.dispatch_ns, ")");
  }
  // A kind can be in the mix only if the resident graph can serve it: knn
  // needs the shared ANN index, which is a graph-build-time decision.
  for (const MixEntry& me : params.traffic.mix) {
    if (me.second > 0.0 && me.first == "knn" && !sg.has_ann()) {
      GP_THROW("traffic mix includes knn but the served graph has no ANN "
               "index: build the ServedGraph with enable_ann");
    }
  }
}

}  // namespace

const char* ToString(DropPolicy p) {
  return p == DropPolicy::kTail ? "tail" : "head";
}

DropPolicy ParseDropPolicy(const std::string& s) {
  if (s == "tail") return DropPolicy::kTail;
  if (s == "head") return DropPolicy::kHead;
  GP_THROW("unknown drop policy '", s, "' (want tail|head)");
}

ServePoint RunServePoint(const ServedGraph& sg, const ServeParams& params) {
  CheckServeParams(sg, params);

  TrafficSpec ts = params.traffic;
  ts.num_vertices = sg.graph().num_vertices();
  const std::vector<ServeRequest> sched = GenerateSchedule(ts);

  ServePoint pt;
  pt.qps = ts.qps;
  pt.offered = sched.size();
  pt.tenants.resize(sg.num_tenants());

  // --- virtual-time queueing simulation -------------------------------
  struct Flight {
    Tick done = 0;
    std::vector<std::size_t> reqs;  // indices into sched
  };
  std::vector<Flight> flights;  // <= slots entries, unsorted (slots small)
  std::deque<std::size_t> queue;
  std::vector<double> lat_ns;           // all served latencies
  std::vector<std::vector<double>> tenant_lat(sg.num_tenants());
  std::uint64_t depth_sum = 0;          // queue depth sampled per arrival
  double busy_ns = 0.0;                 // summed batch service time
  Tick last_completion = 0;

  // --- telemetry windows (DESIGN.md §17) ------------------------------
  // Fixed-width windows over the point's virtual time, fed the time of
  // each event before it is processed, so the queue / in-flight gauges
  // sample the state the machine held as the boundary passed. The window
  // accumulators below drain into the gauges of the window that cuts
  // them. Purely value-derived: bit-identical across reruns and --jobs.
  struct WinAcc {
    std::uint64_t arrivals = 0, admitted = 0, dropped = 0, completed = 0;
    std::vector<double> lat_ns;
    std::vector<std::uint64_t> served, drops, viol;  // per tenant
  };
  WinAcc acc;
  auto reset_acc = [&]() {
    acc = WinAcc{};
    acc.served.resize(sg.num_tenants());
    acc.drops.resize(sg.num_tenants());
    acc.viol.resize(sg.num_tenants());
  };
  reset_acc();
  auto window_gauges = [&](Tick start, Tick end, trace::Items* out) {
    WinAcc a = std::move(acc);
    reset_acc();
    std::sort(a.lat_ns.begin(), a.lat_ns.end());
    const double span_s = TicksToNs(end - start) * 1e-9;
    trace::Items& g = *out;
    g.emplace_back("serve.arrivals", static_cast<double>(a.arrivals));
    g.emplace_back("serve.admitted", static_cast<double>(a.admitted));
    g.emplace_back("serve.dropped", static_cast<double>(a.dropped));
    g.emplace_back("serve.completed", static_cast<double>(a.completed));
    g.emplace_back("serve.p50_ns", QuantileSorted(a.lat_ns, 0.50));
    g.emplace_back("serve.p99_ns", QuantileSorted(a.lat_ns, 0.99));
    g.emplace_back("serve.achieved_qps",
                   span_s > 0.0
                       ? static_cast<double>(a.completed) / span_s
                       : 0.0);
    g.emplace_back("serve.queue_depth", static_cast<double>(queue.size()));
    g.emplace_back("serve.inflight", static_cast<double>(flights.size()));
    for (std::uint32_t t = 0; t < sg.num_tenants(); ++t) {
      g.emplace_back(StrFormat("serve.tenant%u.served", t),
                     static_cast<double>(a.served[t]));
      g.emplace_back(StrFormat("serve.tenant%u.dropped", t),
                     static_cast<double>(a.drops[t]));
      g.emplace_back(StrFormat("serve.tenant%u.slo_burn", t),
                     a.served[t] == 0
                         ? 0.0
                         : static_cast<double>(a.viol[t]) /
                               static_cast<double>(a.served[t]));
    }
  };
  std::unique_ptr<trace::FixedWindows> windows;
  if (params.cfg.telemetry_window_ns > 0.0) {
    pt.timeline = trace::IntervalLog(params.cfg.telemetry_max_windows);
    windows = std::make_unique<trace::FixedWindows>(
        NsToTicks(params.cfg.telemetry_window_ns), &pt.timeline,
        window_gauges);
  }

  auto start_batches = [&](Tick now) {
    while (flights.size() < static_cast<std::size_t>(params.slots) &&
           !queue.empty()) {
      Flight fl;
      while (fl.reqs.size() < params.batch_max && !queue.empty()) {
        fl.reqs.push_back(queue.front());
        queue.pop_front();
      }
      // One stream per query: batched queries contend inside one replay.
      const std::uint64_t batch_seed =
          SplitMix64(ts.seed ^ kBatchSalt ^ sched[fl.reqs[0]].id).Next();
      workloads::TraceBuilder tb(static_cast<int>(fl.reqs.size()), &sg.space(),
                                 /*mispredict_rate=*/0.06, batch_seed);
      for (std::size_t j = 0; j < fl.reqs.size(); ++j) {
        EmitQuery(sg, sched[fl.reqs[j]], params.query, tb,
                  static_cast<int>(j));
      }
      const workloads::Trace tr = tb.Take();
      pt.replayed_ops += tr.TotalOps();
      core::SimResults res = core::RunSimulation(
          tr, params.cfg, sg.pmr_base(), sg.pmr_end(), core::RunOptions{});
      pt.raw.Merge(res.raw);
      const double service_ns = res.seconds * 1e9 + params.dispatch_ns;
      busy_ns += service_ns;
      fl.done = now + NsToTicks(service_ns);
      if (fl.done > last_completion) last_completion = fl.done;
      flights.push_back(std::move(fl));
      ++pt.batches;
    }
  };

  std::size_t next_arrival = 0;
  while (next_arrival < sched.size() || !flights.empty()) {
    // Earliest in-flight completion (if any).
    std::size_t done_idx = flights.size();
    for (std::size_t f = 0; f < flights.size(); ++f) {
      if (done_idx == flights.size() || flights[f].done < flights[done_idx].done) {
        done_idx = f;
      }
    }
    const bool have_arrival = next_arrival < sched.size();
    const bool have_done = done_idx < flights.size();
    // Ties retire the completion first: the freed slot is available to
    // the simultaneously-arriving request.
    if (have_done &&
        (!have_arrival || flights[done_idx].done <= sched[next_arrival].arrival)) {
      if (windows) windows->AdvanceTo(flights[done_idx].done, nullptr);
      const Flight fl = flights[done_idx];
      flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(done_idx));
      for (std::size_t idx : fl.reqs) {
        const ServeRequest& r = sched[idx];
        const double ns = TicksToNs(fl.done - r.arrival);
        lat_ns.push_back(ns);
        tenant_lat[r.tenant].push_back(ns);
        ++pt.served;
        ++pt.tenants[r.tenant].served;
        if (windows) {
          ++acc.completed;
          acc.lat_ns.push_back(ns);
          ++acc.served[r.tenant];
          if (params.slo_ns > 0.0 && ns > params.slo_ns) ++acc.viol[r.tenant];
        }
      }
      start_batches(fl.done);
      continue;
    }
    // Arrival event.
    const ServeRequest& r = sched[next_arrival];
    if (windows) windows->AdvanceTo(r.arrival, nullptr);
    ++pt.tenants[r.tenant].offered;
    if (windows) ++acc.arrivals;
    depth_sum += queue.size();
    if (queue.size() > pt.queue_peak) pt.queue_peak = queue.size();
    if (queue.size() >= params.queue_depth) {
      if (params.drop == DropPolicy::kTail) {
        ++pt.dropped;
        ++pt.tenants[r.tenant].dropped;
        if (windows) {
          ++acc.dropped;
          ++acc.drops[r.tenant];
        }
      } else {  // head drop: evict the stalest queued request, admit new
        const ServeRequest& victim = sched[queue.front()];
        queue.pop_front();
        ++pt.dropped;
        ++pt.tenants[victim.tenant].dropped;
        if (windows) {
          ++acc.dropped;
          ++acc.drops[victim.tenant];
          ++acc.admitted;
        }
        queue.push_back(next_arrival);
      }
    } else {
      queue.push_back(next_arrival);
      if (windows) ++acc.admitted;
    }
    ++next_arrival;
    start_batches(r.arrival);
  }
  GP_CHECK(queue.empty(), "serve loop ended with queued requests");
  // Trailing partial window up to the final completion; a run shorter
  // than one window still yields one (possibly degenerate) window.
  if (windows) windows->Finish(last_completion, nullptr);

  // --- SLO accounting -------------------------------------------------
  pt.drop_rate = pt.offered == 0
                     ? 0.0
                     : static_cast<double>(pt.dropped) /
                           static_cast<double>(pt.offered);
  std::sort(lat_ns.begin(), lat_ns.end());
  pt.p50_ns = QuantileSorted(lat_ns, 0.50);
  pt.p95_ns = QuantileSorted(lat_ns, 0.95);
  pt.p99_ns = QuantileSorted(lat_ns, 0.99);
  pt.max_ns = lat_ns.empty() ? 0.0 : lat_ns.back();
  double sum = 0.0;
  for (double v : lat_ns) sum += v;
  pt.mean_ns = lat_ns.empty() ? 0.0 : sum / static_cast<double>(lat_ns.size());
  pt.queue_mean = pt.offered == 0 ? 0.0
                                  : static_cast<double>(depth_sum) /
                                        static_cast<double>(pt.offered);
  pt.queue_limit = params.queue_depth;
  pt.horizon_ns = TicksToNs(last_completion);
  if (pt.horizon_ns > 0.0) {
    pt.achieved_qps = static_cast<double>(pt.served) / (pt.horizon_ns / 1e9);
    pt.util = busy_ns /
              (pt.horizon_ns * static_cast<double>(params.slots));
  }
  for (std::uint32_t t = 0; t < sg.num_tenants(); ++t) {
    TenantSlo& slo = pt.tenants[t];
    std::vector<double>& v = tenant_lat[t];
    std::sort(v.begin(), v.end());
    slo.p50_ns = QuantileSorted(v, 0.50);
    slo.p95_ns = QuantileSorted(v, 0.95);
    slo.p99_ns = QuantileSorted(v, 0.99);
    slo.max_ns = v.empty() ? 0.0 : v.back();
    double tsum = 0.0;
    for (double x : v) tsum += x;
    slo.mean_ns = v.empty() ? 0.0 : tsum / static_cast<double>(v.size());
  }
  FoldServeStats(pt, &pt.raw);
  return pt;
}

ServeGridResult RunServeGrid(
    const ServedGraph& sg, const ServeParams& base,
    const exec::NamedConfigs& configs, const std::vector<double>& qps_grid,
    int jobs,
    const std::function<void(const exec::SweepProgress&)>& on_progress) {
  if (configs.empty()) GP_THROW("serve grid needs at least one config");
  if (qps_grid.empty()) GP_THROW("serve grid needs at least one qps");
  // Fail fast on the orchestrating thread, before any point is submitted.
  std::vector<ServeParams> points;
  for (const auto& [name, cfg] : configs) {
    for (double qps : qps_grid) {
      ServeParams p = base;
      p.cfg = cfg;
      p.traffic.qps = qps;
      points.push_back(std::move(p));
    }
  }
  for (const ServeParams& p : points) CheckServeParams(sg, p);
  {
    TrafficSpec probe = base.traffic;
    probe.num_vertices = sg.graph().num_vertices();
    probe.qps = qps_grid.front();
    (void)GenerateSchedule(probe);  // validates the traffic spec
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Points come back in grid order (config-major, then qps) — the
  // determinism contract; progress lines arrive in completion order.
  std::size_t completed = 0;
  exec::ThreadPool pool(jobs);
  ServeGridResult out;
  out.points = exec::ParallelMap(
      pool, points.size(),
      [&](std::size_t i) {
        ServePoint pt = RunServePoint(sg, points[i]);
        pt.config_name = configs[i / qps_grid.size()].first;
        return pt;
      },
      [&](std::size_t i, double wall_ms, const ServePoint& pt) {
        if (!on_progress) return;
        exec::SweepProgress prog;
        prog.completed = ++completed;
        prog.total = points.size();
        prog.workload = "serve";
        prog.profile = pt.config_name;
        prog.config_name = StrFormat("qps=%g", points[i].traffic.qps);
        prog.wall_ms = wall_ms;
        prog.note = TimelineNote(pt.timeline);
        on_progress(prog);
      });
  out.total_wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return out;
}

}  // namespace graphpim::serve
