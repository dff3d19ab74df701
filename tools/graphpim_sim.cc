// graphpim_sim — the general simulator driver.
//
// Runs any workload on any synthetic profile under one or all machine
// configurations and prints a full report (optionally as JSON).
//
//   graphpim_sim [--workload=bfs] [--profile=ldbc] [--vertices=32768]
//                [--mode=all|baseline|upei|graphpim|ucnopim] [--full=0]
//                [--threads=16] [--seed=1] [--opcap=12000000]
//                [--fp=1] [--fus=16] [--linkbw=1.0] [--hybrid=1.0]
//                [--uc-depth=16]
//                [--num-cubes=1] [--topology=chain|star]  # HMC cube network
//                [--cube-page-bytes=4096]  # PMR interleave granularity
//                [--fuse=0]           # Section III-B comparison-block fusion
//                [--jobs=N]           # replay modes in parallel (0 = nproc)
//                [--progress=1]       # stderr heartbeat per retired mode
//                [--json=out.json]    # machine-readable results (last mode)
//                [--metrics-out=p.json]  # per-superstep phase deltas for the
//                                        # last mode; .jsonl = JSONL, else
//                                        # Chrome trace (chrome://tracing)
//                [--trace-sample-rate=0] # transaction flight recorder: sample
//                                        # this fraction of memory requests,
//                                        # print per-stage latency percentiles
//                                        # + a bottleneck attribution table,
//                                        # and merge span tracks (cores/cubes/
//                                        # vaults) into --metrics-out
//                [--trace-out=t.bin] [--trace-in=t.bin]
//                [--telemetry-window-ns=0]  # virtual-time telemetry windows
//                                           # (DESIGN.md §17); needs a sink:
//                [--timeline-out=t.jsonl]   # window JSONL for the last mode;
//                                           # windows are also merged into
//                                           # --metrics-out as counter tracks
//
// Fault injection (src/fault; DESIGN.md §9):
//   [--link-ber=1e-12] [--vault-stall-ppm=50] [--poison-ppm=5]
//   [--max-retries=3] [--retry-ns=8]
//
// Grids of runs are graphpim_sweep's job (tools/graphpim_sweep.cc).
//
// Persistent PMR (src/pmem; DESIGN.md §14): with --pmem-enable=1 the
// persist-capable workloads (gup, tmorph) generate flush/fence discipline,
// the persist-ordering checker runs over the trace, and the driver
// additionally accepts
//   [--pmem-flush-ns=40] [--pmem-fence-ns=20]
//   [--pmem-crash-tick=NS]    # one crash/recovery evaluation at NS
//   [--crash-sweep=N]         # N decorrelated crash/recovery cycles per
//                             # mode; deterministic table at any --jobs
//   [--pmem-mutant=none|missing-fence|redundant-flush]  # seed a persist
//                             # bug the checker must flag
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/report.h"
#include "core/runner.h"
#include "exec/progress.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "graph/region.h"
#include "pmem/checker.h"
#include "pmem/crash.h"
#include "workloads/fusion.h"
#include "workloads/trace_io.h"
#include "workloads/workload.h"

using namespace graphpim;

namespace {

int RunMain(const Config& cfg) {
  // Driver-specific flags plus every machine knob SimConfig::FromConfig
  // accepts (both spellings) — the flag surface tracks the field table.
  std::vector<std::string> keys = {
      "workload",    "profile",     "vertices",  "mode",
      "seed",        "opcap",       "fuse",      "jobs",
      "json",        "metrics-out", "trace-out", "trace-in",
      "crash-sweep", "pmem-mutant", "progress",  "timeline-out"};
  for (const std::string& k : core::SimConfig::ConfigKeys()) keys.push_back(k);
  cfg.RequireKeys(keys);
  cfg.RequireWritable({"json", "metrics-out", "timeline-out"});
  const std::string workload = cfg.GetString("workload", "bfs");
  const std::string profile = cfg.GetString("profile", "ldbc");
  const auto vertices = static_cast<VertexId>(cfg.GetUint(
      "vertices", 32 * 1024, std::numeric_limits<VertexId>::max()));
  const std::string mode_arg = cfg.GetString("mode", "all");

  core::Experiment::Options opts;
  opts.num_threads = static_cast<int>(cfg.GetInt("threads", 16));
  opts.seed = cfg.GetUint("seed", 1);
  opts.op_cap = cfg.GetUint("opcap", 12'000'000);

  // Machine configs are parsed before the Experiment because pmem.enable
  // decides how the trace is GENERATED (persist discipline or not).
  const std::vector<core::Mode> modes = exec::ParseModeList(mode_arg);
  std::vector<core::SimConfig> mode_cfgs;
  for (core::Mode m : modes) {
    // THE config path: every machine knob (fp/fus/linkbw/hybrid/num-cubes/
    // topology/fault knobs/...) is read out of `cfg` by the shared field
    // table — this driver never plucks SimConfig fields itself.
    core::SimConfig sc = core::SimConfig::FromConfig(cfg, m);
    // Same per-(seed, config-index) derivation discipline as the sweep
    // runner: distinct modes draw decorrelated fault streams, and reruns
    // with the same --seed inject identically.
    sc.hmc.fault.seed =
        fault::DeriveFaultSeed(opts.seed, static_cast<std::uint64_t>(mode_cfgs.size()));
    mode_cfgs.push_back(sc);
  }

  // Persistent-PMR driver flags. The mutants and the crash sweep only make
  // sense with the persist domain on; flag the conflict rather than
  // silently doing nothing.
  const bool pmem_on = mode_cfgs.front().pmem.enable;
  const std::string mutant = cfg.GetString("pmem-mutant", "none");
  const std::uint64_t crash_sweep = cfg.GetUint("crash-sweep", 0);
  pmem::PersistMode pmode = pmem::PersistMode::kOff;
  if (mutant == "none") {
    if (pmem_on) pmode = pmem::PersistMode::kFull;
  } else if (mutant == "missing-fence") {
    pmode = pmem::PersistMode::kMissingFence;
  } else if (mutant == "redundant-flush") {
    pmode = pmem::PersistMode::kRedundantFlush;
  } else {
    GP_THROW("config key 'pmem-mutant' must be none, missing-fence, or "
             "redundant-flush; got '", mutant, "'");
  }
  if (!pmem_on && mutant != "none") {
    GP_THROW("config key 'pmem-mutant' (", mutant,
             ") requires 'pmem.enable'=1");
  }
  if (!pmem_on && crash_sweep > 0) {
    GP_THROW("config key 'crash-sweep' (", crash_sweep,
             ") requires 'pmem.enable'=1");
  }
  opts.persist = pmode;
  // The ann.* rows ride the same field table as every machine knob; the
  // hnsw workload bakes them into the trace at generation time (they are
  // mode-independent, so any mode's parse yields the same block).
  opts.params.ann = mode_cfgs.front().ann;

  core::Experiment exp(profile, vertices, workload, opts);
  std::printf("graphpim_sim: %s on %s-%u (%llu edges, %llu micro-ops)\n\n",
              workload.c_str(), profile.c_str(), vertices,
              static_cast<unsigned long long>(exp.graph().num_edges()),
              static_cast<unsigned long long>(exp.trace().TotalOps()));

  // Optional trace snapshotting.
  workloads::Trace trace = exp.trace();
  if (cfg.Has("trace-in")) {
    const std::string path = cfg.GetString("trace-in", "");
    if (!workloads::LoadTrace(path, &trace)) {
      GP_THROW("config key 'trace-in': cannot open '", path, "'");
    }
    // Checked here, not inside the replay jobs, where it would be fatal.
    const int cores = mode_cfgs.front().num_cores;
    if (trace.streams.size() > static_cast<std::size_t>(cores)) {
      GP_THROW("trace has ", trace.streams.size(), " streams but config key ",
               "'threads' simulates only ", cores, " cores");
    }
    std::printf("replaying trace from %s (%llu ops)\n\n", path.c_str(),
                static_cast<unsigned long long>(trace.TotalOps()));
  }
  if (cfg.Has("trace-out")) {
    const std::string path = cfg.GetString("trace-out", "");
    if (!workloads::SaveTrace(trace, path)) {
      GP_THROW("config key 'trace-out': cannot write '", path, "'");
    }
    std::printf("trace saved to %s\n\n", path.c_str());
  }
  if (cfg.GetBool("fuse", false)) {
    graph::AddressSpace space;
    workloads::FusionStats fs;
    trace = workloads::FuseComparisonBlocks(trace, space, &fs);
    std::printf("fusion: %llu comparison blocks -> CAS-if-less "
                "(%llu ops removed)\n\n",
                static_cast<unsigned long long>(fs.fused_with_cas +
                                                fs.fused_compare_only),
                static_cast<unsigned long long>(fs.ops_removed));
  }

  // Replay every mode — in parallel when --jobs allows it. Replays are pure
  // (RunSimulation has no shared mutable state), so the parallel path yields
  // bit-identical results; reports still print in mode-list order.
  //
  // Phase capture follows the --json convention: the LAST mode in the list
  // is the one whose per-superstep deltas land in --metrics-out.
  trace::IntervalLog phase_log;
  trace::SpanLog span_log;  // last mode's sampled spans, merged into the trace
  const bool want_phases = cfg.Has("metrics-out");
  // Telemetry windows follow the same last-mode convention. Windows on with
  // no sink is a config error (the timeline would silently vanish).
  trace::IntervalLog timeline;
  const bool timeline_sink = want_phases || cfg.Has("timeline-out");
  trace::RequireSink(mode_cfgs.front().telemetry_window_ns, timeline_sink,
                     "pass --metrics-out=FILE and/or --timeline-out=FILE");
  std::vector<core::SimResults> mode_results(modes.size());
  std::vector<pmem::PersistLog> persist_logs(modes.size());
  // --progress reuses the sweep heartbeat (exec/progress.h): one stderr
  // line per retired mode replay with an ETA, leaving stdout (the golden
  // surface) untouched.
  std::function<void(const exec::SweepProgress&)> on_progress;
  if (cfg.GetBool("progress", false)) on_progress = exec::StderrHeartbeat();
  std::vector<double> job_wall_ms(modes.size(), 0.0);
  {
    exec::ThreadPool pool(static_cast<int>(cfg.GetInt("jobs", 0)));
    std::vector<std::future<core::SimResults>> futs;
    futs.reserve(modes.size());
    for (std::size_t i = 0; i < mode_cfgs.size(); ++i) {
      const core::SimConfig& sc = mode_cfgs[i];
      core::RunOptions ro;
      if (i + 1 == mode_cfgs.size()) {
        if (want_phases) {
          ro.phases = &phase_log;
          if (sc.trace_sample_rate > 0.0) ro.spans = &span_log;
        }
        if (timeline_sink) ro.timeline = &timeline;
      }
      if (pmem_on) ro.persist = &persist_logs[i];
      futs.push_back(pool.Submit([&trace, &sc, &exp, ro, i, &job_wall_ms] {
        auto t0 = std::chrono::steady_clock::now();
        core::SimResults r =
            core::RunSimulation(trace, sc, exp.pmr_base(), exp.pmr_end(), ro);
        job_wall_ms[i] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        return r;
      }));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      mode_results[i] = futs[i].get();
      if (on_progress) {
        exec::SweepProgress p;
        p.completed = i + 1;
        p.total = futs.size();
        p.workload = workload;
        p.profile = profile;
        p.config_name = core::ToString(modes[i]);
        p.wall_ms = job_wall_ms[i];
        on_progress(p);
      }
    }
  }

  std::unique_ptr<core::SimResults> baseline;
  core::SimResults last;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    last = mode_results[i];
    std::printf("%s", core::FormatReport(last).c_str());
    if (modes[i] == core::Mode::kBaseline) {
      baseline = std::make_unique<core::SimResults>(last);
    } else if (baseline != nullptr) {
      std::printf("speedup over baseline: %.2fx\n", core::Speedup(*baseline, last));
    }
    std::printf("\n");
  }

  // Per-stage attribution across the replayed modes (paper Fig. 9 from
  // measurement); empty string — and no output — when tracing was off.
  const std::string bottleneck = core::FormatBottleneckTable(mode_results);
  if (!bottleneck.empty()) std::printf("%s\n", bottleneck.c_str());

  if (pmem_on) {
    // Static persist-ordering check over the trace that was actually
    // replayed. Sampled spans (if any) witness the violations.
    const pmem::UpdateLog* updates = exp.update_log();
    const pmem::CheckReport chk = pmem::CheckPersistOrdering(
        trace.streams, exp.pmr_base(), exp.pmr_end(), updates);
    std::printf("%s\n\n",
                pmem::FormatCheckReport(
                    chk, span_log.empty() ? nullptr : &span_log).c_str());

    static const pmem::UpdateLog kNoUpdates;
    const pmem::UpdateLog& ul = updates != nullptr ? *updates : kNoUpdates;
    const pmem::RecoveryInvariant inv = exp.recovery_invariant();

    // Single-shot crash at --pmem-crash-tick.
    if (mode_cfgs.front().pmem.crash_tick_ns >= 0) {
      for (std::size_t i = 0; i < modes.size(); ++i) {
        const fault::CrashPlan plan(
            fault::DeriveCrashSeed(opts.seed, static_cast<std::uint64_t>(i)));
        const pmem::CrashOutcome o = pmem::EvaluateCrashRecovery(
            persist_logs[i], ul, NsToTicks(mode_cfgs[i].pmem.crash_tick_ns),
            plan, 0, inv);
        std::printf("%s: %s\n", core::ToString(modes[i]),
                    pmem::FormatCrashOutcome(o).c_str());
      }
      std::printf("\n");
    }

    // --crash-sweep=N: N decorrelated crash/recovery cycles per mode. Pure
    // serial post-processing over the per-mode PersistLog, so the table is
    // byte-identical at any --jobs count. The markers delimit the region
    // scripts byte-compare.
    if (crash_sweep > 0) {
      std::printf("== crash recovery table ==\n");
      for (std::size_t i = 0; i < modes.size(); ++i) {
        const fault::CrashPlan plan(
            fault::DeriveCrashSeed(opts.seed, static_cast<std::uint64_t>(i)));
        std::uint64_t consistent = 0, inconsistent = 0, torn = 0;
        std::string lines;
        for (std::uint64_t c = 0; c < crash_sweep; ++c) {
          const Tick tick = plan.SampleCrashTick(c, persist_logs[i].end_tick);
          const pmem::CrashOutcome o =
              pmem::EvaluateCrashRecovery(persist_logs[i], ul, tick, plan, c, inv);
          if (o.consistent) {
            ++consistent;
          } else {
            ++inconsistent;
          }
          torn += o.torn_stores;
          lines += "  ";
          lines += pmem::FormatCrashOutcome(o);
          lines += "\n";
        }
        std::printf("%s: %llu cycles, %llu consistent, %llu inconsistent, "
                    "%llu torn stores, %zu checker violations\n%s",
                    core::ToString(modes[i]),
                    static_cast<unsigned long long>(crash_sweep),
                    static_cast<unsigned long long>(consistent),
                    static_cast<unsigned long long>(inconsistent),
                    static_cast<unsigned long long>(torn),
                    chk.violations.size(), lines.c_str());
      }
      std::printf("== end crash recovery table ==\n\n");
    }
  }

  if (cfg.Has("json")) {
    core::WriteJson(last, cfg.GetString("json", ""));
    std::printf("JSON written to %s\n", cfg.GetString("json", "").c_str());
  }
  if (want_phases) {
    const std::string path = cfg.GetString("metrics-out", "");
    trace::WriteTrace(phase_log, path, &span_log, {{"", &timeline}});
    std::string windows_note;
    if (!timeline.empty()) {
      windows_note = StrFormat("%zu windows, ", timeline.intervals().size());
    }
    std::printf("phase metrics (%zu phases, %zu spans, %smode %s) written to %s\n",
                phase_log.intervals().size(), span_log.spans.size(),
                windows_note.c_str(), last.mode.c_str(), path.c_str());
  }
  if (cfg.Has("timeline-out")) {
    const std::string path = cfg.GetString("timeline-out", "");
    WriteTextFile(path, trace::WindowsToJsonl(timeline));
    std::printf("telemetry timeline (%zu windows, mode %s) written to %s\n",
                timeline.intervals().size(), last.mode.c_str(), path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunMain(Config::FromArgs(argc, argv));
  } catch (const std::exception& e) {
    // User/config errors (SimError) surface here; exit cleanly instead of
    // aborting so scripts can distinguish bad flags from simulator bugs.
    std::fprintf(stderr, "graphpim_sim: error: %s\n", e.what());
    return 1;
  }
}
