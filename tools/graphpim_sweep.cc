// graphpim_sweep — run full paper-reproduction grids in one invocation.
//
// Expands a workload × profile × machine-config job matrix, executes it on
// the src/exec job pool, and prints a keyed result table with
// speedups against the first config (baseline). Results are bit-identical
// for any --jobs value (see src/exec/sweep.h for the determinism contract).
//
//   graphpim_sweep [--workloads=bfs,prank,...]   # default: the 5 paper evals
//                  [--profiles=ldbc]             # synthetic graph profiles
//                  [--modes=all|baseline,upei,graphpim,ucnopim]
//                  [--vertices=32768] [--full=0] # full=1: Table IV machines
//                  [--threads=16] [--opcap=12000000] [--seed=1]
//                  [--num-cubes=1,2,4,8]  # cube-scaling axis ("GraphPIM-c4")
//                  [--topology=chain|star] [--cube-page-bytes=4096]
//                  [--jobs=N]                    # pool width (0 = nproc)
//                  [--progress=1]  # stderr heartbeat per retired job:
//                                  # jobs done/total + ETA from wall-time
//                                  # stats so far. Off by default.
//                  [--json=out.json] [--csv=out.csv] [--det-csv=out.csv]
//
// Fault injection (src/fault; DESIGN.md §9) — applied to every config:
//                  [--link-ber=1e-12] [--vault-stall-ppm=50]
//                  [--poison-ppm=5] [--max-retries=3] [--retry-ns=8]
//
// Fault tolerance: a job that fails produces a status=failed row (the rest
// of the grid completes); --journal streams finished rows to a JSONL file,
// and --resume restores them after a crash/SIGKILL so only missing rows
// re-simulate. Because replays are deterministic, the resumed table is
// bit-identical to an uninterrupted run.
//                  [--journal=sweep.partial.jsonl] [--resume=0]
//                  [--journal-phases=0]  # per-superstep {"phases_for":...}
//                                        # sidecar lines in the journal
//
// Transaction tracing (DESIGN.md §12): --trace-sample-rate=0.05 samples 5%
// of memory requests per job; with --journal the sampled spans ride along
// as {"spans_for":...} sidecar lines after each row.
//
// Telemetry timelines (DESIGN.md §17): --telemetry-window-ns=N cuts each
// job into virtual-time windows; with --journal the windows ride along as
// {"timeline_for":...} sidecar lines. Windows without a journal are a
// config error (there would be nowhere to put them).
//
// Persistent PMR (DESIGN.md §14): the pmem.* knobs ride the SimConfig
// field table, so --pmem-enable / --pmem-flush-ns / --pmem-fence-ns apply
// to every config (pmem.enable must be uniform across the grid — all
// configs replay one shared trace). The journal fingerprint covers them
// like any other knob, so --resume refuses a journal written under
// different persistence settings. Crash sweeps live in graphpim_sim
// (--crash-sweep), not here: they post-process one cell's persist log.
#include <cstdio>
#include <exception>
#include <string>

#include "common/config.h"
#include "common/trace.h"
#include "exec/progress.h"
#include "exec/result_sink.h"
#include "exec/sweep.h"
#include "workloads/workload.h"

using namespace graphpim;

namespace {

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ",";
    out += p;
  }
  return out;
}

int Run(const Config& cfg) {
  // Driver flags plus every machine knob the SimConfig field table accepts
  // (both spellings), so this CLI surface tracks the table automatically.
  std::vector<std::string> keys = {
      "workloads", "profiles",   "modes",   "vertices", "opcap",
      "seed",      "jobs",       "progress", "json",    "csv",
      "det-csv",   "journal",    "resume",  "journal-phases"};
  for (const std::string& k : core::SimConfig::ConfigKeys()) keys.push_back(k);
  cfg.RequireKeys(keys);
  cfg.RequireWritable({"json", "csv", "det-csv"});

  // The flags are the grid keys: the shared grid builder owns parsing and
  // validation, and every present machine knob reaches each config.
  Config grid_cfg = cfg;
  if (!grid_cfg.Has("workloads")) {
    grid_cfg.Set("workloads", Join(workloads::EvalWorkloadNames()));
  }
  exec::SweepGrid grid = exec::MakeSweepGrid(grid_cfg);

  exec::SweepRunner::Options opts;
  opts.jobs = static_cast<int>(cfg.GetInt("jobs", 0));
  opts.journal_path = cfg.GetString("journal", "");
  opts.resume = cfg.GetBool("resume", false);
  opts.journal_phases = cfg.GetBool("journal-phases", false);
  for (const core::SimConfig& c : grid.configs) {
    trace::RequireSink(c.telemetry_window_ns, !opts.journal_path.empty(),
                       "sweep timelines are journal sidecar lines; pass "
                       "--journal=FILE");
  }
  // Progress heartbeat (off by default so scripted runs stay quiet): the
  // shared src/exec/progress stderr line per retired job, with an ETA
  // extrapolated from the mean wall time of the jobs finished so far.
  // stderr keeps it separable from the result table on stdout.
  if (cfg.GetBool("progress", false)) {
    opts.on_progress = exec::StderrHeartbeat();
  }

  std::printf("graphpim_sweep: %zu workloads x %zu profiles x %zu configs "
              "= %zu jobs (--jobs=%d)\n\n",
              grid.workloads.size(), grid.profiles.size(), grid.configs.size(),
              grid.NumJobs(), opts.jobs);
  exec::SweepResultTable table = exec::SweepRunner(opts).Run(grid);

  std::printf("\n%-8s %-8s %-10s %14s %8s %9s %9s %9s\n", "workload",
              "profile", "config", "cycles", "IPC", "MPKI(L2)", "offload%",
              "speedup");
  for (const exec::SweepRow& r : table.rows) {
    if (r.status != exec::JobStatus::kOk) {
      std::printf("%-8s %-8s %-10s FAILED: %s\n", r.workload.c_str(),
                  r.profile.c_str(), r.config_name.c_str(), r.error.c_str());
      continue;
    }
    const double offload_pct =
        r.results.atomics == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.results.offloaded_atomics) /
                  static_cast<double>(r.results.atomics);
    std::printf("%-8s %-8s %-10s %14llu %8.3f %9.2f %8.1f%% %8.2fx\n",
                r.workload.c_str(), r.profile.c_str(), r.config_name.c_str(),
                static_cast<unsigned long long>(r.results.cycles),
                r.results.ipc, r.results.l2_mpki, offload_pct,
                table.SpeedupVsFirstConfig(r));
  }
  std::printf("\nwall: %.0f ms total (build %.0f ms + run %.0f ms of work) | "
              "job p50 %.0f ms  p95 %.0f ms  max %.0f ms\n",
              table.total_wall_ms, table.build_wall_ms, table.run_wall_ms,
              table.job_wall_ms.Percentile(50), table.job_wall_ms.Percentile(95),
              table.job_wall_ms.max());
  if (table.resumed_rows > 0) {
    std::printf("resumed %zu of %zu rows from %s\n", table.resumed_rows,
                table.rows.size(), opts.journal_path.c_str());
  }
  if (table.failed_rows > 0) {
    std::printf("%zu of %zu rows FAILED (failed rows are not journaled; "
                "--resume retries them)\n",
                table.failed_rows, table.rows.size());
  }

  if (cfg.Has("json")) {
    exec::WriteJson(table, cfg.GetString("json", ""));
    std::printf("JSON written to %s\n", cfg.GetString("json", "").c_str());
  }
  if (cfg.Has("csv")) {
    exec::WriteCsv(table, cfg.GetString("csv", ""));
    std::printf("CSV written to %s\n", cfg.GetString("csv", "").c_str());
  }
  if (cfg.Has("det-csv")) {
    exec::WriteDeterministicCsv(table, cfg.GetString("det-csv", ""));
    std::printf("deterministic CSV written to %s\n",
                cfg.GetString("det-csv", "").c_str());
  }
  return table.failed_rows > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(Config::FromArgs(argc, argv));
  } catch (const std::exception& e) {
    // User/config errors (SimError) surface here; exit cleanly instead of
    // aborting so scripts can distinguish bad flags from simulator bugs.
    std::fprintf(stderr, "graphpim_sweep: error: %s\n", e.what());
    return 1;
  }
}
