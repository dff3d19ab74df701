#include "exec/sweep.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/config.h"
#include "common/log.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/journal.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"

namespace graphpim::exec {

namespace {

// Keys that shape the job matrix itself; every machine knob
// (link_ber, num_cubes, topology, ...) is owned by SimConfig's field table
// and routed through SimConfig::FromConfig, so the grid spec accepts new
// knobs the moment the table grows a row.
constexpr const char* kStructuralKeys[] = {"workloads", "profiles", "modes",
                                           "vertices",  "threads",  "opcap",
                                           "seed"};

// num_cubes is special: it is the one machine knob that may carry a comma
// list, expanding the config axis (modes x cube counts) for cube-scaling
// sweeps. Both the flat and the hmc.-qualified spelling are accepted.
constexpr const char* kCubeAxisKeys[] = {"num_cubes", "num-cubes",
                                         "hmc.num_cubes"};

std::string AcceptedGridKeys() {
  std::string list;
  for (const char* k : kStructuralKeys) {
    if (!list.empty()) list += "|";
    list += k;
  }
  for (const std::string& k : core::SimConfig::ConfigKeys()) {
    list += "|" + k;
  }
  return list;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Checked integer parse with the grid key in the diagnostic: a user
// error, so it throws SimError (recoverable) rather than abort.
std::uint64_t ParseGridUint(const std::string& key, const std::string& val,
                            std::uint64_t max = ~std::uint64_t{0}) {
  return ParseUint("grid spec key '" + key + "'", val, max);
}

void RejectDuplicates(const std::vector<std::string>& names, const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        GP_THROW("duplicate ", what, " '", names[i], "' in grid spec");
      }
    }
  }
}

}  // namespace

std::uint64_t DeriveCellSeed(std::uint64_t base_seed, std::size_t workload_idx,
                             std::size_t profile_idx) {
  // Two SplitMix64 rounds: one to decorrelate the user seed, one to fold in
  // the cell coordinates. Purely value-dependent, so stable everywhere.
  SplitMix64 a(base_seed);
  const std::uint64_t mixed = a.Next();
  SplitMix64 b(mixed ^ ((static_cast<std::uint64_t>(workload_idx) << 32) |
                        static_cast<std::uint64_t>(profile_idx)));
  return b.Next();
}

core::Experiment::Options MakeExperimentOptions(const SweepGrid& grid,
                                                std::uint64_t seed) {
  core::Experiment::Options eo;
  eo.num_threads = grid.sim_threads;
  eo.seed = seed;
  eo.op_cap = grid.op_cap;
  // Uniform across the grid (prevalidated by Run).
  eo.params.ann = grid.configs.front().ann;
  // Uniform across the grid (prevalidated by Run): a persistent grid
  // generates the full flush/fence discipline into the shared trace.
  if (grid.configs.front().pmem.enable) {
    eo.persist = pmem::PersistMode::kFull;
  }
  return eo;
}

const char* ToString(JobStatus s) {
  return s == JobStatus::kOk ? "ok" : "failed";
}

const SweepRow* SweepResultTable::Find(const std::string& workload,
                                       const std::string& profile,
                                       const std::string& config_name) const {
  for (const SweepRow& r : rows) {
    if (r.workload == workload && r.profile == profile &&
        r.config_name == config_name) {
      return &r;
    }
  }
  return nullptr;
}

double SweepResultTable::SpeedupVsFirstConfig(const SweepRow& row) const {
  for (const SweepRow& r : rows) {
    if (r.workload_idx == row.workload_idx && r.profile_idx == row.profile_idx &&
        r.config_idx == 0) {
      if (row.results.cycles == 0) return 0.0;
      return static_cast<double>(r.results.cycles) /
             static_cast<double>(row.results.cycles);
    }
  }
  return 0.0;
}

SweepResultTable SweepRunner::Run(const SweepGrid& grid) const {
  GP_CHECK(!grid.workloads.empty(), "sweep grid has no workloads");
  GP_CHECK(!grid.profiles.empty(), "sweep grid has no profiles");
  GP_CHECK(!grid.configs.empty(), "sweep grid has no configs");
  GP_CHECK(grid.config_names.size() == grid.configs.size(),
           "config_names must parallel configs");
  for (const core::SimConfig& c : grid.configs) {
    GP_CHECK(c.num_cores >= grid.sim_threads,
             "config simulates fewer cores than the trace has streams");
  }
  // Every config of a cell replays the ONE shared trace, and pmem.enable
  // decides whether that trace carries flush/fence discipline — so it must
  // be uniform across the grid (the fingerprint covers pmem.* via
  // Describe(), so --resume already refuses cross-persistence splices).
  for (const core::SimConfig& c : grid.configs) {
    if (c.pmem.enable != grid.configs.front().pmem.enable) {
      GP_THROW("config key 'pmem.enable' must be uniform across a sweep "
               "grid: all configs replay one shared trace, which either "
               "carries persist ops or does not");
    }
  }
  // Same reasoning for the ann.* block: the hnsw workload bakes the knob
  // values into the ONE shared trace at generation time, so per-config
  // ann values cannot take effect and almost certainly mean a mis-specified
  // grid (sweep ann knobs as grid axes instead).
  for (const core::SimConfig& c : grid.configs) {
    if (c.ann != grid.configs.front().ann) {
      GP_THROW("config keys 'ann.*' must be uniform across a sweep grid: "
               "all configs replay one shared trace, which is generated "
               "with one ann parameter block");
    }
  }

  const auto sweep_t0 = std::chrono::steady_clock::now();
  const std::size_t num_cells = grid.NumCells();
  const std::size_t num_configs = grid.configs.size();
  const std::size_t total = grid.NumJobs();

  struct JobOut {
    std::optional<core::SimResults> results;  // empty on failure
    std::string error;
    double wall_ms = 0.0;
    trace::IntervalLog phases;    // populated only when journaling phases
    trace::SpanLog spans;         // populated when the config samples spans
    trace::IntervalLog timeline;  // populated when telemetry.window_ns > 0
  };

  // Phase capture costs one registry merge per superstep, so only pay for
  // it when there is a journal to carry the sidecar lines.
  const bool want_phases = opts_.journal_phases && !opts_.journal_path.empty();
  // Span capture is keyed off the config itself (trace.sample_rate > 0):
  // the recorder runs either way to fold span.* stats, so the only question
  // is whether to keep the log for a journal sidecar.
  const bool journal_open = !opts_.journal_path.empty();

  // Replays config `k` of a built cell with the fault seed derived from
  // `seed`, attaching phases when the journal carries them, and spans and
  // windows when the config turns them on and a journal can carry them.
  auto replay = [&](const core::Experiment& exp, std::uint64_t seed,
                    std::size_t k, JobOut* out) {
    core::SimConfig cfg = grid.configs[k];
    cfg.hmc.fault.seed = fault::DeriveFaultSeed(seed, k);
    core::RunOptions ro;
    if (want_phases) ro.phases = &out->phases;
    if (journal_open && cfg.trace_sample_rate > 0.0) ro.spans = &out->spans;
    if (journal_open && cfg.telemetry_window_ns > 0.0) {
      ro.timeline = &out->timeline;
    }
    out->results = exp.Run(cfg, ro);
  };

  // Resume: restore journaled rows keyed by flat grid index. The
  // fingerprint gate makes a stale journal (different grid) an error
  // instead of a silent wrong-answer.
  const std::string fingerprint =
      opts_.journal_path.empty() ? std::string() : GridFingerprint(grid);
  std::vector<std::unique_ptr<SweepRow>> restored(total);
  if (opts_.resume) {
    GP_CHECK(!opts_.journal_path.empty(), "resume requires a journal path");
    JournalData jd;
    if (LoadJournal(opts_.journal_path, &jd)) {
      if (jd.fingerprint != fingerprint) {
        GP_THROW("sweep journal '", opts_.journal_path,
                 "' was written for a different grid (fingerprint mismatch); "
                 "delete it or point --journal elsewhere to start fresh");
      }
      for (SweepRow& r : jd.rows) {
        if (r.workload_idx >= grid.workloads.size() ||
            r.profile_idx >= grid.profiles.size() ||
            r.config_idx >= num_configs) {
          continue;
        }
        const std::size_t idx =
            (r.workload_idx * grid.profiles.size() + r.profile_idx) *
                num_configs +
            r.config_idx;
        if (restored[idx] == nullptr) {
          restored[idx] = std::make_unique<SweepRow>(std::move(r));
        }
      }
    }
  }

  JournalWriter writer;
  if (!opts_.journal_path.empty()) writer.Open(opts_.journal_path, fingerprint);

  // Cell tasks build the shared Experiment, then fan the per-config replay
  // jobs out from the worker thread itself, so replays start the moment
  // their trace exists. The main thread harvests futures in grid order.
  std::mutex mu;
  std::condition_variable cell_cv;
  std::vector<std::future<JobOut>> job_futs(total);
  std::vector<char> cell_ready(num_cells, 0);
  std::vector<double> cell_build_ms(num_cells, 0.0);
  std::vector<std::string> cell_error(num_cells);

  std::mutex progress_mu;
  std::size_t completed = 0;
  auto report_progress = [&](std::size_t wi, std::size_t pi, std::size_t k,
                             double wall_ms, JobStatus status) {
    if (!opts_.on_progress) return;
    std::lock_guard<std::mutex> lk(progress_mu);
    ++completed;
    SweepProgress p;
    p.completed = completed;
    p.total = total;
    p.workload = grid.workloads[wi];
    p.profile = grid.profiles[pi];
    p.config_name = grid.config_names[k];
    p.wall_ms = wall_ms;
    p.status = status;
    opts_.on_progress(p);
  };

  // Declared after everything its tasks touch, so that on an early exit
  // its destructor drains them while that state still exists.
  ThreadPool pool(opts_.jobs);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::size_t wi = ci / grid.profiles.size();
    const std::size_t pi = ci % grid.profiles.size();

    // Configs this cell still has to simulate (the rest came back from the
    // journal). A fully-restored cell skips the Experiment build entirely.
    std::vector<std::size_t> needed;
    for (std::size_t k = 0; k < num_configs; ++k) {
      if (restored[ci * num_configs + k] == nullptr) needed.push_back(k);
    }
    if (needed.empty()) {
      cell_ready[ci] = 1;  // pre-pool, no lock needed
      continue;
    }

    pool.Submit([&, ci, wi, pi, needed] {
      const auto build_t0 = std::chrono::steady_clock::now();
      const std::uint64_t cell_seed = DeriveCellSeed(grid.base_seed, wi, pi);
      std::shared_ptr<core::Experiment> exp;
      try {
        exp = std::make_shared<core::Experiment>(
            grid.profiles[pi], grid.vertices, grid.workloads[wi],
            MakeExperimentOptions(grid, cell_seed));
      } catch (const std::exception& e) {
        // The cell is unbuildable (bad workload/profile name, degenerate
        // graph, ...): every job of the cell fails with this message, and
        // the rest of the grid proceeds.
        {
          std::lock_guard<std::mutex> lk(mu);
          cell_error[ci] = e.what();
          cell_build_ms[ci] = MsSince(build_t0);
          cell_ready[ci] = 1;
        }
        cell_cv.notify_all();
        return;
      }
      const double build_ms = MsSince(build_t0);

      std::vector<std::future<JobOut>> futs;
      futs.reserve(needed.size());
      for (std::size_t k : needed) {
        futs.push_back(pool.Submit([&, exp, cell_seed, wi, pi, k] {
          const auto run_t0 = std::chrono::steady_clock::now();
          JobOut out;
          // A failed replay becomes a status=kFailed row, not a throw.
          try {
            replay(*exp, cell_seed, k, &out);
          } catch (const std::exception& e) {
            out.error = e.what();
          }
          out.wall_ms = MsSince(run_t0);
          report_progress(wi, pi, k, out.wall_ms,
                          out.results.has_value() ? JobStatus::kOk
                                                  : JobStatus::kFailed);
          return out;
        }));
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        for (std::size_t i = 0; i < needed.size(); ++i) {
          job_futs[ci * num_configs + needed[i]] = std::move(futs[i]);
        }
        cell_build_ms[ci] = build_ms;
        cell_ready[ci] = 1;
      }
      cell_cv.notify_all();
    });
  }

  SweepResultTable table;
  table.rows.reserve(total);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    {
      std::unique_lock<std::mutex> lk(mu);
      cell_cv.wait(lk, [&] { return cell_ready[ci] != 0; });
    }
    table.build_wall_ms += cell_build_ms[ci];
    const std::size_t wi = ci / grid.profiles.size();
    const std::size_t pi = ci % grid.profiles.size();
    const std::uint64_t cell_seed = DeriveCellSeed(grid.base_seed, wi, pi);
    for (std::size_t k = 0; k < num_configs; ++k) {
      const std::size_t idx = ci * num_configs + k;

      if (restored[idx] != nullptr) {
        SweepRow row = std::move(*restored[idx]);
        ++table.resumed_rows;
        report_progress(wi, pi, k, 0.0, JobStatus::kOk);
        table.rows.push_back(std::move(row));
        continue;
      }

      SweepRow row;
      row.workload_idx = wi;
      row.profile_idx = pi;
      row.config_idx = k;
      row.workload = grid.workloads[wi];
      row.profile = grid.profiles[pi];
      row.config_name = grid.config_names[k];
      row.seed = cell_seed;

      if (!cell_error[ci].empty()) {
        row.status = JobStatus::kFailed;
        row.error = cell_error[ci];
        ++table.failed_rows;
        report_progress(wi, pi, k, 0.0, JobStatus::kFailed);
        table.rows.push_back(std::move(row));
        continue;
      }

      JobOut out = job_futs[idx].get();
      row.wall_ms = out.wall_ms;
      if (out.results.has_value()) {
        row.results = std::move(*out.results);
        // Journal only freshly-computed OK rows: failed rows must be
        // retried by a resume, and restored rows are already on disk.
        writer.Append(row);
        if (want_phases) writer.AppendPhases(row, out.phases);
        if (!out.spans.empty()) writer.AppendSpans(row, out.spans);
        if (!out.timeline.empty()) writer.AppendTimeline(row, out.timeline);
      } else {
        row.status = JobStatus::kFailed;
        row.error = out.error;
        ++table.failed_rows;
      }
      table.job_wall_ms.Record(row.wall_ms);
      table.run_wall_ms += row.wall_ms;
      table.rows.push_back(std::move(row));
    }
  }
  pool.Shutdown();
  writer.Close();
  table.total_wall_ms = MsSince(sweep_t0);
  return table;
}

std::vector<core::Mode> ParseModeList(const std::string& arg) {
  std::vector<core::Mode> modes;
  for (const std::string& tok : Split(arg, ',')) {
    const std::string m = Trim(tok);
    if (m.empty()) continue;
    if (m == "all") {
      modes.push_back(core::Mode::kBaseline);
      modes.push_back(core::Mode::kUPei);
      modes.push_back(core::Mode::kGraphPim);
    } else if (m == "baseline") {
      modes.push_back(core::Mode::kBaseline);
    } else if (m == "upei") {
      modes.push_back(core::Mode::kUPei);
    } else if (m == "graphpim") {
      modes.push_back(core::Mode::kGraphPim);
    } else if (m == "ucnopim") {
      modes.push_back(core::Mode::kUncacheNoPim);
    } else {
      GP_THROW("unknown mode '", m, "' (want baseline|upei|graphpim|ucnopim|all)");
    }
  }
  if (modes.empty()) GP_THROW("empty mode list");
  return modes;
}

SweepGrid ParseGridSpec(const std::string& spec) {
  SweepGrid grid;
  grid.profiles.clear();
  std::vector<core::Mode> modes;
  std::vector<std::uint64_t> cube_counts;  // config axis; empty = table default
  graphpim::Config machine;  // scalar machine knobs, handed to FromConfig

  const std::vector<std::string> machine_keys = core::SimConfig::ConfigKeys();
  auto is_machine_key = [&](const std::string& k) {
    for (const std::string& mk : machine_keys)
      if (k == mk) return true;
    return false;
  };
  auto is_cube_axis_key = [](const std::string& k) {
    for (const char* ck : kCubeAxisKeys)
      if (k == ck) return true;
    return false;
  };

  for (const std::string& field : Split(spec, ';')) {
    const std::string f = Trim(field);
    if (f.empty()) continue;
    const auto eq = f.find('=');
    if (eq == std::string::npos) {
      GP_THROW("grid spec field '", f, "' is not key=value (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
    const std::string key = Trim(f.substr(0, eq));
    const std::string val = Trim(f.substr(eq + 1));
    if (key == "workloads") {
      for (const std::string& w : Split(val, ','))
        if (!Trim(w).empty()) grid.workloads.push_back(Trim(w));
    } else if (key == "profiles") {
      for (const std::string& p : Split(val, ','))
        if (!Trim(p).empty()) grid.profiles.push_back(Trim(p));
    } else if (key == "modes") {
      modes = ParseModeList(val);
    } else if (key == "vertices") {
      grid.vertices = static_cast<VertexId>(
          ParseGridUint(key, val, std::numeric_limits<VertexId>::max()));
      if (grid.vertices == 0) GP_THROW("grid spec key 'vertices' must be > 0");
    } else if (key == "threads") {
      grid.sim_threads = static_cast<int>(
          ParseGridUint(key, val, std::numeric_limits<int>::max()));
      if (grid.sim_threads < 1) GP_THROW("grid spec key 'threads' must be >= 1");
    } else if (key == "opcap") {
      grid.op_cap = ParseGridUint(key, val);
    } else if (key == "seed") {
      grid.base_seed = ParseGridUint(key, val);
    } else if (is_cube_axis_key(key)) {
      // Comma list expands the config axis: modes x cube counts.
      for (const std::string& tok : Split(val, ',')) {
        const std::string c = Trim(tok);
        if (c.empty()) continue;
        const std::uint64_t nc = ParseGridUint("num_cubes", c);
        // 0 doubles as the leave-default sentinel below, so reject it here
        // rather than silently running the table default.
        if (nc < 1) GP_THROW("grid spec key 'num_cubes' needs counts >= 1");
        cube_counts.push_back(nc);
      }
      if (cube_counts.empty()) {
        GP_THROW("grid spec key 'num_cubes' needs at least one count");
      }
    } else if (key == "full" || key == "topology") {
      machine.Set(key, val);  // non-numeric knobs; FromConfig validates
    } else if (is_machine_key(key)) {
      // Numeric machine knob: check it parses here, so the error names
      // the grid spec key, then let FromConfig / Validate own the range
      // check so the grid spec and the tool CLIs reject identically.
      ParseDouble("grid spec key '" + key + "'", val);
      machine.Set(key, val);
    } else {
      GP_THROW("unknown grid spec key '", key, "' (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
  }

  if (grid.workloads.empty()) {
    GP_THROW("grid spec needs workloads=... (accepted keys: ",
             AcceptedGridKeys(), ")");
  }
  RejectDuplicates(grid.workloads, "workload");
  RejectDuplicates(grid.profiles, "profile");
  if (grid.profiles.empty()) grid.profiles.push_back("ldbc");
  if (modes.empty()) modes = ParseModeList("all");
  machine.Set("threads", std::to_string(grid.sim_threads));

  // The config axis is modes x cube counts; names stay the bare mode
  // string unless the sweep actually scales cubes (then "GraphPIM-c4").
  const bool cube_axis = cube_counts.size() > 1;
  if (cube_counts.empty()) cube_counts.push_back(0);  // 0 = leave default
  for (core::Mode m : modes) {
    for (std::uint64_t nc : cube_counts) {
      graphpim::Config mc = machine;
      if (nc != 0) mc.Set("num_cubes", std::to_string(nc));
      // Per-job fault seeds are derived from the cell seed at run time
      // (SweepRunner), so the parsed config's seed stays zero.
      grid.configs.push_back(core::SimConfig::FromConfig(mc, m));
      std::string name = ToString(m);
      if (cube_axis) {
        name += StrFormat("-c%llu", static_cast<unsigned long long>(nc));
      }
      grid.config_names.push_back(name);
    }
  }
  RejectDuplicates(grid.config_names, "mode");
  return grid;
}

}  // namespace graphpim::exec
