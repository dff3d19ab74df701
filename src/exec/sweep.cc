#include "exec/sweep.h"

#include <algorithm>
#include <chrono>
#include <iterator>
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

std::vector<std::string> GridKeys() {
  std::vector<std::string> keys(std::begin(kStructuralKeys),
                                std::end(kStructuralKeys));
  for (const std::string& k : core::SimConfig::ConfigKeys()) keys.push_back(k);
  return keys;
}

std::string AcceptedGridKeys() {
  std::string list;
  for (const std::string& k : GridKeys()) {
    if (!list.empty()) list += "|";
    list += k;
  }
  return list;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void RejectDuplicates(const std::vector<std::string>& names, const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) GP_THROW("duplicate ", what, " '", names[i], "'");
    }
  }
}

// The non-empty, trimmed entries of a comma list.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> out;
  for (const std::string& tok : Split(list, ',')) {
    if (!Trim(tok).empty()) out.push_back(Trim(tok));
  }
  return out;
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
  core::ShapeTraceFor(grid.configs, &eo);
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
  // Every config of a cell replays the ONE shared trace, so the knobs
  // that shape it must be uniform across the grid; this throws otherwise
  // (the fingerprint covers pmem.* via Describe(), so --resume already
  // refuses cross-persistence splices).
  MakeExperimentOptions(grid, grid.base_seed);

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
        // A row is trusted only where its names and seed match the cell
        // its indices point at: a damaged index that still parses must
        // not move the row into another cell's slot.
        if (r.workload_idx >= grid.workloads.size() ||
            r.profile_idx >= grid.profiles.size() ||
            r.config_idx >= num_configs ||
            r.workload != grid.workloads[r.workload_idx] ||
            r.profile != grid.profiles[r.profile_idx] ||
            r.config_name != grid.config_names[r.config_idx] ||
            r.seed != DeriveCellSeed(grid.base_seed, r.workload_idx,
                                     r.profile_idx)) {
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

  // A cell task builds the shared Experiment, then submits the cell's
  // replays from the worker itself, so they start the moment their trace
  // exists, and hands their futures back through its own. The main thread
  // harvests cells, and each cell's replays, in grid order.
  struct CellOut {
    std::string error;  // non-empty when the Experiment could not be built
    double build_ms = 0.0;
    std::vector<std::future<JobOut>> replays;  // by config; invalid if restored
  };

  // Declared after everything its tasks touch, so that on an early exit
  // its destructor drains them while that state still exists.
  ThreadPool pool(opts_.jobs);
  std::vector<std::future<CellOut>> cells(num_cells);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::size_t wi = ci / grid.profiles.size();
    const std::size_t pi = ci % grid.profiles.size();

    // Configs this cell still has to simulate (the rest came back from the
    // journal). A fully-restored cell skips the Experiment build entirely.
    std::vector<std::size_t> needed;
    for (std::size_t k = 0; k < num_configs; ++k) {
      if (restored[ci * num_configs + k] == nullptr) needed.push_back(k);
    }
    if (needed.empty()) continue;

    cells[ci] = pool.Submit([&, wi, pi, needed] {
      CellOut cell;
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
        cell.error = e.what();
      }
      cell.build_ms = MsSince(build_t0);
      if (exp == nullptr) return cell;

      cell.replays.resize(num_configs);
      for (std::size_t k : needed) {
        cell.replays[k] = pool.Submit([&, exp, cell_seed, wi, pi, k] {
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
        });
      }
      return cell;
    });
  }

  SweepResultTable table;
  table.rows.reserve(total);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    CellOut cell;
    if (cells[ci].valid()) cell = cells[ci].get();
    table.build_wall_ms += cell.build_ms;
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

      if (!cell.error.empty()) {
        row.status = JobStatus::kFailed;
        row.error = cell.error;
        ++table.failed_rows;
        report_progress(wi, pi, k, 0.0, JobStatus::kFailed);
        table.rows.push_back(std::move(row));
        continue;
      }

      JobOut out = cell.replays[k].get();
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

NamedConfigs ExpandConfigs(const graphpim::Config& machine,
                           const std::vector<core::Mode>& modes) {
  // Same spelling preference as the field table: canonical key first.
  const char* cube_key = machine.Has("num_cubes")   ? "num_cubes"
                         : machine.Has("num-cubes") ? "num-cubes"
                                                    : nullptr;
  // The cube counts as FromConfig reads them; "" leaves the table default.
  std::vector<std::string> counts = {""};
  if (cube_key != nullptr) {
    const std::string what = std::string("config key '") + cube_key + "'";
    counts.clear();
    for (const std::string& tok : SplitList(machine.GetString(cube_key, ""))) {
      const std::uint64_t n = ParseUint(what, tok);
      if (n < 1) GP_THROW(what, " needs counts >= 1");
      counts.push_back(std::to_string(n));
    }
    if (counts.empty()) GP_THROW(what, " needs at least one count");
  }

  NamedConfigs out;
  std::vector<std::string> names;
  for (core::Mode m : modes) {
    for (const std::string& count : counts) {
      graphpim::Config mc = machine;
      std::string name = core::ToString(m);
      if (!count.empty()) {
        // FromConfig reads one number per knob: replace the list in both
        // spellings.
        mc.Set("num_cubes", count);
        mc.Set("num-cubes", count);
        if (counts.size() > 1) name += "-c" + count;
      }
      names.push_back(name);
      out.emplace_back(name, core::SimConfig::FromConfig(mc, m));
    }
  }
  RejectDuplicates(names, "config");
  return out;
}

SweepGrid MakeSweepGrid(const graphpim::Config& cfg) {
  SweepGrid grid;
  grid.workloads = SplitList(cfg.GetString("workloads", ""));
  if (grid.workloads.empty()) {
    GP_THROW("a sweep grid needs workloads=... (accepted keys: ",
             AcceptedGridKeys(), ")");
  }
  grid.profiles = SplitList(cfg.GetString("profiles", "ldbc"));
  if (grid.profiles.empty()) grid.profiles.push_back("ldbc");
  RejectDuplicates(grid.workloads, "workload");
  RejectDuplicates(grid.profiles, "profile");
  grid.vertices = static_cast<VertexId>(cfg.GetUint(
      "vertices", grid.vertices, std::numeric_limits<VertexId>::max()));
  if (grid.vertices == 0) GP_THROW("config key 'vertices' must be > 0");
  grid.sim_threads = static_cast<int>(cfg.GetInt(
      "threads", grid.sim_threads, 1, std::numeric_limits<int>::max()));
  grid.op_cap = cfg.GetUint("opcap", grid.op_cap);
  grid.base_seed = cfg.GetUint("seed", grid.base_seed);

  // Per-job fault seeds are derived from the cell seed at run time
  // (SweepRunner), so the built configs' seeds stay zero.
  graphpim::Config machine = cfg;
  machine.Set("threads", std::to_string(grid.sim_threads));
  for (auto& [name, sc] : ExpandConfigs(
           machine, ParseModeList(cfg.GetString("modes", "all")))) {
    grid.config_names.push_back(std::move(name));
    grid.configs.push_back(std::move(sc));
  }
  return grid;
}

SweepGrid ParseGridSpec(const std::string& spec) {
  const std::vector<std::string> accepted = GridKeys();
  graphpim::Config cfg;
  for (const std::string& field : Split(spec, ';')) {
    const std::string f = Trim(field);
    if (f.empty()) continue;
    const auto eq = f.find('=');
    if (eq == std::string::npos) {
      GP_THROW("grid spec field '", f, "' is not key=value (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
    const std::string key = Trim(f.substr(0, eq));
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      GP_THROW("unknown grid spec key '", key, "' (accepted keys: ",
               AcceptedGridKeys(), ")");
    }
    if (cfg.Has(key)) GP_THROW("grid spec key '", key, "' appears twice");
    cfg.Set(key, Trim(f.substr(eq + 1)));
  }
  return MakeSweepGrid(cfg);
}

}  // namespace graphpim::exec
