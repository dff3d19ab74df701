// Run harness: trace generation + multi-core replay under a configuration.
//
// Typical use (and what every bench does):
//
//   Experiment exp("ldbc", 16 * 1024, "bfs");
//   SimResults base = exp.Run(SimConfig::Scaled(Mode::kBaseline));
//   SimResults pim  = exp.Run(SimConfig::Scaled(Mode::kGraphPim));
//   double speedup  = Speedup(base, pim);
//
// Raw-trace callers use the single RunSimulation entry point and pass
// RunOptions{} (or instrumentation) explicitly.
//
// The trace is generated once and replayed under every machine so the
// comparison is paired.
#ifndef GRAPHPIM_CORE_RUNNER_H_
#define GRAPHPIM_CORE_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/results.h"
#include "core/sim_config.h"
#include "graph/csr.h"
#include "graph/generator.h"
#include "graph/region.h"
#include "pmem/crash.h"
#include "pmem/pmem.h"
#include "workloads/workload.h"

namespace graphpim::core {

// Optional instrumentation attached to one simulation run.
struct RunOptions {
  // When non-null, the run cuts a phase at every BSP superstep boundary
  // (the barrier rendezvous) plus a final drain phase, recording per-phase
  // counter deltas of the whole merged registry. Not reset by the run;
  // attach a fresh log per run.
  trace::IntervalLog* phases = nullptr;

  // When non-null AND cfg.trace_sample_rate > 0, receives the run's
  // sampled transaction spans (overwritten, not appended). The recorder
  // itself lives inside RunSimulation; with sample_rate == 0 no recorder
  // is built and this stays untouched. Span statistics (span.*) are folded
  // into SimResults::raw whenever sampling is on, regardless of this
  // pointer.
  trace::SpanLog* spans = nullptr;

  // When non-null AND cfg.pmem.enable, receives the run's persist log (one
  // PersistStoreEvent per PMR store, with issue/persist ticks) — the input
  // to the crash/recovery harness. Untouched when the persist domain is
  // off.
  pmem::PersistLog* persist = nullptr;

  // When non-null AND cfg.telemetry_window_ns > 0, receives the run's
  // windowed counter/gauge timeline (DESIGN.md §17; replaced, capped at
  // cfg.telemetry_max_windows). Windows are cut at the end of each engine
  // round, keyed off the round's quantum_end, so the timeline is
  // bit-identical across reruns. With window_ns == 0 no window policy is
  // built and this stays untouched.
  trace::IntervalLog* timeline = nullptr;
};

// THE simulation entry point. Replays `trace` under `cfg` (which is
// Validate()d first, so hand-built configs get the same gate as parsed
// ones). `pmr_base`/`pmr_end` delimit the PMR the POU recognizes. `opts`
// carries per-run instrumentation; callers with none pass `RunOptions{}` —
// deliberately no default, so every call site states its instrumentation
// intent and there is exactly one overload to audit.
SimResults RunSimulation(const workloads::Trace& trace, const SimConfig& cfg,
                         Addr pmr_base, Addr pmr_end, const RunOptions& opts);

// Speedup of `other` over `base` (paper convention: normalized to baseline).
double Speedup(const SimResults& base, const SimResults& other);

// Owns a graph + workload + generated trace for repeated paired runs.
class Experiment {
 public:
  struct Options {
    int num_threads = 16;
    std::uint64_t seed = 1;
    std::uint64_t op_cap = 12'000'000;  // sampling guard for huge inputs
    double mispredict_rate = 0.06;
    bool dedup_edges = false;

    // Persist discipline the workload generates with (DESIGN.md §14).
    // kOff keeps the trace byte-identical to pre-pmem builds; the mutant
    // modes seed checker-visible bugs on purpose.
    pmem::PersistMode persist = pmem::PersistMode::kOff;

    // Per-workload parameter blocks (DESIGN.md §16), forwarded to
    // CreateWorkload. Defaults are a strict passthrough for the
    // parameterless workloads.
    workloads::WorkloadParams params;
  };

  // Generates a `profile` graph ("ldbc"/"bitcoin"/"twitter") with
  // `num_vertices` vertices and runs `workload_name` on it functionally,
  // capturing the trace.
  Experiment(const std::string& profile, VertexId num_vertices,
             const std::string& workload_name, const Options& opts);
  Experiment(const std::string& profile, VertexId num_vertices,
             const std::string& workload_name)
      : Experiment(profile, num_vertices, workload_name, Options()) {}

  // Same but over a caller-provided edge list.
  Experiment(const graph::EdgeList& el, const std::string& workload_name,
             const Options& opts);
  Experiment(const graph::EdgeList& el, const std::string& workload_name)
      : Experiment(el, workload_name, Options()) {}

  SimResults Run(const SimConfig& cfg,
                 const RunOptions& opts = RunOptions()) const;

  const graph::CsrGraph& graph() const { return *graph_; }
  const workloads::Workload& workload() const { return *workload_; }
  const workloads::Trace& trace() const { return trace_; }

  // Crash-harness surface (non-null/meaningful only for persist-capable
  // workloads generated with persist != kOff).
  const pmem::UpdateLog* update_log() const { return workload_->update_log(); }
  pmem::RecoveryInvariant recovery_invariant() const {
    return workload_->recovery_invariant();
  }
  bool persist_capable() const { return workload_->persist_capable(); }
  Addr pmr_base() const { return space_->pmr_base(); }
  Addr pmr_end() const { return space_->pmr_end(); }

 private:
  void Build(const graph::EdgeList& el, const std::string& workload_name,
             const Options& opts);

  std::unique_ptr<graph::AddressSpace> space_;
  std::unique_ptr<graph::CsrGraph> graph_;
  std::unique_ptr<workloads::Workload> workload_;
  workloads::Trace trace_;
};

// The trace-shape rule, for the `configs` that will all replay one trace.
// pmem.enable and the ann.* block decide how that trace is GENERATED, so
// they must agree across `configs`: throws SimError when they do not.
// Then sets opts->persist to kFull when the persist domain is on (the
// workload generates its flush/fence discipline) and opts->params.ann to
// the shared ann block; every other field of `opts` is left as it was.
void ShapeTraceFor(const std::vector<SimConfig>& configs,
                   Experiment::Options* opts);

}  // namespace graphpim::core

#endif  // GRAPHPIM_CORE_RUNNER_H_
