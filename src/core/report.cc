#include "core/report.h"

#include "common/span.h"
#include "common/string_util.h"

namespace graphpim::core {

std::string FormatReport(const SimResults& r) {
  std::string out;
  out += StrFormat("config: %s\n", r.mode.c_str());
  out += StrFormat("cycles: %llu (%.3f ms simulated)\n",
                   static_cast<unsigned long long>(r.cycles), r.seconds * 1e3);
  out += StrFormat("insts:  %llu | IPC/core: %.4f\n",
                   static_cast<unsigned long long>(r.insts), r.ipc);
  out += StrFormat("MPKI:   L1 %.1f  L2 %.1f  L3 %.1f\n", r.l1_mpki, r.l2_mpki,
                   r.l3_mpki);
  out += StrFormat("atomics: %llu (offloaded %llu, candidate miss %.1f%%)\n",
                   static_cast<unsigned long long>(r.atomics),
                   static_cast<unsigned long long>(r.offloaded_atomics),
                   100 * r.atomic_miss_rate);
  out += StrFormat("link FLITs: %.0f request / %.0f response\n", r.req_flits,
                   r.resp_flits);
  // Degraded-mode line only when fault injection actually fired, so
  // fault-free reports stay byte-identical to the ideal model's.
  if (r.link_crc_errors > 0 || r.poisoned_ops > 0 || r.vault_stalls > 0) {
    out += StrFormat("faults: %llu CRC errors, %llu retries (%.0f FLITs "
                     "replayed), %llu poisoned, %llu vault stalls\n",
                     static_cast<unsigned long long>(r.link_crc_errors),
                     static_cast<unsigned long long>(r.link_retries),
                     r.retry_flits,
                     static_cast<unsigned long long>(r.poisoned_ops),
                     static_cast<unsigned long long>(r.vault_stalls));
  }
  out += StrFormat("breakdown: backend %.1f%% frontend %.1f%% badspec %.1f%% "
                   "retiring %.1f%%\n",
                   100 * r.frac_backend, 100 * r.frac_frontend,
                   100 * r.frac_badspec, 100 * r.frac_retiring);
  out += StrFormat("atomic time: in-core %.1f%% in-cache %.1f%% dep %.1f%%\n",
                   100 * r.frac_atomic_incore, 100 * r.frac_atomic_incache,
                   100 * r.frac_atomic_dep);
  out += StrFormat("uncore energy: %.3f mJ (caches %.3f, link %.3f, FU %.3f, "
                   "logic %.3f, DRAM %.3f)\n",
                   r.energy.Total() * 1e3, r.energy.caches_j * 1e3,
                   r.energy.link_j * 1e3, r.energy.fu_j * 1e3,
                   r.energy.logic_j * 1e3, r.energy.dram_j * 1e3);
  // Host trace footprint, strictly after the "uncore energy:" golden-diff
  // cutoff (the goldens pin the report only up to that line) and only when
  // the run actually replayed a trace, so hand-built SimResults print
  // unchanged.
  if (r.trace_peak_bytes > 0) {
    out += StrFormat("trace: peak %llu bytes (%.1f MiB) tiled micro-ops\n",
                     static_cast<unsigned long long>(r.trace_peak_bytes),
                     static_cast<double>(r.trace_peak_bytes) / (1024.0 * 1024.0));
  }
  // Flight-recorder section only when sampling was on, and strictly after
  // the energy line: the golden-identity gate diffs the report up to
  // "uncore energy:", so a traced run stays comparable to an untraced one.
  if (r.raw.Has("span.sampled")) {
    out += StrFormat("spans: %llu sampled\n",
                     static_cast<unsigned long long>(r.raw.Get("span.sampled")));
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(trace::SpanStage::kCount); ++i) {
      const std::string base =
          std::string("span.") + trace::ToString(static_cast<trace::SpanStage>(i));
      if (!r.raw.Has(base + ".count")) continue;
      out += StrFormat("  %-11s n=%-8llu mean %8.1f ns  p50 %8.1f ns  "
                       "p95 %8.1f ns\n",
                       trace::ToString(static_cast<trace::SpanStage>(i)),
                       static_cast<unsigned long long>(r.raw.Get(base + ".count")),
                       r.raw.Get(base + ".mean"), r.raw.Get(base + ".p50"),
                       r.raw.Get(base + ".p95"));
    }
    if (r.raw.Has("span.atomic.count")) {
      out += StrFormat("  atomic end-to-end: n=%llu mean %.1f ns  p50 %.1f ns  "
                       "p95 %.1f ns\n",
                       static_cast<unsigned long long>(
                           r.raw.Get("span.atomic.count")),
                       r.raw.Get("span.atomic.mean"),
                       r.raw.Get("span.atomic.p50"),
                       r.raw.Get("span.atomic.p95"));
    }
  }
  // Persistent-PMR section, present only when the persist domain ran
  // (pmem.enable=1 interns the family) and — like the span section —
  // strictly after the "uncore energy:" golden-diff cutoff.
  if (r.raw.Has("pmem.flushes")) {
    out += StrFormat(
        "pmem: %llu PMR stores, %llu flushes (%llu redundant), %llu fences | "
        "flush %.0f ns fence %.0f ns | %llu persisted, %llu unpersisted at "
        "end\n",
        static_cast<unsigned long long>(r.raw.Get("pmem.pmr_stores")),
        static_cast<unsigned long long>(r.raw.Get("pmem.flushes")),
        static_cast<unsigned long long>(r.raw.Get("pmem.redundant_flushes")),
        static_cast<unsigned long long>(r.raw.Get("pmem.fences")),
        r.raw.Get("pmem.flush_ns"), r.raw.Get("pmem.fence_ns"),
        static_cast<unsigned long long>(r.raw.Get("pmem.persisted_stores")),
        static_cast<unsigned long long>(r.raw.Get("pmem.unpersisted_at_end")));
  }
  return out;
}

std::string FormatBottleneckTable(const std::vector<SimResults>& results) {
  bool any = false;
  for (const SimResults& r : results) {
    if (r.raw.Has("span.atomic.count")) any = true;
  }
  if (!any) return std::string();

  const std::size_t kNumStages = static_cast<std::size_t>(trace::SpanStage::kCount);
  std::string out = "atomic bottleneck attribution (sampled spans, mean ns per "
                    "atomic / share of end-to-end):\n";
  out += StrFormat("  %-11s", "stage");
  for (const SimResults& r : results) {
    out += StrFormat(" %20s", r.mode.c_str());
  }
  out += "\n";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const std::string key = std::string("span.atomic.") +
                            trace::ToString(static_cast<trace::SpanStage>(i)) +
                            ".sum_ns";
    bool stage_any = false;
    for (const SimResults& r : results) {
      if (r.raw.Has(key)) stage_any = true;
    }
    if (!stage_any) continue;
    out += StrFormat("  %-11s", trace::ToString(static_cast<trace::SpanStage>(i)));
    for (const SimResults& r : results) {
      const double n = r.raw.Has("span.atomic.count")
                           ? r.raw.Get("span.atomic.count")
                           : 0.0;
      const double total = r.raw.Get("span.atomic.total_ns");
      if (n <= 0.0 || !r.raw.Has(key)) {
        out += StrFormat(" %20s", "-");
        continue;
      }
      const double sum = r.raw.Get(key);
      const double share = total > 0.0 ? 100.0 * sum / total : 0.0;
      out += StrFormat(" %12.1f (%4.1f%%)", sum / n, share);
    }
    out += "\n";
  }
  // The residual between the end-to-end span and the attributed stages:
  // overlap-free compute/dependency time the stages don't cover.
  out += StrFormat("  %-11s", "other");
  for (const SimResults& r : results) {
    if (!r.raw.Has("span.atomic.count")) {
      out += StrFormat(" %20s", "-");
      continue;
    }
    const double n = r.raw.Get("span.atomic.count");
    const double total = r.raw.Get("span.atomic.total_ns");
    const double un = r.raw.Has("span.atomic.unattributed_ns")
                          ? r.raw.Get("span.atomic.unattributed_ns")
                          : 0.0;
    const double share = total > 0.0 ? 100.0 * un / total : 0.0;
    out += StrFormat(" %12.1f (%4.1f%%)", n > 0.0 ? un / n : 0.0, share);
  }
  out += "\n";
  return out;
}

std::string ToJson(const SimResults& r) {
  std::string out = "{\n";
  out += StrFormat("  \"mode\": \"%s\",\n", r.mode.c_str());
  out += StrFormat("  \"cycles\": %llu,\n", static_cast<unsigned long long>(r.cycles));
  out += StrFormat("  \"insts\": %llu,\n", static_cast<unsigned long long>(r.insts));
  out += StrFormat("  \"seconds\": %.9f,\n", r.seconds);
  out += StrFormat("  \"ipc\": %.6f,\n", r.ipc);
  out += StrFormat("  \"l1_mpki\": %.3f,\n  \"l2_mpki\": %.3f,\n  \"l3_mpki\": %.3f,\n",
                   r.l1_mpki, r.l2_mpki, r.l3_mpki);
  out += StrFormat("  \"atomics\": %llu,\n",
                   static_cast<unsigned long long>(r.atomics));
  out += StrFormat("  \"offloaded_atomics\": %llu,\n",
                   static_cast<unsigned long long>(r.offloaded_atomics));
  out += StrFormat("  \"atomic_miss_rate\": %.4f,\n", r.atomic_miss_rate);
  out += StrFormat("  \"req_flits\": %.0f,\n  \"resp_flits\": %.0f,\n", r.req_flits,
                   r.resp_flits);
  if (r.link_crc_errors > 0 || r.poisoned_ops > 0 || r.vault_stalls > 0) {
    out += StrFormat("  \"fault\": {\"link_crc_errors\": %llu, "
                     "\"link_retries\": %llu, \"retry_flits\": %.0f, "
                     "\"poisoned_ops\": %llu, \"vault_stalls\": %llu},\n",
                     static_cast<unsigned long long>(r.link_crc_errors),
                     static_cast<unsigned long long>(r.link_retries),
                     r.retry_flits,
                     static_cast<unsigned long long>(r.poisoned_ops),
                     static_cast<unsigned long long>(r.vault_stalls));
  }
  out += StrFormat("  \"frac_backend\": %.4f,\n  \"frac_frontend\": %.4f,\n",
                   r.frac_backend, r.frac_frontend);
  out += StrFormat("  \"frac_badspec\": %.4f,\n  \"frac_retiring\": %.4f,\n",
                   r.frac_badspec, r.frac_retiring);
  out += StrFormat("  \"energy_j\": {\"caches\": %.9f, \"link\": %.9f, \"fu\": %.9f, "
                   "\"logic\": %.9f, \"dram\": %.9f, \"total\": %.9f},\n",
                   r.energy.caches_j, r.energy.link_j, r.energy.fu_j,
                   r.energy.logic_j, r.energy.dram_j, r.energy.Total());
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : r.raw.Items()) {
    if (!first) out += ", ";
    first = false;
    out += StrFormat("\"%s\": %.3f", k.c_str(), v);
  }
  out += "}\n}\n";
  return out;
}

void WriteJson(const SimResults& r, const std::string& path) {
  WriteTextFile(path, ToJson(r));
}

}  // namespace graphpim::core
