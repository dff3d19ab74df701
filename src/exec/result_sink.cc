#include "exec/result_sink.h"

#include "common/string_util.h"
#include "core/report.h"

namespace graphpim::exec {

namespace {

// Indents a multi-line JSON fragment by `pad` spaces (for embedding
// core::ToJson() output inside a row object).
std::string Indent(const std::string& json, int pad) {
  std::string prefix(static_cast<std::size_t>(pad), ' ');
  std::string out;
  out.reserve(json.size() + 64);
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == '\n' && i + 1 < json.size()) out += prefix;
  }
  // Drop a trailing newline so the caller controls layout.
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string CsvBody(const SweepResultTable& t, bool with_timing) {
  std::string out = "workload,profile,config,seed,cycles,insts,ipc,l1_mpki,"
                    "l2_mpki,l3_mpki,atomics,offloaded_atomics,atomic_miss_rate,"
                    "req_flits,resp_flits,energy_total_j,speedup_vs_first";
  if (with_timing) out += ",wall_ms";
  out += "\n";
  for (const SweepRow& r : t.rows) {
    const core::SimResults& s = r.results;
    out += StrFormat(
        "%s,%s,%s,%llu,%llu,%llu,%.6f,%.3f,%.3f,%.3f,%llu,%llu,%.4f,%.0f,%.0f,"
        "%.9f,%.4f",
        r.workload.c_str(), r.profile.c_str(), r.config_name.c_str(),
        static_cast<unsigned long long>(r.seed),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.insts), s.ipc, s.l1_mpki, s.l2_mpki,
        s.l3_mpki, static_cast<unsigned long long>(s.atomics),
        static_cast<unsigned long long>(s.offloaded_atomics),
        s.atomic_miss_rate, s.req_flits, s.resp_flits, s.energy.Total(),
        t.SpeedupVsFirstConfig(r));
    if (with_timing) out += StrFormat(",%.3f", r.wall_ms);
    out += "\n";
  }
  return out;
}

}  // namespace

std::string ToJson(const SweepResultTable& t) {
  std::string out = "{\n";
  out += StrFormat("  \"jobs\": %llu,\n",
                   static_cast<unsigned long long>(t.rows.size()));
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    const SweepRow& r = t.rows[i];
    out += "    {\n";
    out += StrFormat("      \"workload\": \"%s\",\n", r.workload.c_str());
    out += StrFormat("      \"profile\": \"%s\",\n", r.profile.c_str());
    out += StrFormat("      \"config\": \"%s\",\n", r.config_name.c_str());
    out += StrFormat("      \"seed\": %llu,\n",
                     static_cast<unsigned long long>(r.seed));
    // Fault-tolerance fields only when a job actually failed, so
    // fault-free sweeps serialize byte-identically to the ideal model.
    if (r.status != JobStatus::kOk) {
      out += StrFormat("      \"status\": \"%s\",\n", ToString(r.status));
      out += StrFormat("      \"error\": \"%s\",\n", JsonEscape(r.error).c_str());
    }
    out += StrFormat("      \"speedup_vs_first\": %.6f,\n",
                     t.SpeedupVsFirstConfig(r));
    out += StrFormat("      \"wall_ms\": %.3f,\n", r.wall_ms);
    out += "      \"result\": " + Indent(core::ToJson(r.results), 6) + "\n";
    out += (i + 1 < t.rows.size()) ? "    },\n" : "    }\n";
  }
  out += "  ],\n";
  out += "  \"timing\": {\n";
  out += StrFormat("    \"total_wall_ms\": %.3f,\n", t.total_wall_ms);
  out += StrFormat("    \"build_wall_ms\": %.3f,\n", t.build_wall_ms);
  out += StrFormat("    \"run_wall_ms\": %.3f,\n", t.run_wall_ms);
  out += StrFormat("    \"job_wall_ms_mean\": %.3f,\n", t.job_wall_ms.Mean());
  out += StrFormat("    \"job_wall_ms_p50\": %.3f,\n",
                   t.job_wall_ms.Percentile(50));
  out += StrFormat("    \"job_wall_ms_p95\": %.3f,\n",
                   t.job_wall_ms.Percentile(95));
  out += StrFormat("    \"job_wall_ms_max\": %.3f\n", t.job_wall_ms.max());
  out += "  }\n}\n";
  return out;
}

std::string ToCsv(const SweepResultTable& t) { return CsvBody(t, true); }

std::string ToDeterministicCsv(const SweepResultTable& t) {
  return CsvBody(t, false);
}

void WriteJson(const SweepResultTable& t, const std::string& path) {
  WriteTextFile(path, ToJson(t));
}

void WriteCsv(const SweepResultTable& t, const std::string& path) {
  WriteTextFile(path, ToCsv(t));
}

void WriteDeterministicCsv(const SweepResultTable& t, const std::string& path) {
  WriteTextFile(path, ToDeterministicCsv(t));
}

}  // namespace graphpim::exec
