#include "exec/journal.h"

#include <fstream>
#include <initializer_list>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"

namespace graphpim::exec {

namespace {

// %.17g round-trips every finite double exactly; %llu keeps full-range
// 64-bit seeds intact (a double detour would silently lose low bits).
std::string D(double v) { return StrFormat("%.17g", v); }
std::string U(std::uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

// ---------------------------------------------------------------------------
// Row <-> line.

std::string ResultsToJson(const core::SimResults& r) {
  std::string s = "{";
  s += "\"mode\":\"" + JsonEscape(r.mode) + "\"";
  s += ",\"cycles\":" + U(r.cycles);
  s += ",\"insts\":" + U(r.insts);
  s += ",\"seconds\":" + D(r.seconds);
  s += ",\"ipc\":" + D(r.ipc);
  s += ",\"l1\":" + D(r.l1_mpki) + ",\"l2\":" + D(r.l2_mpki) +
       ",\"l3\":" + D(r.l3_mpki);
  s += ",\"amr\":" + D(r.atomic_miss_rate);
  s += ",\"atomics\":" + U(r.atomics);
  s += ",\"offloaded\":" + U(r.offloaded_atomics);
  s += ",\"reqf\":" + D(r.req_flits) + ",\"respf\":" + D(r.resp_flits);
  s += ",\"crc\":" + U(r.link_crc_errors);
  s += ",\"retries\":" + U(r.link_retries);
  s += ",\"retryf\":" + D(r.retry_flits);
  s += ",\"poisoned\":" + U(r.poisoned_ops);
  s += ",\"stalls\":" + U(r.vault_stalls);
  s += ",\"fractions\":[" + D(r.frac_atomic_incore) + ',' +
       D(r.frac_atomic_incache) + ',' + D(r.frac_atomic_dep) + ',' +
       D(r.frac_other) + ',' + D(r.frac_frontend) + ',' + D(r.frac_badspec) +
       ',' + D(r.frac_retiring) + ',' + D(r.frac_backend) + ']';
  s += ",\"energy\":[" + D(r.energy.caches_j) + ',' + D(r.energy.link_j) +
       ',' + D(r.energy.fu_j) + ',' + D(r.energy.logic_j) + ',' +
       D(r.energy.dram_j) + ']';
  // The full registry, merged "core." totals included — the compatibility
  // Items() view would silently drop them from the round trip.
  s += ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.raw.AllItems()) {
    if (!first) s += ',';
    first = false;
    s += '"' + JsonEscape(k) + "\":" + D(v);
  }
  s += "}}";
  return s;
}

// The member `key` of object `v`. Throws SimError when it is absent, so a
// line that lacks a field is dropped like a malformed one.
const JsonValue& Field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.Get(key);
  if (f == nullptr) GP_THROW("journal line lacks field '", key, "'");
  return *f;
}

const std::string& Str(const JsonValue& v, const char* key) {
  const JsonValue& f = Field(v, key);
  if (f.kind != JsonValue::Kind::kStr) {
    GP_THROW("journal field '", key, "' is not a string");
  }
  return f.text;
}

// Reads the array `key` of `v` into `dst`, which must match it in length.
void Doubles(const JsonValue& v, const char* key,
             std::initializer_list<double*> dst) {
  const JsonValue& f = Field(v, key);
  if (f.kind != JsonValue::Kind::kArr || f.arr.size() != dst.size()) {
    GP_THROW("journal field '", key, "' is not an array of ", dst.size());
  }
  std::size_t i = 0;
  for (double* d : dst) *d = f.arr[i++].Num();
}

core::SimResults ResultsFromJson(const JsonValue& v) {
  core::SimResults r;
  r.mode = Str(v, "mode");
  r.cycles = Field(v, "cycles").U64();
  r.insts = Field(v, "insts").U64();
  r.seconds = Field(v, "seconds").Num();
  r.ipc = Field(v, "ipc").Num();
  r.l1_mpki = Field(v, "l1").Num();
  r.l2_mpki = Field(v, "l2").Num();
  r.l3_mpki = Field(v, "l3").Num();
  r.atomic_miss_rate = Field(v, "amr").Num();
  r.atomics = Field(v, "atomics").U64();
  r.offloaded_atomics = Field(v, "offloaded").U64();
  r.req_flits = Field(v, "reqf").Num();
  r.resp_flits = Field(v, "respf").Num();
  r.link_crc_errors = Field(v, "crc").U64();
  r.link_retries = Field(v, "retries").U64();
  r.retry_flits = Field(v, "retryf").Num();
  r.poisoned_ops = Field(v, "poisoned").U64();
  r.vault_stalls = Field(v, "stalls").U64();
  Doubles(v, "fractions",
          {&r.frac_atomic_incore, &r.frac_atomic_incache, &r.frac_atomic_dep,
           &r.frac_other, &r.frac_frontend, &r.frac_badspec, &r.frac_retiring,
           &r.frac_backend});
  Doubles(v, "energy",
          {&r.energy.caches_j, &r.energy.link_j, &r.energy.fu_j,
           &r.energy.logic_j, &r.energy.dram_j});
  const JsonValue& cnt = Field(v, "counters");
  if (cnt.kind != JsonValue::Kind::kObj) {
    GP_THROW("journal field 'counters' is not an object");
  }
  for (const auto& [k, cv] : cnt.obj) r.raw.Set(k, cv.Num());
  return r;
}

std::string RowToJson(const SweepRow& row) {
  std::string s = "{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += ",\"workload\":\"" + JsonEscape(row.workload) + "\"";
  s += ",\"profile\":\"" + JsonEscape(row.profile) + "\"";
  s += ",\"config\":\"" + JsonEscape(row.config_name) + "\"";
  s += ",\"seed\":" + U(row.seed);
  s += ",\"wall_ms\":" + D(row.wall_ms);
  s += ",\"r\":" + ResultsToJson(row.results);
  s += "}";
  return s;
}

// Restores one journaled OK row. Throws SimError when a field is missing
// or has the wrong type.
SweepRow RowFromJson(const JsonValue& v) {
  SweepRow row;
  row.workload_idx = static_cast<std::size_t>(Field(v, "w").U64());
  row.profile_idx = static_cast<std::size_t>(Field(v, "p").U64());
  row.config_idx = static_cast<std::size_t>(Field(v, "c").U64());
  row.workload = Str(v, "workload");
  row.profile = Str(v, "profile");
  row.config_name = Str(v, "config");
  row.seed = Field(v, "seed").U64();
  row.wall_ms = Field(v, "wall_ms").Num();
  row.results = ResultsFromJson(Field(v, "r"));
  row.status = JobStatus::kOk;
  row.from_journal = true;
  return row;
}

}  // namespace

std::string GridFingerprint(const SweepGrid& grid) {
  // v2: rows serialize the unified registry ("counters" includes the
  // merged core.* totals; the legacy fixed-order "core" array is gone).
  // Bumping the version makes pre-registry journals mismatch cleanly
  // instead of resuming with silently core-less rows.
  std::string fp = "v2|w=";
  for (std::size_t i = 0; i < grid.workloads.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.workloads[i];
  }
  fp += "|p=";
  for (std::size_t i = 0; i < grid.profiles.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.profiles[i];
  }
  fp += "|c=";
  for (std::size_t i = 0; i < grid.configs.size(); ++i) {
    if (i != 0) fp += ',';
    fp += grid.config_names[i];
    fp += '{';
    fp += grid.configs[i].Describe();
    fp += ';';
    fp += grid.configs[i].hmc.fault.Describe();
    fp += '}';
  }
  fp += StrFormat("|n=%llu|t=%d|cap=%llu|seed=%llu",
                  static_cast<unsigned long long>(grid.vertices),
                  grid.sim_threads,
                  static_cast<unsigned long long>(grid.op_cap),
                  static_cast<unsigned long long>(grid.base_seed));
  return fp;
}

void JournalWriter::Open(const std::string& path,
                         const std::string& fingerprint) {
  Close();
  // A SIGKILL mid-write can leave a torn final line with no newline. If we
  // appended straight after it, the next row would fuse with the fragment
  // and BOTH would be dropped as one malformed line on the next load — so
  // seal the tear with a newline before appending anything.
  bool torn_tail = false;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    if (std::fseek(probe, -1, SEEK_END) == 0) {
      torn_tail = std::fgetc(probe) != '\n';
    }
    std::fclose(probe);
  }
  // "a" keeps rows already journaled by an interrupted run; ftell tells us
  // whether a header is still needed.
  f_ = std::fopen(path.c_str(), "a");
  if (f_ == nullptr) {
    GP_THROW("cannot open sweep journal '", path, "' for append");
  }
  if (torn_tail) std::fputc('\n', f_);
  if (std::ftell(f_) == 0) {
    std::string hdr = "{\"graphpim_sweep_journal\":1,\"fingerprint\":\"" +
                      JsonEscape(fingerprint) + "\"}\n";
    std::fwrite(hdr.data(), 1, hdr.size(), f_);
    std::fflush(f_);
  }
}

void JournalWriter::Append(const SweepRow& row) {
  if (f_ == nullptr) return;
  std::string line = RowToJson(row) + "\n";
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fflush(f_);
}

void JournalWriter::AppendSidecar(const char* kind, const SweepRow& row,
                                  const char* list, const std::string& jsonl) {
  // Sidecar line, keyed by the row's grid coordinates; its list holds the
  // lines of `jsonl`, so a sidecar element is byte-equal to the matching
  // line of the standalone export. LoadJournal skips sidecars by prefix
  // without counting them as dropped, so an annotated journal resumes
  // exactly like a plain one.
  std::string s = "{\"" + std::string(kind) + "\":{";
  s += "\"w\":" + U(row.workload_idx);
  s += ",\"p\":" + U(row.profile_idx);
  s += ",\"c\":" + U(row.config_idx);
  s += "},\"" + std::string(list) + "\":[";
  bool first = true;
  for (std::size_t pos = 0; pos < jsonl.size();) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    if (!first) s += ',';
    first = false;
    s.append(jsonl, pos, nl - pos);
    pos = nl + 1;
  }
  s += "]}\n";
  std::fwrite(s.data(), 1, s.size(), f_);
  std::fflush(f_);
}

void JournalWriter::AppendPhases(const SweepRow& row,
                                 const trace::IntervalLog& log) {
  if (f_ == nullptr || log.empty()) return;
  AppendSidecar("phases_for", row, "phases", trace::PhasesToJsonl(log));
}

void JournalWriter::AppendSpans(const SweepRow& row,
                                const trace::SpanLog& log) {
  if (f_ == nullptr || log.empty()) return;
  AppendSidecar("spans_for", row, "spans", trace::SpansToJsonl(log));
}

void JournalWriter::AppendTimeline(const SweepRow& row,
                                   const trace::IntervalLog& tl) {
  if (f_ == nullptr || tl.empty()) return;
  AppendSidecar("timeline_for", row, "windows", trace::WindowsToJsonl(tl));
}

void JournalWriter::Close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

bool LoadJournal(const std::string& path, JournalData* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      try {
        out->fingerprint = Str(ParseJson(line), "fingerprint");
      } catch (const SimError&) {
        ++out->dropped_lines;
      }
      continue;
    }
    // Sidecar lines ({"phases_for":...}, {"spans_for":...},
    // {"timeline_for":...}) are informational: not rows, not errors — skip
    // without counting them as dropped.
    if (line.compare(0, 14, "{\"phases_for\":") == 0) continue;
    if (line.compare(0, 13, "{\"spans_for\":") == 0) continue;
    if (line.compare(0, 16, "{\"timeline_for\":") == 0) continue;
    try {
      out->rows.push_back(RowFromJson(ParseJson(line)));
    } catch (const SimError&) {
      // Malformed or truncated (e.g. SIGKILL mid-write): the row will
      // simply be re-simulated.
      ++out->dropped_lines;
    }
  }
  return true;
}

}  // namespace graphpim::exec
