#include "telemetry/compare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace graphpim::telemetry {

namespace {

using Leaves = std::vector<std::pair<std::string, double>>;

// Appends every numeric leaf of `text`, keyed by its dotted path: numbers
// as read, booleans as 1 or 0. Nulls and strings add none. Every leaf is
// also handed to `also`, when given.
void Flatten(std::string_view text, Leaves* out,
             const JsonLeafFn& also = nullptr) {
  ForEachJsonLeaf(text, [&](const std::string& path, const JsonValue& leaf) {
    if (leaf.kind == JsonValue::Kind::kBool) {
      out->emplace_back(path, leaf.boolean ? 1.0 : 0.0);
    } else if (leaf.kind == JsonValue::Kind::kNum) {
      out->emplace_back(path, leaf.Num());
    }
    if (also) also(path, leaf);
  });
}

// Flattens one JSONL line with its keys prefixed by the line's identity:
// its first top-level point / window / phase fields when present
// ("point.<p>.window.<n>." for a pointed timeline), else a plain line
// ordinal.
void FlattenLine(std::string_view line, std::size_t line_idx, Leaves* out) {
  const std::size_t first = out->size();
  std::string point;
  std::string window;
  std::string phase;
  Flatten(line, out, [&](const std::string& path, const JsonValue& leaf) {
    const bool str = leaf.kind == JsonValue::Kind::kStr;
    if (path == "point" && str && point.empty()) {
      point = "point." + leaf.text + ".";
    } else if (path == "window" && leaf.kind == JsonValue::Kind::kNum &&
               window.empty()) {
      window = StrFormat("window.%.0f.", leaf.Num());
    } else if (path == "phase" && str && phase.empty()) {
      phase = "phase." + leaf.text + ".";
    }
  });
  std::string prefix = point + window;
  if (prefix.empty()) {
    prefix = phase.empty() ? StrFormat("line.%zu.", line_idx) : phase;
  }
  for (std::size_t j = first; j < out->size(); ++j) {
    (*out)[j].first.insert(0, prefix);
  }
}

FlatRun SortAndDedupe(Leaves values) {
  std::stable_sort(values.begin(), values.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  values.erase(std::unique(values.begin(), values.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               values.end());
  FlatRun run;
  run.values = std::move(values);
  return run;
}

double AbsDrift(const DriftRow& r) { return std::fabs(r.drift); }

}  // namespace

const double* FlatRun::Find(const std::string& key) const {
  auto it = std::lower_bound(
      values.begin(), values.end(), key,
      [](const auto& kv, const std::string& k) { return kv.first < k; });
  return (it != values.end() && it->first == key) ? &it->second : nullptr;
}

FlatRun FlattenRunJson(const std::string& text) {
  // Collect non-empty lines first: several parseable lines means JSONL
  // (timelines, phase logs, journals); otherwise the text is one JSON
  // document, possibly pretty-printed across lines.
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view raw = std::string_view(text).substr(pos, nl - pos);
    const std::size_t b = raw.find_first_not_of(" \t\r");
    if (b != std::string_view::npos) {
      lines.push_back(raw.substr(b, raw.find_last_not_of(" \t\r") - b + 1));
    }
    pos = nl + 1;
  }
  if (lines.empty()) GP_THROW("empty run artifact: nothing to compare");

  Leaves values;
  if (lines.size() > 1) {
    try {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        FlattenLine(lines[i], i, &values);
      }
      return SortAndDedupe(std::move(values));
    } catch (const SimError&) {
      values.clear();  // pretty-printed single document
    }
  }
  Flatten(text, &values);
  return SortAndDedupe(std::move(values));
}

DriftReport CompareRuns(const FlatRun& base, const FlatRun& head,
                        const CompareOptions& opts) {
  auto selected = [&](const std::string& k) {
    if (opts.keys.empty()) return true;
    for (const std::string& f : opts.keys) {
      if (StartsWith(k, f)) return true;
    }
    return false;
  };
  auto tol_for = [&](const std::string& k) {
    double tol = opts.rel_tol;
    std::size_t best = 0;
    bool found = false;
    for (const auto& [prefix, t] : opts.per_key) {
      if (StartsWith(k, prefix) && (!found || prefix.size() >= best)) {
        tol = t;
        best = prefix.size();
        found = true;
      }
    }
    return tol;
  };

  DriftReport rep;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.values.size() || j < head.values.size()) {
    DriftRow row;
    const bool take_base =
        j >= head.values.size() ||
        (i < base.values.size() && base.values[i].first <= head.values[j].first);
    const bool take_head =
        i >= base.values.size() ||
        (j < head.values.size() && head.values[j].first <= base.values[i].first);
    if (take_base && take_head) {
      row.key = base.values[i].first;
      row.base = base.values[i].second;
      row.head = head.values[j].second;
      ++i;
      ++j;
      if (!selected(row.key)) continue;
      row.tol = tol_for(row.key);
      const double diff = row.head - row.base;
      if (row.base != 0.0) {
        row.drift = diff / std::fabs(row.base);
      } else if (diff != 0.0) {
        row.drift = std::copysign(std::numeric_limits<double>::infinity(), diff);
      }
      const bool pass =
          std::fabs(diff) <= opts.abs_tol + row.tol * std::fabs(row.base);
      row.status = pass ? DriftRow::kPass : DriftRow::kFail;
      ++rep.compared;
      if (!pass) ++rep.failed;
    } else if (take_base) {
      row.key = base.values[i].first;
      row.base = base.values[i].second;
      row.status = DriftRow::kOnlyBase;
      ++i;
      if (!selected(row.key)) continue;
      ++rep.missing;
      if (opts.fail_on_missing) ++rep.failed;
    } else {
      row.key = head.values[j].first;
      row.head = head.values[j].second;
      row.status = DriftRow::kOnlyHead;
      ++j;
      if (!selected(row.key)) continue;
      ++rep.missing;
      if (opts.fail_on_missing) ++rep.failed;
    }
    rep.rows.push_back(std::move(row));
  }

  auto rank = [](const DriftRow& r) {
    switch (r.status) {
      case DriftRow::kFail: return 0;
      case DriftRow::kOnlyBase:
      case DriftRow::kOnlyHead: return 1;
      case DriftRow::kPass: return 2;
    }
    return 2;
  };
  std::stable_sort(rep.rows.begin(), rep.rows.end(),
                   [&](const DriftRow& a, const DriftRow& b) {
                     const int ra = rank(a);
                     const int rb = rank(b);
                     if (ra != rb) return ra < rb;
                     if (AbsDrift(a) != AbsDrift(b)) {
                       return AbsDrift(a) > AbsDrift(b);
                     }
                     return a.key < b.key;
                   });
  return rep;
}

std::string FormatDriftTable(const DriftReport& report, std::size_t max_rows) {
  std::string out = StrFormat("%-44s %14s %14s %10s %8s  %s\n", "counter",
                              "base", "head", "drift", "tol", "verdict");
  std::size_t shown = 0;
  std::size_t hidden = 0;
  for (const DriftRow& r : report.rows) {
    // Every failure prints, even past the row cap.
    if (shown >= max_rows && r.status != DriftRow::kFail) {
      ++hidden;
      continue;
    }
    std::string drift;
    const char* verdict = "ok";
    std::string base_s = trace::FormatStatValue(r.base);
    std::string head_s = trace::FormatStatValue(r.head);
    switch (r.status) {
      case DriftRow::kFail:
        verdict = "FAIL";
        [[fallthrough]];
      case DriftRow::kPass:
        drift = std::isinf(r.drift)
                    ? std::string(r.drift > 0 ? "+inf" : "-inf")
                    : StrFormat("%+.2f%%", r.drift * 100.0);
        break;
      case DriftRow::kOnlyBase:
        verdict = "base-only";
        drift = "gone";
        head_s = "-";
        break;
      case DriftRow::kOnlyHead:
        verdict = "head-only";
        drift = "new";
        base_s = "-";
        break;
    }
    const std::string tol =
        r.status == DriftRow::kPass || r.status == DriftRow::kFail
            ? StrFormat("%.3g%%", r.tol * 100.0)
            : std::string("-");
    out += StrFormat("%-44s %14s %14s %10s %8s  %s\n", r.key.c_str(),
                     base_s.c_str(), head_s.c_str(), drift.c_str(),
                     tol.c_str(), verdict);
    ++shown;
  }
  if (hidden > 0) {
    out += StrFormat("... %zu more rows within tolerance\n", hidden);
  }
  out += StrFormat(
      "compare: %zu keys compared, %zu over tolerance, %zu only in one run\n",
      report.compared, report.failed, report.missing);
  return out;
}

}  // namespace graphpim::telemetry
