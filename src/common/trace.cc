#include "common/trace.h"

#include <cmath>
#include <fstream>

#include "common/log.h"
#include "common/string_util.h"

namespace graphpim::trace {

namespace {

// "k1":v1,"k2":v2 — the body of every deltas/gauges/args object.
void AppendItems(const Items& items, std::string* out) {
  bool first = true;
  for (const auto& [k, v] : items) {
    if (!first) *out += ',';
    first = false;
    *out += '"' + JsonEscape(k) + "\":" + FormatStatValue(v);
  }
}

}  // namespace

std::string FormatStatValue(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.6g", v);
}

Interval* IntervalLog::Cut(std::string name, Tick start, Tick end,
                           const StatRegistry* reg) {
  if (max_ != 0 && intervals_.size() >= max_) {
    ++dropped_;
    return nullptr;
  }
  Interval iv;
  iv.name = std::move(name);
  iv.start = start;
  iv.end = end;
  if (reg != nullptr) {
    StatSnapshot now = reg->Snapshot();
    iv.deltas = DeltaItems(now, prev_);
    prev_ = std::move(now);
  }
  intervals_.push_back(std::move(iv));
  return &intervals_.back();
}

FixedWindows::FixedWindows(Tick width, IntervalLog* log, GaugeSampler gauges)
    : width_(width), next_(width), log_(log), gauges_(std::move(gauges)) {
  GP_CHECK(width > 0, "telemetry window must be at least one tick");
  GP_CHECK(log != nullptr);
}

void FixedWindows::CutWindow(Tick start, Tick end, const StatRegistry* reg) {
  Interval* w = log_->Cut(std::string(), start, end, reg);
  if (w != nullptr && gauges_) gauges_(start, end, &w->gauges);
}

void FixedWindows::AdvanceTo(Tick now, const StatRegistry* reg) {
  for (; next_ <= now; next_ += width_) {
    CutWindow(next_ - width_, next_, reg);
    reg = nullptr;  // virtual time inside one call is not subdividable
  }
}

void FixedWindows::Finish(Tick end, const StatRegistry* reg) {
  if (finished_) return;
  finished_ = true;
  AdvanceTo(end, reg);
  const Tick start = next_ - width_;
  if (end > start || log_->empty()) CutWindow(start, end, reg);
}

void RequireSink(double window_ns, bool has_sink, const char* hint) {
  if (window_ns > 0.0 && !has_sink) {
    GP_THROW("telemetry.window_ns=", window_ns,
             " but no telemetry sink is attached: ", hint);
  }
}

std::string PhasesToJsonl(const IntervalLog& log) {
  std::string out;
  for (const Interval& ph : log.intervals()) {
    out += StrFormat("{\"phase\":\"%s\",\"start_ns\":%.3f,\"end_ns\":%.3f,"
                     "\"deltas\":{",
                     JsonEscape(ph.name).c_str(), TicksToNs(ph.start),
                     TicksToNs(ph.end));
    AppendItems(ph.deltas, &out);
    out += "}}\n";
  }
  return out;
}

std::string WindowsToJsonl(const IntervalLog& log, const std::string& point) {
  std::string out;
  const std::vector<Interval>& ws = log.intervals();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    out += '{';
    if (!point.empty()) out += "\"point\":\"" + JsonEscape(point) + "\",";
    out += StrFormat("\"window\":%zu,\"start_ns\":%.3f,\"end_ns\":%.3f,"
                     "\"deltas\":{",
                     i, TicksToNs(ws[i].start), TicksToNs(ws[i].end));
    AppendItems(ws[i].deltas, &out);
    out += "},\"gauges\":{";
    AppendItems(ws[i].gauges, &out);
    out += "}}\n";
  }
  return out;
}

std::string ToChromeTrace(const IntervalLog& phases, const SpanLog* spans,
                          const std::vector<PointWindows>& windows) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  auto emit = [&](const std::string& event) {
    sep();
    out += "\n";
    out += event;
  };
  auto counter = [&](const std::string& name, int pid, Tick at,
                     const char* arg, double v) {
    emit(StrFormat("{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%d,\"ts\":%.6f,"
                   "\"args\":{\"%s\":%s}}",
                   JsonEscape(name).c_str(), pid, TicksToUs(at), arg,
                   FormatStatValue(v).c_str()));
  };
  for (const Interval& ph : phases.intervals()) {
    // One complete ("X") slice per phase, deltas attached as args.
    std::string ev = StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.6f,\"dur\":%.6f,\"args\":{",
        JsonEscape(ph.name).c_str(), TicksToUs(ph.start),
        TicksToUs(ph.end) - TicksToUs(ph.start));
    AppendItems(ph.deltas, &ev);
    ev += "}}";
    emit(ev);
    // One counter ("C") event per delta so Perfetto draws counter tracks.
    for (const auto& [k, v] : ph.deltas) counter(k, 1, ph.end, "delta", v);
  }
  if (spans != nullptr && !spans->empty()) {
    const std::string events = SpansToChromeEvents(*spans);
    if (!events.empty()) {
      sep();
      out += events;
    }
  }
  for (const PointWindows& pw : windows) {
    const std::string prefix = pw.point.empty() ? "" : pw.point + "|";
    for (const Interval& w : pw.windows->intervals()) {
      for (const auto& [k, v] : w.deltas) {
        counter(prefix + "tele:" + k, 3, w.end, "delta", v);
      }
      for (const auto& [k, v] : w.gauges) counter(prefix + k, 3, w.end, "value", v);
    }
  }
  // The empty document must still be strict JSON: "traceEvents":[] with no
  // stray newline inside the array.
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

void WriteTrace(const IntervalLog& phases, const std::string& path,
                const SpanLog* spans,
                const std::vector<PointWindows>& windows) {
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  std::ofstream f(path, std::ios::binary);
  if (!f) GP_THROW("cannot open metrics output file '", path, "'");
  if (jsonl) {
    f << PhasesToJsonl(phases);
    if (spans != nullptr) f << SpansToJsonl(*spans);
    for (const PointWindows& pw : windows) {
      f << WindowsToJsonl(*pw.windows, pw.point);
    }
  } else {
    f << ToChromeTrace(phases, spans, windows);
  }
  if (!f) GP_THROW("failed writing metrics output file '", path, "'");
}

}  // namespace graphpim::trace
