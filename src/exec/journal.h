// Crash-safe sweep journal (DESIGN.md §9).
//
// An append-only JSONL file: one header line fingerprinting the grid, then
// one line per finished OK row. Rows are appended in grid order as the
// runner harvests them and flushed immediately, so a SIGKILL loses at most
// the line being written; a truncated trailing line is silently dropped on
// load. Doubles are emitted with %.17g (exact round-trip), so a row
// restored by --resume is bit-identical to the row that was journaled —
// which, by the determinism contract, is bit-identical to what re-running
// the job would have produced.
//
// Each line is read by the shared strict JSON reader (common/json.h). A
// line it rejects, or one that lacks a row field, is dropped and counted,
// never thrown, so a corrupt journal degrades to a shorter one instead of
// a crash.
#ifndef GRAPHPIM_EXEC_JOURNAL_H_
#define GRAPHPIM_EXEC_JOURNAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/sweep.h"

namespace graphpim::exec {

// Stable identity of a grid: workloads, profiles, config names + machine
// descriptors (including fault knobs), sizing, and base seed. A journal
// written under a different fingerprint must not be resumed — the
// coordinates would mean different experiments.
std::string GridFingerprint(const SweepGrid& grid);

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { Close(); }

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens `path` for append, writing the header line first when the file
  // is new or empty. Throws SimError when the path is unwritable.
  void Open(const std::string& path, const std::string& fingerprint);

  bool is_open() const { return f_ != nullptr; }

  // Appends one finished OK row and flushes it.
  void Append(const SweepRow& row);

  // Appends a `{"phases_for":{coords},"phases":[...]}` sidecar line with
  // the row's per-superstep counter deltas, each element a --metrics-out
  // JSONL phase line. LoadJournal skips sidecar lines (they are
  // annotations, not rows), so a resume neither needs nor loses them.
  // No-op when the log is empty.
  void AppendPhases(const SweepRow& row, const trace::IntervalLog& log);

  // Appends a `{"spans_for":{coords},"spans":[...]}` sidecar line with the
  // row's sampled transaction spans (the flight-recorder output under
  // trace.sample_rate > 0). Skipped by LoadJournal like phase sidecars.
  // No-op when the log is empty.
  void AppendSpans(const SweepRow& row, const trace::SpanLog& log);

  // Appends a `{"timeline_for":{coords},"windows":[...]}` sidecar line
  // with the row's telemetry windows (telemetry.window_ns > 0), each
  // element a --timeline-out line. Skipped by LoadJournal like the other
  // sidecars. No-op on an empty timeline.
  void AppendTimeline(const SweepRow& row, const trace::IntervalLog& tl);

  void Close();

 private:
  // Writes `{"<kind>":{coords},"<list>":[...]}` whose list elements are
  // the lines of `jsonl`, and flushes it.
  void AppendSidecar(const char* kind, const SweepRow& row, const char* list,
                     const std::string& jsonl);

  std::FILE* f_ = nullptr;
};

struct JournalData {
  std::string fingerprint;
  std::vector<SweepRow> rows;     // all restored rows are status=kOk
  std::size_t dropped_lines = 0;  // malformed/truncated lines skipped
};

// Loads a journal. False when the file does not exist (fresh start); a
// file with an unreadable header loads as zero rows with an empty
// fingerprint, which the runner then rejects as a mismatch.
bool LoadJournal(const std::string& path, JournalData* out);

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_JOURNAL_H_
