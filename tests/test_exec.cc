// src/exec tests: thread-pool lifecycle (drain-on-shutdown, futures,
// exceptions, queue order), deterministic sweep seeding, the grid-spec parser, the
// result sinks, and the headline regression — a small BFS grid must produce
// bit-identical results at --jobs=1 and --jobs=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/report.h"
#include "exec/progress.h"
#include "exec/result_sink.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"

namespace graphpim::exec {
namespace {

// A manually released gate used to hold a worker busy while the test pokes
// at the pool's pending queue.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  auto g = pool.Submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_EQ(f.get(), 42);
  g.get();  // a void task's future becomes ready once it ran
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    Gate gate;
    pool.Submit([&] { gate.Wait(); });
    // These sit pending behind the gated task; Shutdown must run them all.
    for (int i = 0; i < 16; ++i) pool.Submit([&] { ran.fetch_add(1); });
    gate.Open();
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), 16);
}

// Every round leaves the single worker idle, so every Submit has to wake
// it. A lost wakeup strands the task in the queue; the timed wait turns
// that into a failure instead of a hang.
TEST(ThreadPool, SubmitWakesAnIdleWorkerEveryTime) {
  ThreadPool pool(1);
  for (int i = 0; i < 20000; ++i) {
    auto f = pool.Submit([i] { return i; });
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "task " << i << " was never run";
    ASSERT_EQ(f.get(), i);
  }
}

// A throwing task hands its exception to the future instead of taking the
// worker down: the pool's only worker must still run the next task.
TEST(ThreadPool, TaskExceptionRethrowsAtGetAndThePoolRunsOn) {
  ThreadPool pool(1);
  auto bad = pool.Submit([]() -> int { GP_THROW("replay failed"); });
  EXPECT_THROW(bad.get(), SimError);
  auto good = pool.Submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

// A sweep cell submits its replays from a worker; they must run before the
// next cell's build, which was queued from outside earlier.
TEST(ThreadPool, WorkerSubmissionsRunBeforeEarlierExternalTasks) {
  ThreadPool pool(1);
  Gate gate;
  std::mutex mu;
  std::vector<std::string> order;
  auto log = [&](const std::string& name) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(name);
  };
  auto outer = pool.Submit([&] {
    gate.Wait();  // until the external tasks below are queued
    log("outer");
    return pool.Submit([&] { log("inner"); });
  });
  std::vector<std::future<void>> external;
  for (const char* name : {"ext0", "ext1"}) {
    external.push_back(pool.Submit([&log, name] { log(name); }));
  }
  gate.Open();
  outer.get().get();
  for (auto& f : external) f.get();
  EXPECT_EQ(order,
            (std::vector<std::string>{"outer", "inner", "ext0", "ext1"}));
}

// The pool destroys a task's callable before its future becomes ready, so
// an unharvested result does not pin what the task captured (in a sweep,
// the cell's whole Experiment).
TEST(ThreadPool, FinishedTaskReleasesItsCapturesBeforeTheFutureIsRead) {
  ThreadPool pool(1);
  auto captured = std::make_shared<int>(5);
  auto f = pool.Submit([captured] { return *captured; });
  ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(captured.use_count(), 1);
  EXPECT_EQ(f.get(), 5);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesInsideFromOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.OnWorkerThread());
  auto f = pool.Submit([&pool] { return pool.OnWorkerThread(); });
  EXPECT_TRUE(f.get());
}

// Results come back in index order whatever order the calls finish in,
// and `done` sees every index exactly once.
TEST(ThreadPool, ParallelMapReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> seen;  // guarded by ParallelMap's done lock
  const std::vector<int> out = ParallelMap(
      pool, 64,
      [](std::size_t i) {
        // Early indices finish last.
        std::this_thread::sleep_for(std::chrono::microseconds(64 - i));
        return static_cast<int>(i * i);
      },
      [&](std::size_t i, double wall_ms, const int& r) {
        EXPECT_GE(wall_ms, 0.0);
        EXPECT_EQ(r, static_cast<int>(i * i));
        seen.push_back(static_cast<int>(i));
      });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(ParallelMap(pool, 0, [](std::size_t) { return 1; }).empty());
}

// A nested map on a worker runs inline on that worker: with one worker,
// waiting on the pool instead would deadlock.
TEST(ThreadPool, ParallelMapNestedOnAWorkerRunsInline) {
  ThreadPool pool(1);
  const std::vector<std::vector<std::thread::id>> out =
      ParallelMap(pool, 3, [&](std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        std::vector<std::thread::id> ids = ParallelMap(
            pool, 4, [](std::size_t) { return std::this_thread::get_id(); });
        ids.push_back(outer);
        return ids;
      });
  ASSERT_EQ(out.size(), 3u);
  for (const auto& ids : out) {
    ASSERT_EQ(ids.size(), 5u);
    for (const std::thread::id& id : ids) EXPECT_EQ(id, ids.back());
    EXPECT_NE(ids.back(), std::this_thread::get_id());
  }
}

// A throwing call reaches the caller only after every call has finished,
// and `done` fires for each call that returned.
TEST(ThreadPool, ParallelMapPropagatesExceptionsAndCountsDone) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::size_t done_calls = 0;
  EXPECT_THROW(ParallelMap(
                   pool, 16,
                   [&](std::size_t i) {
                     std::this_thread::sleep_for(std::chrono::microseconds(50));
                     ran.fetch_add(1);
                     if (i == 5) GP_THROW("replay failed");
                     return i;
                   },
                   [&](std::size_t, double, const std::size_t&) {
                     ++done_calls;
                   }),
               SimError);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(done_calls, 15u);
  // The pool runs on after the throw.
  EXPECT_EQ(ParallelMap(pool, 2, [](std::size_t i) { return i + 1; }),
            (std::vector<std::size_t>{1, 2}));
}

TEST(SweepSeed, DeterministicAndDecorrelated) {
  const std::uint64_t a = DeriveCellSeed(1, 0, 0);
  EXPECT_EQ(a, DeriveCellSeed(1, 0, 0));  // pure function of its inputs
  std::set<std::uint64_t> seeds;
  for (std::size_t w = 0; w < 8; ++w) {
    for (std::size_t p = 0; p < 4; ++p) seeds.insert(DeriveCellSeed(1, w, p));
  }
  EXPECT_EQ(seeds.size(), 32u);  // no collisions across a realistic grid
  EXPECT_NE(DeriveCellSeed(1, 0, 0), DeriveCellSeed(2, 0, 0));
}

TEST(SweepGridSpec, ParsesEveryKey) {
  const SweepGrid g = ParseGridSpec(
      "workloads=bfs,prank;profiles=ldbc,twitter;modes=baseline,graphpim;"
      "vertices=2048;threads=8;opcap=100000;seed=7;full=0");
  EXPECT_EQ(g.workloads, (std::vector<std::string>{"bfs", "prank"}));
  EXPECT_EQ(g.profiles, (std::vector<std::string>{"ldbc", "twitter"}));
  ASSERT_EQ(g.configs.size(), 2u);
  EXPECT_EQ(g.config_names[0], "Baseline");
  EXPECT_EQ(g.config_names[1], "GraphPIM");
  EXPECT_EQ(g.vertices, 2048u);
  EXPECT_EQ(g.sim_threads, 8);
  EXPECT_EQ(g.op_cap, 100000u);
  EXPECT_EQ(g.base_seed, 7u);
  EXPECT_EQ(g.NumCells(), 4u);
  EXPECT_EQ(g.NumJobs(), 8u);
}

TEST(SweepGridSpec, ModeAllExpandsToThePaperMachines) {
  const SweepGrid g = ParseGridSpec("workloads=bfs;modes=all");
  ASSERT_EQ(g.configs.size(), 3u);
  EXPECT_EQ(g.config_names,
            (std::vector<std::string>{"Baseline", "U-PEI", "GraphPIM"}));
}

// Grid-spec user errors throw SimError (recoverable) so a driver or
// harness can report them without dying; the message names the accepted
// keys to make typos self-diagnosing.
TEST(SweepGridSpec, RejectsUnknownKeysAndEmptyWorkloads) {
  try {
    ParseGridSpec("workloads=bfs;bogus=1");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("unknown grid spec key"), std::string::npos);
    EXPECT_NE(e.message().find("link_ber"), std::string::npos);  // lists keys
  }
  EXPECT_THROW({ ParseGridSpec("modes=all"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vertices=abc"); }, SimError);
  // A retired knob is an unknown key like any other.
  EXPECT_THROW(ParseGridSpec("workloads=bfs;sim.shards=4"), SimError);
}

TEST(SweepGridSpec, RejectsMalformedAndOutOfRangeFields) {
  // Not key=value.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;threads"); }, SimError);
  // Duplicates (same workload/profile twice would double-count cells).
  EXPECT_THROW({ ParseGridSpec("workloads=bfs,bfs"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;profiles=ldbc,ldbc"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;modes=baseline,baseline"); },
               SimError);
  // Out-of-range numerics.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vertices=0"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;threads=0"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=1.5"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=-1e-9"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;link_ber=abc"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;vault_stall_ppm=2000000"); },
               SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;poison_ppm=1000001"); }, SimError);
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;retry_ns=-1"); }, SimError);
  // A key given twice is ambiguous.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;modes=all;modes=baseline"); },
               SimError);
  // Unknown mode names come through ParseModeList.
  EXPECT_THROW({ ParseGridSpec("workloads=bfs;modes=warp9"); }, SimError);
  EXPECT_THROW({ ParseModeList(""); }, SimError);
}

TEST(SweepGridSpec, RejectsSignsOverflowAndEmbeddedNul) {
  // strtoull wraps "-1" to 2^64-1; a VertexId cast would then truncate.
  EXPECT_THROW(ParseGridSpec("workloads=bfs;vertices=-2048"), SimError);
  EXPECT_THROW(ParseGridSpec("workloads=bfs;opcap=-1"), SimError);
  EXPECT_THROW(ParseGridSpec("workloads=bfs;vertices=4294967298"), SimError);
  EXPECT_THROW(ParseGridSpec("workloads=bfs;threads=4294967304"), SimError);
  EXPECT_THROW(ParseGridSpec("workloads=bfs;seed=99999999999999999999"), SimError);
  // A NUL inside a value would end the C string the parser reads.
  EXPECT_THROW(ParseGridSpec(std::string("workloads=bfs;vertices=20") + '\0' + "x"),
               SimError);
  EXPECT_THROW(ParseGridSpec(std::string("workloads=bfs;link_ber=1e-9") + '\0' + "x"),
               SimError);
  EXPECT_EQ(ParseGridSpec("workloads=bfs;vertices=4294967295").vertices,
            4294967295u);
}

TEST(SweepGridSpec, FaultKeysApplyToEveryConfig) {
  SweepGrid g = ParseGridSpec(
      "workloads=bfs;modes=baseline,graphpim;link_ber=1e-9;"
      "vault_stall_ppm=50;poison_ppm=5;max_retries=7;retry_ns=12");
  ASSERT_EQ(g.configs.size(), 2u);
  for (const core::SimConfig& c : g.configs) {
    EXPECT_DOUBLE_EQ(c.hmc.fault.link_ber, 1e-9);
    EXPECT_EQ(c.hmc.fault.vault_stall_ppm, 50u);
    EXPECT_EQ(c.hmc.fault.poison_ppm, 5u);
    EXPECT_EQ(c.hmc.fault.max_retries, 7u);
    EXPECT_EQ(c.hmc.fault.retry_latency, NsToTicks(12.0));
    EXPECT_EQ(c.hmc.fault.seed, 0u);  // per-job seed is derived at run time
    EXPECT_TRUE(c.hmc.fault.Enabled());
  }
  // Zero knobs leave the fault plan disabled (ideal-cube path).
  SweepGrid ideal = ParseGridSpec("workloads=bfs");
  EXPECT_FALSE(ideal.configs[0].hmc.fault.Enabled());
}

TEST(ExpandConfigs, NamesFollowModesAndCubeCounts) {
  const std::vector<core::Mode> modes = {core::Mode::kBaseline,
                                         core::Mode::kGraphPim};
  Config machine;
  NamedConfigs one = ExpandConfigs(machine, modes);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].first, "Baseline");
  EXPECT_EQ(one[1].first, "GraphPIM");
  EXPECT_EQ(one[1].second.mode, core::Mode::kGraphPim);
  EXPECT_EQ(one[1].second.hmc.num_cubes, 1u);  // the table default

  // One count keeps the bare mode name; either spelling works.
  machine.Set("num-cubes", "4");
  one = ExpandConfigs(machine, modes);
  EXPECT_EQ(one[0].first, "Baseline");
  EXPECT_EQ(one[0].second.hmc.num_cubes, 4u);

  // More than one count suffixes "-c<N>", mode-major.
  Config multi;
  multi.Set("num_cubes", "1, 2");
  multi.Set("linkbw", "2");
  const NamedConfigs grid = ExpandConfigs(multi, modes);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].first, "Baseline-c1");
  EXPECT_EQ(grid[1].first, "Baseline-c2");
  EXPECT_EQ(grid[2].first, "GraphPIM-c1");
  EXPECT_EQ(grid[3].first, "GraphPIM-c2");
  EXPECT_EQ(grid[3].second.hmc.num_cubes, 2u);
  for (const auto& named : grid) {
    EXPECT_DOUBLE_EQ(named.second.hmc.link_bw_scale, 2.0);  // every knob
  }
}

TEST(ExpandConfigs, RejectsDuplicateModesAndBadCounts) {
  Config machine;
  EXPECT_THROW(ExpandConfigs(machine, ParseModeList("baseline,baseline")),
               SimError);
  EXPECT_THROW(ExpandConfigs(machine, ParseModeList("all,graphpim")),
               SimError);
  for (const char* bad : {"0", "1.5", "-2", "1,0", ",", "abc"}) {
    Config c;
    c.Set("num-cubes", bad);
    EXPECT_THROW(ExpandConfigs(c, {core::Mode::kBaseline}), SimError) << bad;
  }
  Config twice;
  twice.Set("num_cubes", "2,2");
  EXPECT_THROW(ExpandConfigs(twice, {core::Mode::kBaseline}), SimError);
}

// Shared tiny grid for the runner tests: 1 workload x 1 profile x 3 paper
// machines on a small graph, so the whole sweep stays fast enough for CI.
SweepGrid TinyGrid() {
  SweepGrid g = ParseGridSpec("workloads=bfs;modes=all");
  g.vertices = 2048;
  g.op_cap = 120'000;
  return g;
}

TEST(SweepRunner, RowsComeBackInGridOrderWithProgress) {
  std::mutex mu;
  std::size_t calls = 0;
  SweepRunner::Options opts;
  opts.jobs = 2;
  opts.on_progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lk(mu);
    ++calls;
    EXPECT_EQ(p.total, 3u);
  };
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(t.rows[0].config_name, "Baseline");
  EXPECT_EQ(t.rows[1].config_name, "U-PEI");
  EXPECT_EQ(t.rows[2].config_name, "GraphPIM");
  for (const SweepRow& r : t.rows) {
    EXPECT_EQ(r.workload, "bfs");
    EXPECT_GT(r.results.cycles, 0u);
  }
  // GraphPIM must beat the baseline even on the tiny graph.
  EXPECT_GT(t.SpeedupVsFirstConfig(t.rows[2]), 1.0);
  const SweepRow* found = t.Find("bfs", "ldbc", "GraphPIM");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->config_idx, 2u);
  EXPECT_EQ(t.Find("bfs", "ldbc", "nope"), nullptr);
}

TEST(SweepProgressLine, FormatsCountersEtaAndFailureMarker) {
  SweepProgress p;
  p.completed = 2;
  p.total = 6;
  p.workload = "bfs";
  p.profile = "ldbc";
  p.config_name = "GraphPIM";
  p.wall_ms = 123.0;
  // ETA = elapsed/completed * remaining = 2000/2 * 4 = 4000 ms -> 4s.
  const std::string line = FormatProgressLine(p, 2000.0);
  EXPECT_NE(line.find("[  2/  6]"), std::string::npos) << line;
  EXPECT_NE(line.find("bfs"), std::string::npos);
  EXPECT_NE(line.find("GraphPIM"), std::string::npos);
  EXPECT_NE(line.find("| ETA 4s"), std::string::npos) << line;
  EXPECT_EQ(line.find("FAILED"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // Zero completed never divides by zero.
  p.completed = 0;
  EXPECT_NE(FormatProgressLine(p, 2000.0).find("ETA 0s"), std::string::npos);
  // Failed jobs are marked.
  p.completed = 2;
  p.status = JobStatus::kFailed;
  const std::string failed = FormatProgressLine(p, 2000.0);
  EXPECT_NE(failed.find("  FAILED\n"), std::string::npos) << failed;
}

TEST(SweepRunner, ProgressHeartbeatUnderConcurrentJobs) {
  // The heartbeat satellite: under a parallel pool the runner must invoke
  // on_progress serially (under its lock) with a strictly advancing
  // completed counter, and the shared StderrHeartbeat sink must emit one
  // well-formed line per retired job.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  auto heartbeat = StderrHeartbeat(sink);
  std::mutex mu;
  std::vector<std::size_t> completed_seen;
  SweepRunner::Options opts;
  opts.jobs = 4;
  opts.on_progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lk(mu);
    completed_seen.push_back(p.completed);
    EXPECT_EQ(p.total, 3u);
    EXPECT_EQ(p.status, JobStatus::kOk);
    heartbeat(p);
  };
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  EXPECT_EQ(t.failed_rows, 0u);
  // Serialized retirement: completed counts are exactly 1..total in order.
  ASSERT_EQ(completed_seen.size(), 3u);
  for (std::size_t i = 0; i < completed_seen.size(); ++i) {
    EXPECT_EQ(completed_seen[i], i + 1);
  }
  // One heartbeat line per job landed in the sink.
  std::rewind(sink);
  char buf[256];
  std::size_t lines = 0;
  while (std::fgets(buf, sizeof(buf), sink) != nullptr) {
    ++lines;
    EXPECT_EQ(buf[0], '[') << buf;
    EXPECT_NE(std::string(buf).find("| ETA "), std::string::npos) << buf;
  }
  EXPECT_EQ(lines, 3u);
  std::fclose(sink);
}

TEST(SweepRunner, JobCountDoesNotChangeResults) {
  const SweepGrid grid = TinyGrid();
  SweepRunner::Options serial_opts;
  serial_opts.jobs = 1;
  SweepRunner::Options parallel_opts;
  parallel_opts.jobs = 4;
  const SweepResultTable serial = SweepRunner(serial_opts).Run(grid);
  const SweepResultTable parallel = SweepRunner(parallel_opts).Run(grid);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].seed, parallel.rows[i].seed);
    // Bit-identical per-run payload, field by field via the JSON report.
    EXPECT_EQ(core::ToJson(serial.rows[i].results),
              core::ToJson(parallel.rows[i].results))
        << "row " << i << " (" << serial.rows[i].config_name << ")";
    // StatRegistry::Merge is order-insensitive: the full unified registry
    // (core.* totals included) must be bit-identical at any pool width.
    EXPECT_EQ(serial.rows[i].results.raw.AllItems(),
              parallel.rows[i].results.raw.AllItems())
        << "row " << i;
  }
  // The deterministic serialization must match byte for byte.
  EXPECT_EQ(ToDeterministicCsv(serial), ToDeterministicCsv(parallel));
}

TEST(ResultSink, CsvAndJsonCarryTheTable) {
  SweepRunner::Options opts;
  opts.jobs = 2;
  const SweepResultTable t = SweepRunner(opts).Run(TinyGrid());
  const std::string csv = ToCsv(t);
  EXPECT_NE(csv.find("workload,profile,config,seed,cycles"), std::string::npos);
  EXPECT_NE(csv.find("bfs,ldbc,GraphPIM"), std::string::npos);
  // Header + one line per row.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            1 + t.rows.size());
  const std::string det = ToDeterministicCsv(t);
  EXPECT_EQ(det.find("wall_ms"), std::string::npos);

  const std::string json = ToJson(t);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"config\": \"GraphPIM\""), std::string::npos);
  // Each row embeds the full core report object.
  EXPECT_NE(json.find("\"l2_mpki\""), std::string::npos);
}

}  // namespace
}  // namespace graphpim::exec
