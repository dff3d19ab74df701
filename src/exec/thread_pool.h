// A fixed set of worker threads over one shared job queue. Its jobs are
// coarse (an Experiment build or a whole replay), so one mutex-guarded
// queue is all the scheduling they need.
//   - Submit() returns a std::future; get() yields the value or rethrows
//     what the task threw. A task's throw never takes a worker down.
//   - A task's callable and its captures are destroyed before its future
//     is ready, so an unharvested result does not pin the task's inputs
//     (a sweep cell's Experiment).
//   - A task submitted from one of the pool's workers goes to the front of
//     the queue: a sweep cell's replays run before the next cell's build.
// ParallelMap below is the one ordered fan-out every driver replays its
// configs through; only SweepRunner, whose cells chain a build into their
// replays, calls Submit() itself.
#ifndef GRAPHPIM_EXEC_THREAD_POOL_H_
#define GRAPHPIM_EXEC_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace graphpim::exec {

class ThreadPool {
 public:
  // `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;  // the workers hold `this`
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True on this pool's workers. Blocking helpers run inline there instead
  // of waiting on the pool from inside it (which could starve it).
  bool OnWorkerThread() const;

  // Schedules `fn` and returns its future. Fatal to call after Shutdown().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    // std::function needs a copyable callable and std::promise is
    // move-only, so the queue entry holds both by shared pointer.
    struct Task {
      std::optional<std::decay_t<F>> fn;
      std::promise<R> done;
    };
    auto task = std::make_shared<Task>();
    task->fn.emplace(std::forward<F>(fn));
    std::future<R> result = task->done.get_future();
    Enqueue([task] {
      try {
        if constexpr (std::is_void_v<R>) {
          (*task->fn)();
          task->fn.reset();
          task->done.set_value();
        } else {
          R value = (*task->fn)();
          task->fn.reset();
          task->done.set_value(std::move(value));
        }
      } catch (...) {
        task->fn.reset();
        task->done.set_exception(std::current_exception());
      }
    });
    return result;
  }

  // Drains all pending tasks, then joins the workers. Idempotent; the
  // destructor calls it.
  void Shutdown();

 private:
  void Enqueue(std::function<void()> job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::vector<std::thread> workers_;         // last: the threads use the above
};

// Runs fn(i) for every i in [0, n) on `pool` and returns the results in
// index order, so completion order never leaks into the output. Called on
// one of the pool's own workers it runs the calls inline instead, since
// waiting on the pool from inside it could starve it; the results are the
// same either way. `done(i, wall_ms, result)`, when set, is called under
// one lock as each call returns, in completion order (the --progress
// heartbeat); `wall_ms` times fn(i) alone. A throw from fn(i) reaches the
// caller once no call is left running (the first in index order wins).
template <typename F, typename R = std::invoke_result_t<F&, std::size_t>>
std::vector<R> ParallelMap(
    ThreadPool& pool, std::size_t n, F fn,
    const std::type_identity_t<
        std::function<void(std::size_t, double, const R&)>>& done = {}) {
  std::mutex done_mu;
  auto run = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    R r = fn(i);
    if (done) {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      std::lock_guard<std::mutex> lk(done_mu);
      done(i, wall_ms, r);
    }
    return r;
  };
  std::vector<R> out;
  out.reserve(n);
  if (pool.OnWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(run(i));
    return out;
  }
  std::vector<std::future<R>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futs.push_back(pool.Submit([&run, i] { return run(i); }));
  }
  // Every task holds `run` by reference: none may outlive this frame.
  for (std::future<R>& f : futs) f.wait();
  for (std::future<R>& f : futs) out.push_back(f.get());
  return out;
}

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_THREAD_POOL_H_
