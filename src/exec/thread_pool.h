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
#ifndef GRAPHPIM_EXEC_THREAD_POOL_H_
#define GRAPHPIM_EXEC_THREAD_POOL_H_

#include <condition_variable>
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

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_THREAD_POOL_H_
