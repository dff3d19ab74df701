#include "exec/thread_pool.h"

#include "common/log.h"

namespace graphpim::exec {

// The pool whose worker is running on this thread, if any.
static thread_local const ThreadPool* tl_pool = nullptr;

ThreadPool::ThreadPool(int num_threads) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (num_threads <= 0) num_threads = hw > 0 ? hw : 1;
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::OnWorkerThread() const { return tl_pool == this; }

void ThreadPool::Enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A worker may add work while Shutdown() drains; it runs it before exiting.
    GP_CHECK(!stopping_ || tl_pool == this, "Submit() after Shutdown()");
    queue_.insert(tl_pool == this ? queue_.begin() : queue_.end(), std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tl_pool = this;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace graphpim::exec
