#include "exec/thread_pool.h"

#include <chrono>

namespace graphpim::exec {

namespace {

// Identifies the owning pool when Submit() is called from a worker thread,
// so nested submissions stay on the submitter's deque (work-first order).
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_self = 0;

}  // namespace

const char* ToString(TaskState s) {
  switch (s) {
    case TaskState::kPending: return "pending";
    case TaskState::kRunning: return "running";
    case TaskState::kDone: return "done";
    case TaskState::kCancelled: return "cancelled";
  }
  return "?";
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::OnWorkerThread() const { return tl_pool == this; }

void ThreadPool::Enqueue(std::shared_ptr<void> owner, detail::TaskCore* core) {
  GP_CHECK(!stopping_.load(), "Submit() after Shutdown()");
  std::size_t target;
  if (tl_pool == this) {
    target = tl_self;
  } else {
    target = next_queue_.fetch_add(1) % workers_.size();
  }
  in_flight_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lk(workers_[target]->mu);
    workers_[target]->dq.emplace_back(std::move(owner), core);
  }
  const std::uint64_t depth = queued_.fetch_add(1) + 1;
  // Lock-free high-water mark (racy-loop CAS; monotone, so no ABA issue).
  std::uint64_t peak = peak_queued_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_queued_.compare_exchange_weak(peak, depth,
                                             std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.submitted;
  }
  // A worker that saw queued_ == 0 holds wake_mu_ until it is asleep in
  // wake_cv_.wait(); passing through the lock orders this notify after
  // that, so it cannot fall into the gap and be lost (same as Shutdown).
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_one();
}

std::pair<std::shared_ptr<void>, detail::TaskCore*> ThreadPool::TakeTask(
    std::size_t self, bool* stole) {
  *stole = false;
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.dq.empty()) {
      auto t = std::move(w.dq.back());
      w.dq.pop_back();
      queued_.fetch_sub(1);
      return t;
    }
  }
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    Worker& w = *workers_[(self + i) % workers_.size()];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.dq.empty()) {
      auto t = std::move(w.dq.front());
      w.dq.pop_front();
      queued_.fetch_sub(1);
      *stole = true;
      return t;
    }
  }
  return {nullptr, nullptr};
}

void ThreadPool::TaskRetired() {
  if (in_flight_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lk(wake_mu_);
    drained_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::size_t self) {
  tl_pool = this;
  tl_self = self;
  while (true) {
    bool stole = false;
    auto [owner, core] = TakeTask(self, &stole);
    if (core == nullptr) {
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait(lk, [this] {
        return stopping_.load() || queued_.load() > 0;
      });
      if (stopping_.load() && queued_.load() == 0) return;
      continue;
    }
    if (stole) {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.steals;
    }
    if (!core->TryStart()) {
      // Cancelled while queued: drop without running.
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.cancelled;
      }
      owner.reset();
      TaskRetired();
      continue;
    }
    const std::uint64_t now_running = running_.fetch_add(1) + 1;
    std::uint64_t peak = peak_running_.load(std::memory_order_relaxed);
    while (now_running > peak &&
           !peak_running_.compare_exchange_weak(peak, now_running,
                                                std::memory_order_relaxed)) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    core->run();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  t0)
            .count();
    core->run = nullptr;  // release the closure's captures promptly
    running_.fetch_sub(1);
    core->Finish(ms);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.executed;
      stats_.busy_ms += ms;
    }
    owner.reset();
    TaskRetired();
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lk(wake_mu_);
  drained_cv_.wait(lk, [this] { return in_flight_.load() == 0; });
}

std::size_t ThreadPool::CancelPending() {
  std::size_t newly_cancelled = 0;
  for (auto& wp : workers_) {
    Worker& w = *wp;
    std::deque<std::pair<std::shared_ptr<void>, detail::TaskCore*>> removed;
    {
      std::lock_guard<std::mutex> lk(w.mu);
      std::deque<std::pair<std::shared_ptr<void>, detail::TaskCore*>> keep;
      for (auto& entry : w.dq) {
        TaskState st = entry.second->State();
        bool cancelled_now = entry.second->Cancel();
        if (cancelled_now) ++newly_cancelled;
        if (cancelled_now || st == TaskState::kCancelled) {
          queued_.fetch_sub(1);
          removed.push_back(std::move(entry));
        } else {
          keep.push_back(std::move(entry));
        }
      }
      w.dq.swap(keep);
    }
    // Retire outside the deque lock.
    for (auto& entry : removed) {
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.cancelled;
      }
      entry.first.reset();
      TaskRetired();
    }
  }
  return newly_cancelled;
}

void ThreadPool::Shutdown() {
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  s.peak_queued = peak_queued_.load(std::memory_order_relaxed);
  s.peak_running = peak_running_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ExportStats(StatRegistry* reg,
                             const std::string& prefix) const {
  if (reg == nullptr) return;
  const PoolStats s = stats();
  reg->Set(prefix + ".threads", static_cast<double>(workers_.size()));
  reg->Set(prefix + ".submitted", static_cast<double>(s.submitted));
  reg->Set(prefix + ".executed", static_cast<double>(s.executed));
  reg->Set(prefix + ".cancelled", static_cast<double>(s.cancelled));
  reg->Set(prefix + ".steals", static_cast<double>(s.steals));
  reg->Set(prefix + ".busy_ms", s.busy_ms);
  reg->Set(prefix + ".peak_queued", static_cast<double>(s.peak_queued));
  reg->Set(prefix + ".peak_running", static_cast<double>(s.peak_running));
}

}  // namespace graphpim::exec
