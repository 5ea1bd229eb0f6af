#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace vdba {

int ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 8);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = DefaultThreads();
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { RunWorker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunk(const std::shared_ptr<Batch>& batch) {
  for (size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
       i < batch->n;
       i = batch->next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch->fn)(i);
    if (batch->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->n) {
      // Last item: wake the caller. Taking the mutex orders this notify
      // against the caller's predicate check, so the wakeup is never lost.
      std::lock_guard<std::mutex> lock(mu_);
      work_done_.notify_all();
    }
  }
}

void ThreadPool::RunWorker() {
  uint64_t last_seen = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || (current_ != nullptr && current_->id != last_seen);
      });
      if (shutdown_) return;
      batch = current_;
      last_seen = batch->id;
    }
    RunChunk(batch);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    VDBA_CHECK(current_ == nullptr);  // no nested/concurrent ParallelFor
    batch->id = ++batch_counter_;
    current_ = batch;
  }
  work_ready_.notify_all();
  // The caller pulls work too; a batch it drains alone completes without
  // waiting for any worker to be scheduled.
  RunChunk(batch);
  {
    std::unique_lock<std::mutex> lock(mu_);
    work_done_.wait(lock, [&] {
      return batch->completed.load(std::memory_order_acquire) == batch->n;
    });
    current_ = nullptr;
  }
}

void ThreadPool::ParallelForOrder(std::span<const size_t> order,
                                  const std::function<void(size_t)>& fn) {
  ParallelFor(order.size(), [&](size_t k) { fn(order[k]); });
}

}  // namespace vdba
