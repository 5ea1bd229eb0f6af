// A small fixed-size thread pool for fanning independent work items out
// across cores (the what-if estimator's EstimateBatch / EstimateMany hot
// paths).
//
// Deliberately minimal: ParallelFor partitions [0, n) over the workers and
// blocks until every index has run. Work items must be independent; the
// pool provides no ordering guarantees beyond "all done on return".
#ifndef VDBA_UTIL_THREAD_POOL_H_
#define VDBA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace vdba {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks a small hardware-derived default.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for every i in [0, n), spread over the workers (the
  /// calling thread participates). Blocks until all calls return — but
  /// not until every worker has woken: a small batch drained by the
  /// caller returns immediately. fn must not call ParallelFor on the
  /// same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(order[k]) for every k, claiming k in ascending order. With a
  /// heterogeneous batch (e.g. tenants whose workloads differ wildly in
  /// size), passing indices sorted heaviest-first gives longest-processing-
  /// time-first scheduling: the expensive items start immediately instead
  /// of landing last on one straggling worker. Same blocking and
  /// independence rules as ParallelFor; `order` must stay alive for the
  /// duration of the call and hold each index at most once.
  void ParallelForOrder(std::span<const size_t> order,
                        const std::function<void(size_t)>& fn);

  /// Hardware-derived default worker count (>= 1, capped small: the batch
  /// fan-out targets a handful of cores, not the whole machine).
  static int DefaultThreads();

 private:
  /// One ParallelFor's state. Shared with the workers so a straggler that
  /// wakes after the call returned still finds valid memory; it claims no
  /// index (next >= n by then) and never touches `fn`.
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    uint64_t id = 0;
  };

  void RunWorker();
  void RunChunk(const std::shared_ptr<Batch>& batch);

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::shared_ptr<Batch> current_;
  uint64_t batch_counter_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vdba

#endif  // VDBA_UTIL_THREAD_POOL_H_
