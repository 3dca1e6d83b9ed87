// Minimal work-stealing-free thread pool for embarrassingly parallel sweeps
// (Monte-Carlo reliability campaigns, per-benchmark latency sweeps).
//
// Deliberately simple: a fixed set of workers pulling indexed chunks from a
// shared atomic counter. Each task receives a worker-local index so callers
// can hand every worker its own Rng stream and merge results afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rnoc {

class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(item_index, worker_index) for every item in [0, items).
  /// Blocks until all items complete. Exceptions thrown by fn propagate
  /// (the first one wins; remaining items may be skipped).
  ///
  /// Re-entrant: calling parallel_for from inside a task running on this
  /// pool executes the nested loop inline on the calling worker (same
  /// worker_index for every item) instead of deadlocking on the single
  /// job slot. Calls from threads outside the pool may overlap: they are
  /// serialized, each one publishing its job only after the previous
  /// caller's job has finished.
  void parallel_for(std::size_t items,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  struct Job {
    std::atomic<std::size_t> next{0};
    std::size_t items = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> attached{0};
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  /// Held by an external caller for its whole parallel_for: the pool has
  /// one job slot, so a second caller must not publish until it is free.
  std::mutex submit_mu_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Convenience: one-shot parallel_for on a process-wide pool.
ThreadPool& global_pool();

}  // namespace rnoc
