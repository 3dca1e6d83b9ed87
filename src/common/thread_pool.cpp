#include "common/thread_pool.hpp"

namespace rnoc {

namespace {

// Identity of the pool (and worker slot) the current thread belongs to, if
// any. Lets parallel_for detect re-entrant use from one of its own workers:
// blocking there would deadlock (the worker waiting on cv_done_ is also the
// one expected to drain the job), and publishing a second Job would clobber
// the outer one. Nested calls run inline instead.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    std::size_t items, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (items == 0) return;
  if (on_worker_thread()) {
    for (std::size_t i = 0; i < items; ++i) fn(i, tls_worker_index);
    return;
  }
  const std::lock_guard<std::mutex> submit(submit_mu_);
  Job job;
  job.items = items;
  job.fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++generation_;
  }
  cv_work_.notify_all();
  {
    // Wait for completion AND for every worker to let go of the stack Job.
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return job.done.load() == items && job.attached.load() == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

bool ThreadPool::on_worker_thread() const { return tls_pool == this; }

void ThreadPool::worker_loop(std::size_t worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      job = job_;
      seen_generation = generation_;
      job->attached.fetch_add(1, std::memory_order_acq_rel);
    }
    for (;;) {
      const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job->items) break;
      try {
        (*job->fn)(i, worker_index);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job->error_mu);
        if (!job->error) job->error = std::current_exception();
      }
      job->done.fetch_add(1, std::memory_order_acq_rel);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      job->attached.fetch_sub(1, std::memory_order_acq_rel);
      cv_done_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rnoc
