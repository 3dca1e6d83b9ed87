// Two-lane work-stealing scheduler: the execution layer of the campaign
// results service.
//
// Each worker owns a pair of deques (one per priority lane). Submission
// deals a job's tasks round-robin across the workers' deques; a worker
// pops its own deque from the front and, when empty, steals from the back
// of a peer's — so a job whose points land unevenly (or whose points have
// wildly different costs) still finishes at the speed of the whole worker
// set, not of its slowest shard. The Interactive lane preempts Bulk at
// task granularity: no worker starts a Bulk task while any Interactive
// task is queued anywhere.
//
// The scheduler is deliberately result-agnostic: tasks are opaque
// closures. Determinism of campaign results is owned by the layer above
// (CampaignService runs engine point units, whose values depend only on
// (spec, point index) — never on which worker ran them or in what order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rnoc::serve {

class TelemetryHub;

/// Priority lanes. Interactive (smoke sweeps, humans waiting) preempts
/// Bulk (deep campaigns) at task granularity.
enum class Lane { Interactive = 0, Bulk = 1 };

inline constexpr std::size_t kLanes = 2;

const char* lane_name(Lane lane);
/// Parses "interactive"/"bulk"; throws std::invalid_argument otherwise.
Lane lane_from_name(const std::string& name);

class PointScheduler {
 public:
  /// Creates `workers` worker threads (0 = hardware_concurrency, at
  /// least 1). `telemetry`, when set, receives queue-wait spans and
  /// latency samples; it must outlive the scheduler.
  explicit PointScheduler(int workers = 0, TelemetryHub* telemetry = nullptr);
  ~PointScheduler();

  PointScheduler(const PointScheduler&) = delete;
  PointScheduler& operator=(const PointScheduler&) = delete;

  std::size_t workers() const { return workers_.size(); }

  /// Enqueues `tasks` as one job on `lane` and returns its id. Tasks may
  /// run on any worker in any order; they must not throw (wrap and record
  /// errors in the closure). Returns 0 and drops the tasks if the
  /// scheduler is stopped.
  std::uint64_t submit(Lane lane, std::vector<std::function<void()>> tasks);

  /// Blocks until every task of `job` has finished or been dropped by
  /// stop(). Unknown ids (including 0) return immediately.
  void wait(std::uint64_t job);

  /// True once every task of `job` has finished or been dropped.
  bool finished(std::uint64_t job) const;

  /// Drops all queued tasks, lets in-flight tasks finish, and joins the
  /// workers. Jobs with dropped tasks still complete for wait()/finished()
  /// so shutdown never strands a waiter; their `dropped` count is nonzero.
  void stop();

  struct Stats {
    std::uint64_t executed = 0;  ///< Tasks run to completion.
    std::uint64_t steals = 0;    ///< Tasks taken from another worker's deque.
    std::uint64_t dropped = 0;   ///< Tasks discarded by stop().
    /// Claims that found the worker's own deque empty and probed its
    /// peers (successfully or not) while the lane had work queued — the
    /// numerator's denominator for `steals`, and the contention signal the
    /// telemetry layer exposes. An idle worker polling empty lanes does
    /// not count.
    std::uint64_t steal_attempts = 0;
    /// Interactive tasks claimed while bulk work was queued somewhere:
    /// each one is a bulk task actually deferred by the priority lane.
    std::uint64_t preemptions = 0;
  };
  Stats stats() const;

  /// Tasks currently queued (not yet claimed) on `lane`.
  std::size_t queue_depth(Lane lane) const;

  /// Index of the worker running the calling thread, -1 off the pool.
  static int current_worker();

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t job = 0;
    std::uint64_t enqueue_us = 0;  ///< Telemetry clock at submit(); 0 = none.
  };

  /// One worker's deques, individually locked so stealing contends with
  /// one victim, not the whole scheduler.
  struct WorkerQueues {
    std::mutex mu;
    std::deque<Task> lane[kLanes];
  };

  struct JobState {
    std::size_t remaining = 0;
    std::uint64_t dropped = 0;
    bool done = false;
  };

  void worker_loop(std::size_t self);
  bool try_claim(std::size_t self, Lane lane, Task& out);
  void finish_task(const Task& t);
  void complete_job_tasks(std::uint64_t job, std::size_t count, bool dropped);

  std::vector<std::unique_ptr<WorkerQueues>> queues_;
  std::vector<std::thread> workers_;

  /// Queued-task counts per lane: the workers' sleep predicate. Claiming
  /// decrements under the owning deque's lock before the task runs.
  std::atomic<std::uint64_t> pending_[kLanes] = {};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<bool> stop_{false};
  TelemetryHub* telemetry_ = nullptr;

  std::mutex sleep_mu_;
  std::condition_variable cv_work_;

  mutable std::mutex jobs_mu_;
  std::condition_variable cv_done_;
  std::map<std::uint64_t, JobState> jobs_;
  std::uint64_t next_job_ = 1;
  std::size_t next_worker_ = 0;  ///< Round-robin deal cursor (jobs_mu_).
};

}  // namespace rnoc::serve
