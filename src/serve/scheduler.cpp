#include "serve/scheduler.hpp"

#include <utility>

#include "common/types.hpp"
#include "serve/telemetry.hpp"

namespace rnoc::serve {

namespace {
/// Worker index of the calling thread; -1 on non-pool threads. Lets the
/// service attribute execute spans to the worker that ran them without
/// threading an index through every task closure.
thread_local int tl_current_worker = -1;
}  // namespace

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::Interactive: return "interactive";
    case Lane::Bulk: return "bulk";
  }
  return "bulk";  // Unreachable; silences -Wreturn-type.
}

Lane lane_from_name(const std::string& name) {
  if (name == "interactive") return Lane::Interactive;
  require(name == "bulk", "serve: unknown lane '" + name +
                              "' (expected interactive|bulk)");
  return Lane::Bulk;
}

PointScheduler::PointScheduler(int workers, TelemetryHub* telemetry)
    : telemetry_(telemetry) {
  std::size_t n = workers > 0 ? static_cast<std::size_t>(workers)
                              : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    queues_.push_back(std::make_unique<WorkerQueues>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

PointScheduler::~PointScheduler() { stop(); }

std::uint64_t PointScheduler::submit(
    Lane lane, std::vector<std::function<void()>> tasks) {
  if (tasks.empty() || stop_.load()) return 0;
  std::uint64_t id = 0;
  std::size_t start = 0;
  {
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    // Completed entries are only bookkeeping for wait()/finished();
    // prune them once the map is clearly historical so a long-running
    // daemon does not accumulate one node per job forever.
    if (jobs_.size() > 1024) {
      for (auto it = jobs_.begin(); it != jobs_.end();) {
        if (it->second.done)
          it = jobs_.erase(it);
        else
          ++it;
      }
    }
    id = next_job_++;
    jobs_[id].remaining = tasks.size();
    start = next_worker_;
    next_worker_ = (next_worker_ + tasks.size()) % queues_.size();
  }
  const auto li = static_cast<std::size_t>(lane);
  // One clock read per submission, shared by every task's queue-wait span.
  const std::uint64_t enqueue_us = telemetry_ ? telemetry_->now_us() : 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    WorkerQueues& q = *queues_[(start + t) % queues_.size()];
    const std::lock_guard<std::mutex> lock(q.mu);
    q.lane[li].push_back({std::move(tasks[t]), id, enqueue_us});
  }
  pending_[li].fetch_add(tasks.size());
  cv_work_.notify_all();
  return id;
}

bool PointScheduler::try_claim(std::size_t self, Lane lane, Task& out) {
  const auto li = static_cast<std::size_t>(lane);
  {
    WorkerQueues& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.lane[li].empty()) {
      out = std::move(own.lane[li].front());
      own.lane[li].pop_front();
      pending_[li].fetch_sub(1);
      return true;
    }
  }
  // A steal attempt means probing victims while this lane has work queued
  // somewhere; an idle worker polling empty lanes is not one.
  if (queues_.size() > 1 && pending_[li].load() > 0)
    steal_attempts_.fetch_add(1);
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueues& victim = *queues_[(self + k) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.lane[li].empty()) {
      out = std::move(victim.lane[li].back());
      victim.lane[li].pop_back();
      pending_[li].fetch_sub(1);
      steals_.fetch_add(1);
      return true;
    }
  }
  return false;
}

void PointScheduler::complete_job_tasks(std::uint64_t job, std::size_t count,
                                        bool dropped) {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  it->second.remaining -= count;
  if (dropped) it->second.dropped += count;
  if (it->second.remaining == 0) {
    it->second.done = true;
    cv_done_.notify_all();
  }
}

void PointScheduler::finish_task(const Task& t) {
  executed_.fetch_add(1);
  complete_job_tasks(t.job, 1, /*dropped=*/false);
}

void PointScheduler::worker_loop(std::size_t self) {
  tl_current_worker = static_cast<int>(self);
  for (;;) {
    Task t;
    // Interactive first, everywhere: only when no interactive task is
    // queued on any deque may this worker pick up bulk work.
    Lane lane = Lane::Interactive;
    bool got = try_claim(self, Lane::Interactive, t);
    if (got) {
      // Bulk work was queued but an interactive task ran first: that is
      // the priority lane actually deferring something.
      if (pending_[1].load() > 0) preemptions_.fetch_add(1);
    } else if (pending_[0].load() == 0) {
      got = try_claim(self, Lane::Bulk, t);
      lane = Lane::Bulk;
    }
    if (got) {
      if (telemetry_ && t.enqueue_us != 0) {
        SpanRecord span;
        span.kind = SpanKind::QueueWait;
        span.start_us = t.enqueue_us;
        span.end_us = telemetry_->now_us();
        span.job = t.job;  // Scheduler job id (not the service's).
        span.worker = static_cast<int>(self);
        span.lane = static_cast<int>(lane);
        telemetry_->observe_us(lane == Lane::Interactive
                                   ? "queue_wait_interactive_us"
                                   : "queue_wait_bulk_us",
                               static_cast<double>(span.end_us -
                                                   span.start_us));
        telemetry_->record_span(std::move(span));
      }
      t.fn();
      finish_task(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    cv_work_.wait(lock, [this] {
      return stop_.load() || pending_[0].load() > 0 || pending_[1].load() > 0;
    });
    if (stop_.load() && pending_[0].load() == 0 && pending_[1].load() == 0)
      return;
  }
}

void PointScheduler::stop() {
  if (stop_.exchange(true)) {
    // Already stopped; workers may still be draining — join idempotently.
  } else {
    // Drain the queues: dropped tasks still count toward job completion so
    // no waiter hangs across shutdown.
    std::map<std::uint64_t, std::size_t> dropped;
    for (const auto& qp : queues_) {
      const std::lock_guard<std::mutex> lock(qp->mu);
      for (std::size_t li = 0; li < kLanes; ++li) {
        std::deque<Task>& lane = qp->lane[li];
        for (const Task& t : lane) ++dropped[t.job];
        pending_[li].fetch_sub(lane.size());
        lane.clear();
      }
    }
    for (const auto& [job, count] : dropped) {
      dropped_.fetch_add(count);
      complete_job_tasks(job, count, /*dropped=*/true);
    }
  }
  cv_work_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void PointScheduler::wait(std::uint64_t job) {
  std::unique_lock<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  cv_done_.wait(lock, [&] { return it->second.done; });
}

bool PointScheduler::finished(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(job);
  return it == jobs_.end() || it->second.done;
}

PointScheduler::Stats PointScheduler::stats() const {
  return {executed_.load(), steals_.load(), dropped_.load(),
          steal_attempts_.load(), preemptions_.load()};
}

std::size_t PointScheduler::queue_depth(Lane lane) const {
  return pending_[static_cast<std::size_t>(lane)].load();
}

int PointScheduler::current_worker() { return tl_current_worker; }

}  // namespace rnoc::serve
