// Concurrency regression tests for ThreadPool and SweepRunner, written to
// be run under ThreadSanitizer (the CI tsan job executes this binary). The
// nested parallel_for path (a worker re-entering its own pool), concurrent
// submissions from threads outside the pool and the SweepRunner per-job
// stats aggregation are the shapes most likely to hide a race, so they are
// hammered explicitly here. A lost submission shows up as a hang, which the
// ctest timeout on this binary turns into a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "noc/sweep.hpp"
#include "traffic/patterns.hpp"

namespace rnoc {
namespace {

TEST(ThreadPoolStress, BackToBackJobsReuseWorkers) {
  ThreadPool pool(4);
  // Many small jobs in quick succession hammer the generation/wake
  // handshake between submitter and workers.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(8, [&](std::size_t, std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 8);
  }
}

TEST(ThreadPoolStress, ConcurrentExternalCallersEachRunEveryItemOnce) {
  // Four threads outside the pool submit to it at the same time. The pool
  // has one job slot, so the calls must queue behind each other rather
  // than overwrite one another's job (the overwritten caller would wait
  // forever).
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 150;
  std::vector<std::thread> callers;
  std::atomic<int> bad_counts{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &bad_counts, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t items = 1 + static_cast<std::size_t>(
                                          (t * 7 + round) % 13);
        std::vector<std::atomic<int>> hits(items);
        pool.parallel_for(items, [&](std::size_t i, std::size_t worker) {
          if (worker >= pool.size()) bad_counts.fetch_add(1);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits)
          if (h.load() != 1) bad_counts.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad_counts.load(), 0);
}

TEST(ThreadPoolStress, NestedParallelForRunsInlineAndCounts) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(16, [&](std::size_t, std::size_t outer_worker) {
      EXPECT_TRUE(pool.on_worker_thread());
      pool.parallel_for(32, [&](std::size_t, std::size_t inner_worker) {
        // Inline execution: the nested loop stays on the calling worker.
        EXPECT_EQ(inner_worker, outer_worker);
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(count.load(), 16 * 32);
  }
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPoolStress, TripleNestingStillCompletes) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(6, [&](std::size_t, std::size_t) {
    pool.parallel_for(5, [&](std::size_t, std::size_t) {
      pool.parallel_for(4, [&](std::size_t, std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(count.load(), 6 * 5 * 4);
}

TEST(ThreadPoolStress, ExceptionFromNestedTaskPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i, std::size_t) {
                          pool.parallel_for(4, [&](std::size_t j, std::size_t) {
                            if (i == 3 && j == 2)
                              throw std::runtime_error("inner failure");
                          });
                        }),
      std::runtime_error);
  // The pool must remain usable after an exceptional job.
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 4);
}

noc::SweepJob small_job(double rate, std::uint64_t seed) {
  noc::SweepJob job;
  job.cfg.mesh.dims = {3, 3};
  job.cfg.warmup = 100;
  job.cfg.measure = 400;
  job.cfg.drain_limit = 2000;
  job.cfg.seed = seed;
  traffic::SyntheticConfig tc;
  tc.injection_rate = rate;
  job.make_traffic = [tc] {
    return std::make_shared<traffic::SyntheticTraffic>(tc);
  };
  return job;
}

TEST(ThreadPoolStress, SweepAggregationMatchesSequential) {
  // The same batch on a wide pool and on a single worker must aggregate to
  // bit-identical reports — any cross-job sharing of stats state would show
  // up here (and as a TSan report when sanitized).
  std::vector<noc::SweepJob> jobs;
  for (std::uint64_t s = 1; s <= 8; ++s)
    jobs.push_back(small_job(0.02 * static_cast<double>(s % 4 + 1), s));
  ThreadPool wide(4);
  ThreadPool narrow(1);
  const auto par = noc::SweepRunner(&wide).run(jobs);
  const auto seq = noc::SweepRunner(&narrow).run(jobs);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(par[i].packets_received, seq[i].packets_received);
    EXPECT_EQ(par[i].flits_received, seq[i].flits_received);
    EXPECT_EQ(par[i].cycles_run, seq[i].cycles_run);
    EXPECT_EQ(par[i].total_latency.count(), seq[i].total_latency.count());
    EXPECT_EQ(par[i].total_latency.mean(), seq[i].total_latency.mean());
    EXPECT_EQ(par[i].router_events.flits_traversed,
              seq[i].router_events.flits_traversed);
  }
}

TEST(ThreadPoolStress, SweepRunnerNestedInsidePoolWorker) {
  // A sweep launched from a worker of the same pool must run inline rather
  // than deadlock on the single job slot — the SweepRunner doc guarantees
  // it. Four concurrent outer workers each run a private 2-job sweep.
  ThreadPool pool(4);
  std::vector<std::uint64_t> delivered(4, 0);
  pool.parallel_for(4, [&](std::size_t i, std::size_t) {
    std::vector<noc::SweepJob> jobs = {small_job(0.05, 10 + i),
                                       small_job(0.08, 20 + i)};
    const auto reports = noc::SweepRunner(&pool).run(jobs);
    delivered[i] = reports[0].packets_received + reports[1].packets_received;
  });
  for (std::size_t i = 0; i < delivered.size(); ++i)
    EXPECT_GT(delivered[i], 0u) << "outer job " << i;
}

}  // namespace
}  // namespace rnoc
