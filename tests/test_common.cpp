// Tests for common/: rng, stats, thread pool, require.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace rnoc {
namespace {

TEST(Require, ThrowsOnFalse) {
  EXPECT_THROW(require(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, RangeBounds) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_range(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h(0.0, 100.0, 100);
  Rng r(2);
  for (int i = 0; i < 10000; ++i) h.add(r.next_double() * 100);
  const double q10 = h.quantile(0.1);
  const double q50 = h.quantile(0.5);
  const double q90 = h.quantile(0.9);
  EXPECT_LT(q10, q50);
  EXPECT_LT(q50, q90);
  EXPECT_NEAR(q50, 50.0, 3.0);
}

TEST(Histogram, EmptyQuantileReportsLo) {
  Histogram h(2.0, 10.0, 8);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, OverflowMassClampsQuantile) {
  // 90 in-range samples, 10 clamped above hi: any quantile landing in the
  // clamped mass must report hi exactly, not extrapolate inside the last
  // bin as if the overflow samples' positions were known.
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 90; ++i) h.add(static_cast<double>(i));
  for (int i = 0; i < 10; ++i) h.add(1e6);
  EXPECT_EQ(h.overflow(), 10u);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // In-range quantiles are untouched by the clamped tail's position.
  EXPECT_LT(h.quantile(0.5), 60.0);
  EXPECT_GE(h.quantile(0.5), 40.0);
}

TEST(Histogram, UnderflowMassClampsQuantile) {
  Histogram h(10.0, 20.0, 10);
  for (int i = 0; i < 10; ++i) h.add(-100.0);
  for (int i = 0; i < 90; ++i) h.add(10.0 + (static_cast<double>(i) / 9.0));
  EXPECT_EQ(h.underflow(), 10u);
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_GT(h.quantile(0.5), 10.0);
}

TEST(Histogram, AllOverflowReportsHi) {
  Histogram h(0.0, 4096.0, 16);
  h.add(5000.0);
  h.add(9000.0);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4096.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 4096.0);
}

TEST(Histogram, MergePropagatesClampedMass) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(-1.0);
  a.add(5.0);
  b.add(100.0);
  b.add(200.0);
  a.merge(b);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 2u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_DOUBLE_EQ(a.quantile(0.99), 10.0);
}

TEST(Histogram, MergeShapeMismatchThrows) {
  Histogram a(0, 1, 4), b(0, 1, 5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, InvalidShapeThrows) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(ThreadPool, ComputesAllItems) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    sum = 0;
    pool.parallel_for(100, [&](std::size_t i, std::size_t) {
      sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i, std::size_t) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // Pool still usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPool, WorkerIndexInRange) {
  ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.parallel_for(200, [&](std::size_t, std::size_t w) {
    if (w >= 4) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

// Regression: parallel_for from inside one of the pool's own tasks used to
// deadlock (the worker published a second Job and then waited for itself).
// Nested calls must run inline on the calling worker and cover every item.
TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.parallel_for(8, [&](std::size_t outer, std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(16, [&](std::size_t inner, std::size_t) {
      ++hits[outer * 16 + inner];
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCallOnOtherPoolStillDispatches) {
  // A worker of one pool is an external caller to another pool; only
  // same-pool re-entry runs inline. Both outer workers may submit to the
  // inner pool at once.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> n{0};
  outer.parallel_for(4, [&](std::size_t, std::size_t) {
    EXPECT_FALSE(inner.on_worker_thread());
    EXPECT_TRUE(outer.on_worker_thread());
    inner.parallel_for(4, [&](std::size_t, std::size_t) { ++n; });
  });
  EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, OnWorkerThreadFalseOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, NestedExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::size_t, std::size_t) {
                          pool.parallel_for(
                              4, [&](std::size_t i, std::size_t) {
                                if (i == 3) throw std::runtime_error("nested");
                              });
                        }),
      std::runtime_error);
}

}  // namespace
}  // namespace rnoc
