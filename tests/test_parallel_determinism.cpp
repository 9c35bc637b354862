// The parallel execution layer must be a pure scheduling concern: every
// artifact (simulated trace, analysis pipeline, k-means, bootstrap) has to
// be bit-identical no matter how many threads run it. These tests pin that
// contract at 1, 2 and 8 threads, and cover the --threads value parser.
#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/pipeline.h"
#include "src/sim/simulator.h"
#include "src/stats/bootstrap.h"
#include "src/stats/kmeans.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Restores the global pool size after each test so the suite's other tests
// see the default configuration.
class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::set_default_thread_count(0); }
};

void expect_same_trace(const trace::TraceDatabase& a,
                       const trace::TraceDatabase& b) {
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  for (std::size_t i = 0; i < a.tickets().size(); ++i) {
    const trace::Ticket& x = a.tickets()[i];
    const trace::Ticket& y = b.tickets()[i];
    ASSERT_EQ(x.server, y.server) << "ticket " << i;
    ASSERT_EQ(x.incident.value, y.incident.value) << "ticket " << i;
    ASSERT_EQ(x.opened, y.opened) << "ticket " << i;
    ASSERT_EQ(x.closed, y.closed) << "ticket " << i;
    ASSERT_EQ(x.is_crash, y.is_crash) << "ticket " << i;
    ASSERT_EQ(x.true_class, y.true_class) << "ticket " << i;
    ASSERT_EQ(x.description, y.description) << "ticket " << i;
    ASSERT_EQ(x.resolution, y.resolution) << "ticket " << i;
  }
  ASSERT_EQ(a.servers().size(), b.servers().size());
  for (const trace::ServerRecord& s : a.servers()) {
    const auto ua = a.weekly_usage_for(s.id);
    const auto ub = b.weekly_usage_for(s.id);
    ASSERT_EQ(ua.size(), ub.size()) << "server " << s.id.value;
    for (std::size_t i = 0; i < ua.size(); ++i) {
      ASSERT_EQ(ua[i].cpu_util, ub[i].cpu_util) << "server " << s.id.value;
      ASSERT_EQ(ua[i].mem_util, ub[i].mem_util) << "server " << s.id.value;
    }
    const auto pa = a.power_events_for(s.id);
    const auto pb = b.power_events_for(s.id);
    ASSERT_EQ(pa.size(), pb.size()) << "server " << s.id.value;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].at, pb[i].at) << "server " << s.id.value;
    }
  }
}

TEST_F(ParallelDeterminism, SimulateIdenticalAcrossThreadCounts) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  ThreadPool::set_default_thread_count(1);
  const auto reference = sim::simulate(config);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    const auto db = sim::simulate(config);
    expect_same_trace(reference, db);
  }
}

TEST_F(ParallelDeterminism, PipelineIdenticalAcrossThreadCounts) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  ThreadPool::set_default_thread_count(1);
  const auto db = sim::simulate(config);
  const analysis::AnalysisPipeline reference(db);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    const analysis::AnalysisPipeline pipeline(db);
    ASSERT_EQ(reference.failures().size(), pipeline.failures().size());
    ASSERT_EQ(reference.classification().predicted,
              pipeline.classification().predicted);
    ASSERT_EQ(reference.classification().clustering.inertia,
              pipeline.classification().clustering.inertia);
  }
}

TEST_F(ParallelDeterminism, KMeansIdenticalAcrossThreadCounts) {
  // Enough points for several assignment chunks, so threads split the work.
  std::vector<std::vector<double>> rows;
  Rng data_rng(42);
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({data_rng.uniform(), data_rng.uniform() + (i % 3)});
  }
  const auto points = testing::to_csr(rows);
  stats::KMeansOptions options;
  options.k = 3;
  options.restarts = 8;
  ThreadPool::set_default_thread_count(1);
  Rng r1(7);
  const auto reference = stats::kmeans(points, options, r1);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    Rng r2(7);
    const auto run = stats::kmeans(points, options, r2);
    ASSERT_EQ(reference.assignment, run.assignment);
    ASSERT_EQ(reference.inertia, run.inertia);
    ASSERT_EQ(reference.centroids, run.centroids);
  }
}

TEST_F(ParallelDeterminism, BootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> xs;
  Rng data_rng(11);
  for (int i = 0; i < 500; ++i) xs.push_back(data_rng.uniform() * 10.0);
  const auto mean = [](std::span<const double> s) {
    double total = 0.0;
    for (double x : s) total += x;
    return total / static_cast<double>(s.size());
  };
  ThreadPool::set_default_thread_count(1);
  Rng r1(3);
  const auto reference = stats::bootstrap_ci(xs, mean, r1, 200);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    Rng r2(3);
    const auto run = stats::bootstrap_ci(xs, mean, r2, 200);
    ASSERT_EQ(reference.lo, run.lo);
    ASSERT_EQ(reference.hi, run.hi);
  }
}

TEST(ThreadCountFlag, AcceptsDigitsUpToTheLimit) {
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_thread_count("08"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_count("1024"), ThreadPool::kMaxThreads);
}

TEST(ThreadCountFlag, RejectsEverythingElse) {
  for (const char* text :
       {"", "-1", "+1", " 1", "1 ", "banana", "4x", "0x10", "1e3", "1.5",
        "1025", "99999999999", "18446744073709551616"}) {
    EXPECT_EQ(ThreadPool::parse_thread_count(text), std::nullopt)
        << "'" << text << "'";
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

// A parallel_for inside a parallel_for item (serve_tenants runs simulate()'s
// loops inside its tenant loop) must still run every inner index once.
TEST(ParallelFor, NestedCallsCoverEveryIndexOnce) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 500;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<int> hits(kOuter * kInner, 0);
    pool.parallel_for(kOuter, [&](std::size_t o) {
      pool.parallel_for(kInner,
                        [&](std::size_t i) { ++hits[o * kInner + i]; });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
    }
  }
}

}  // namespace
}  // namespace fa
