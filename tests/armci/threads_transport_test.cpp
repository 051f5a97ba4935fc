// Executor tests for the threads backend's node workers: timing
// (never early), ordering (FIFO per due time), fairness (a foreign post
// is not starved by a worker's own re-posts), wake-ups (none lost when
// a post races the idle spin's end) and parking (idle workers burn no
// CPU). Two nodes means three workers, which on a host with at least
// three cores takes the spin-then-park path; NeverEarly also runs with
// more workers than cores, where workers park at once.
//
// A lost wake-up hangs rather than fails, so ctest runs these under a
// TIMEOUT (tests/CMakeLists.txt).
//
// vtopo-lint: allow-file(nondeterminism) -- wall-clock executor under test
#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "armci/backend_threads.hpp"

namespace vtopo::armci {
namespace {

using sim::TimeNs;

/// Checks, on `node`, that it runs no earlier than `d` after `t_post`,
/// then re-posts itself from its worker until `left` runs out.
struct EarlyProbe {
  ThreadsTransport* t;
  int node;
  TimeNs d;
  TimeNs t_post;
  int left;
  std::int64_t* runs;   ///< written by `node`'s worker only
  std::int64_t* early;  ///< written by `node`'s worker only
  void operator()() const {
    ++*runs;
    if (t->wall_now() < t_post + d) ++*early;
    if (left > 1) {
      const TimeNs now = t->wall_now();
      t->post_after(node, d,
                    EarlyProbe{t, node, d, now, left - 1, runs, early});
    }
  }
};

void expect_never_early(int nodes) {
  ThreadsTransport t(nodes);
  t.drive();  // start the workers
  constexpr int kChains = 10;
  constexpr int kChainLen = 20;
  for (const TimeNs d : {TimeNs{0}, TimeNs{300}, TimeNs{20'000},
                         TimeNs{200'000}}) {
    std::vector<std::int64_t> runs(static_cast<std::size_t>(nodes), 0);
    std::vector<std::int64_t> early(static_cast<std::size_t>(nodes), 0);
    for (int c = 0; c < kChains; ++c) {
      const int node = c % nodes;
      const auto i = static_cast<std::size_t>(node);
      const TimeNs now = t.wall_now();
      t.post_after(node, d,
                   EarlyProbe{&t, node, d, now, kChainLen, &runs[i],
                              &early[i]});
    }
    t.drive();
    std::int64_t total = 0;
    for (int n = 0; n < nodes; ++n) {
      const auto i = static_cast<std::size_t>(n);
      total += runs[i];
      EXPECT_EQ(early[i], 0) << "delay " << d << " ns, node " << n;
    }
    EXPECT_EQ(total, kChains * kChainLen) << "delay " << d << " ns";
  }
}

TEST(ThreadsTransport, NeverEarlyOnSpinPath) { expect_never_early(2); }

TEST(ThreadsTransport, NeverEarlyWithMoreWorkersThanCores) {
  // nodes + 1 workers > host_cores(): every wait is a park.
  expect_never_early(host_cores());
}

TEST(ThreadsTransport, DriverPostsRunFifo) {
  ThreadsTransport t(2);
  t.drive();  // posts land while the worker is live
  constexpr int kPosts = 1000;
  std::vector<int> order;  // node 1's worker only
  order.reserve(kPosts);
  for (int i = 0; i < kPosts; ++i) {
    t.post(1, [&order, i] { order.push_back(i); });
  }
  t.drive();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kPosts));
  for (int i = 0; i < kPosts; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadsTransport, SelfPostsRunFifo) {
  ThreadsTransport t(2);
  constexpr int kPosts = 1000;
  std::vector<int> now_order;  // node 0's worker only
  std::vector<int> later_order;
  t.post(0, [&] {
    // Equal due times: all zero through post(), all one shared future
    // instant through the node's own facade.
    const TimeNs later = t.wall_now() + 100'000;
    for (int i = 0; i < kPosts; ++i) {
      t.post(0, [&now_order, i] { now_order.push_back(i); });
      t.engine_for_node(0).schedule_at(
          later, [&later_order, i] { later_order.push_back(i); });
    }
  });
  t.drive();
  ASSERT_EQ(now_order.size(), static_cast<std::size_t>(kPosts));
  ASSERT_EQ(later_order.size(), static_cast<std::size_t>(kPosts));
  for (int i = 0; i < kPosts; ++i) {
    EXPECT_EQ(now_order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(later_order[static_cast<std::size_t>(i)], i);
  }
}

/// Re-posts itself on node 0 at zero delay until node 1's post has set
/// `flag`, or until kMaxSpins iterations.
struct SelfReposter {
  static constexpr std::int64_t kMaxSpins = 1'000'000;
  ThreadsTransport* t;
  const bool* flag;       ///< node 0's worker only
  std::int64_t* spins;    ///< node 0's worker only
  void operator()() const {
    if (*flag || ++*spins >= kMaxSpins) return;
    t->post(0, SelfReposter{t, flag, spins});
  }
};

TEST(ThreadsTransport, ForeignPostIsNotStarvedBySelfPosts) {
  ThreadsTransport t(2);
  bool flag = false;
  std::int64_t spins = 0;
  t.post(0, SelfReposter{&t, &flag, &spins});
  t.post(1, [&t, &flag] { t.post(0, [&flag] { flag = true; }); });
  t.drive();
  EXPECT_TRUE(flag);
  EXPECT_LT(spins, SelfReposter::kMaxSpins);
}

/// Bounces between nodes 0 and 1 until `left` posts have run.
struct Ping {
  ThreadsTransport* t;
  int node;
  int left;
  std::int64_t* runs;  ///< indexed by node; each worker writes its own
  void operator()() const {
    ++runs[node];
    if (left > 1) t->post(1 - node, Ping{t, 1 - node, left - 1, runs});
  }
};

void busy_wait_ns(TimeNs ns) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadsTransport, NoLostWakeupAcrossIdleSpinHorizon) {
  // Gaps of 40-60 us around the 50 us idle-spin horizon make driver
  // posts land while a worker is ending its spin, deciding to park or
  // parked. A lost wake-up leaves drive() blocked: the ctest TIMEOUT
  // turns that into a failure.
  ThreadsTransport t(2);
  constexpr int kRounds = 20'000;
  std::int64_t runs[2] = {0, 0};
  t.drive();
  for (int r = 0; r < kRounds; ++r) {
    t.post(0, Ping{&t, 0, 4, runs});
    t.drive();
    busy_wait_ns(40'000 + 1'000 * (r % 21));
  }
  EXPECT_EQ(runs[0], 2 * kRounds);
  EXPECT_EQ(runs[1], 2 * kRounds);
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(ThreadsTransport, IdleWorkersPark) {
  ThreadsTransport t(2);
  std::int64_t runs[2] = {0, 0};
  t.post(0, Ping{&t, 0, 10'000, runs});
  t.drive();
  ASSERT_EQ(runs[0] + runs[1], 10'000);
  const double cpu0 = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(process_cpu_ms() - cpu0, 20.0);
}

}  // namespace
}  // namespace vtopo::armci
