// Criticality-aware QoS: the class-aware CHT queue (weighted DRR), the
// classless FIFO credit hand-off beside it, and the runtime integration
// (per-class tail latency under a hot-spot storm, shard invariance with
// QoS on, adaptive per-phase switching).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "armci/adaptive.hpp"
#include "armci/buffers.hpp"
#include "armci/proc.hpp"
#include "armci/qos_queue.hpp"
#include "armci/request.hpp"
#include "armci/runtime.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {
namespace {

// ------------------------------------------------------------- QosQueue

RequestPtr make_req(RequestPool& pool, std::uint64_t id, Priority cls) {
  RequestPtr r = pool.acquire();
  r->id = id;
  r->cls = cls;
  return r;
}

sim::Co<void> drain(QosQueue& q, std::vector<std::uint64_t>& order) {
  for (;;) {
    RequestPtr r = co_await q.pop();
    if (!r) break;
    order.push_back(r->id);
  }
}

TEST(QosQueue, DisabledPopsInGlobalFifoOrder) {
  sim::Engine eng;
  const bool qos = false;
  QosQueue q(eng, &qos);
  RequestPool pool;
  const Priority classes[] = {Priority::kBulk,     Priority::kCritical,
                              Priority::kNormal,   Priority::kCritical,
                              Priority::kBulk,     Priority::kNormal};
  for (std::uint64_t i = 0; i < 6; ++i) {
    q.push(make_req(pool, i, classes[i]));
  }
  q.poison();
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(QosQueue, EnabledPrefersCriticalOverOlderBulk) {
  sim::Engine eng;
  const bool qos = true;
  QosQueue q(eng, &qos);
  RequestPool pool;
  for (std::uint64_t i = 0; i < 4; ++i) {
    q.push(make_req(pool, i, Priority::kBulk));
  }
  q.push(make_req(pool, 10, Priority::kCritical));
  q.push(make_req(pool, 11, Priority::kCritical));
  q.poison();
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));
  eng.run();
  ASSERT_EQ(order.size(), 6u);
  // Both criticals beat every (older) bulk entry; bulk then drains FIFO.
  EXPECT_EQ(order[0], 10u);
  EXPECT_EQ(order[1], 11u);
  EXPECT_EQ(order[2], 0u);
}

TEST(QosQueue, WeightedRoundServesBulkUnderCriticalBacklog) {
  sim::Engine eng;
  const bool qos = true;
  QosQueue q(eng, &qos);
  RequestPool pool;
  for (std::uint64_t i = 0; i < 3; ++i) {
    q.push(make_req(pool, i, Priority::kBulk));
  }
  for (std::uint64_t i = 100; i < 120; ++i) {
    q.push(make_req(pool, i, Priority::kCritical));
  }
  q.poison();
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));
  eng.run();
  // Each round grants critical 8 pops and bulk 1, so the older bulk
  // entries drain one per round behind the critical backlog:
  // C x8, B, C x8, B, C x4, B.
  std::vector<std::uint64_t> expected;
  const auto crits = [&expected](std::uint64_t first, std::uint64_t n) {
    for (std::uint64_t i = first; i < first + n; ++i) expected.push_back(i);
  };
  crits(100, 8);
  expected.push_back(0);
  crits(108, 8);
  expected.push_back(1);
  crits(116, 4);
  expected.push_back(2);
  EXPECT_EQ(order, expected);
}

TEST(QosQueue, PoisonDeliveredOnlyAfterDrainAndExcludedFromSize) {
  sim::Engine eng;
  const bool qos = true;
  QosQueue q(eng, &qos);
  RequestPool pool;
  q.push(make_req(pool, 1, Priority::kBulk));
  q.push(make_req(pool, 2, Priority::kCritical));
  q.poison();
  EXPECT_EQ(q.size(), 2u);  // poison is a flag, not a queued item
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));
  eng.run();
  EXPECT_EQ(order.size(), 2u);  // both real entries delivered, then null
  EXPECT_TRUE(q.empty());
}

TEST(QosQueue, ParkedConsumerWokenByPush) {
  sim::Engine eng;
  const bool qos = false;
  QosQueue q(eng, &qos);
  RequestPool pool;
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));  // parks: queue empty, no poison
  eng.schedule_at(10, [&] {
    q.push(make_req(pool, 7, Priority::kNormal));
    q.poison();
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{7}));
}

// ----------------------------------------------------------- CreditBank

sim::Co<void> take_credit(CreditBank& bank, std::vector<char>& order,
                          char tag) {
  co_await bank.acquire(1);
  order.push_back(tag);
}

TEST(CreditBankHandOff, ReleaseWakesOldestWaiterOnly) {
  sim::Engine eng;
  CreditBank bank(eng, 1, {1});
  std::vector<char> order;
  ASSERT_TRUE(bank.acquire(1).await_ready());
  sim::spawn(take_credit(bank, order, 'B'));  // parks: pool exhausted
  sim::spawn(take_credit(bank, order, 'D'));  // parks behind B
  eng.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(bank.waiters(1), 2u);
  // A release hands the credit to the oldest waiter: the free count
  // does not rise and the younger waiter stays parked.
  bank.release(1);
  EXPECT_EQ(bank.available(1), 0);
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'B'}));
  EXPECT_EQ(bank.waiters(1), 1u);
  EXPECT_TRUE(bank.conserved());
  bank.release(1);  // B's hold -> D
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'B', 'D'}));
  EXPECT_EQ(bank.available(1), 0);
  bank.release(1);  // D's hold
  EXPECT_EQ(bank.available(1), 1);
  bank.check_quiescent("hand-off unit");
}

// ------------------------------------------------- runtime integration

TEST(QosRuntime, DefaultPriorityMapping) {
  EXPECT_EQ(default_priority(OpCode::kFetchAdd), Priority::kCritical);
  EXPECT_EQ(default_priority(OpCode::kSwap), Priority::kCritical);
  EXPECT_EQ(default_priority(OpCode::kLock), Priority::kCritical);
  EXPECT_EQ(default_priority(OpCode::kUnlock), Priority::kCritical);
  EXPECT_EQ(default_priority(OpCode::kPutV), Priority::kBulk);
  EXPECT_EQ(default_priority(OpCode::kGetV), Priority::kBulk);
  EXPECT_EQ(default_priority(OpCode::kPutS), Priority::kBulk);
  EXPECT_EQ(default_priority(OpCode::kGetS), Priority::kBulk);
  EXPECT_EQ(default_priority(OpCode::kAcc), Priority::kNormal);
}

Runtime::Config storm_cfg(bool qos) {
  Runtime::Config cfg;
  cfg.num_nodes = 8;
  cfg.procs_per_node = 2;
  cfg.topology = core::TopologyKind::kMfcg;
  cfg.armci.qos = qos;
  return cfg;
}

struct StormOut {
  double critical_p99_us = 0.0;
  std::int64_t counter = 0;
  std::uint64_t requests = 0;
  std::uint64_t forwards = 0;
  std::uint64_t max_backlog = 0;
  sim::TimeNs end_ns = 0;
  std::vector<double> critical_lat_us;
};

/// Hot-spot storm against proc 0: odd procs flood 4 KiB vectored puts
/// (kBulk) while even procs issue critical fetch-&-adds, all contending
/// for node 0's CHT. `crit_per_even_proc` increments land on the
/// counter exactly once each.
StormOut run_storm(Runtime& rt, int bulk_ops, int crit_ops) {
  rt.tracer().enable();
  const auto off = rt.memory().alloc_all(
      64 + 4096 * (rt.num_procs() + 1));
  rt.spawn_all([off, bulk_ops, crit_ops](Proc& p) -> sim::Co<void> {
    if (p.node() == 0) co_return;
    if (p.id() % 2 == 1) {
      const std::vector<std::uint8_t> buf(4096, 0x5a);
      const PutSeg seg{buf, off + 64 + p.id() * 4096};
      for (int i = 0; i < bulk_ops; ++i) {
        co_await p.put_v(0, {&seg, 1});
      }
    } else {
      for (int i = 0; i < crit_ops; ++i) {
        co_await p.fetch_add(GAddr{0, off}, 1);
      }
    }
  });
  rt.run_all();
  StormOut out;
  const auto& crit = rt.tracer().series(TraceKind::kClassLatCritical);
  out.critical_p99_us = crit.percentile(99);
  out.critical_lat_us = crit.samples();
  out.counter = rt.memory().read_i64(GAddr{0, off});
  out.requests = rt.stats().requests;
  out.forwards = rt.stats().forwards;
  out.max_backlog = rt.stats().max_backlog;
  out.end_ns = rt.engine().now();
  return out;
}

TEST(QosRuntime, StormImprovesCriticalTailWithoutLosingOps) {
  sim::Engine eng_off;
  Runtime rt_off(eng_off, storm_cfg(false));
  const StormOut off = run_storm(rt_off, 30, 10);

  sim::Engine eng_on;
  Runtime rt_on(eng_on, storm_cfg(true));
  const StormOut on = run_storm(rt_on, 30, 10);

  // Exactly-once either way, and the QoS path actually engaged.
  const std::int64_t expected = 7 * 10;  // even procs on nodes 1..7
  EXPECT_EQ(off.counter, expected);
  EXPECT_EQ(on.counter, expected);
  EXPECT_GT(off.max_backlog, 0u);
  EXPECT_GT(on.max_backlog, 0u);
  // The weighted dequeue must cut the critical-class tail under the
  // bulk flood.
  EXPECT_GT(off.critical_p99_us, 0.0);
  EXPECT_LT(on.critical_p99_us, off.critical_p99_us);
}

TEST(QosRuntime, QosOnOutputInvariantAcrossShardCounts) {
  auto run_sharded = [](int shards) {
    Runtime::Config cfg = storm_cfg(true);
    cfg.shards = shards;
    Runtime rt(cfg);
    return run_storm(rt, 12, 6);
  };
  const StormOut base = run_sharded(1);
  for (const int shards : {2, 4}) {
    const StormOut b = run_sharded(shards);
    EXPECT_EQ(b.end_ns, base.end_ns) << "shards=" << shards;
    EXPECT_EQ(b.counter, base.counter) << "shards=" << shards;
    EXPECT_EQ(b.requests, base.requests) << "shards=" << shards;
    EXPECT_EQ(b.forwards, base.forwards) << "shards=" << shards;
    EXPECT_EQ(b.max_backlog, base.max_backlog) << "shards=" << shards;
    EXPECT_EQ(b.critical_lat_us, base.critical_lat_us)
        << "shards=" << shards;
  }
}

TEST(QosAdaptive, ControllerRetunesQosAtPhaseBoundaries) {
  sim::Engine eng;
  Runtime rt(eng, storm_cfg(false));
  AdaptiveConfig acfg;
  acfg.manage_qos = true;
  AdaptiveController ctrl(rt, acfg);
  EXPECT_FALSE(ctrl.qos_hot_active());
  EXPECT_FALSE(rt.qos());
  const auto off = rt.memory().alloc_all(64);
  bool hot_seen_on = false;
  rt.spawn(0, [&, off](Proc& p) -> sim::Co<void> {
    co_await p.fetch_add(GAddr{0, off}, 1);
    // Announce a hot-spotted upcoming phase: QoS switches on.
    (void)co_await ctrl.maybe_reconfigure(0.9);
    hot_seen_on = p.runtime().qos();
    co_await p.fetch_add(GAddr{0, off}, 1);
    // Announce a cold phase: back to FIFO.
    (void)co_await ctrl.maybe_reconfigure(0.0);
  });
  rt.run_all();
  EXPECT_TRUE(hot_seen_on);
  EXPECT_EQ(ctrl.qos_retunes(), 2);
  EXPECT_FALSE(ctrl.qos_hot_active());
  EXPECT_FALSE(rt.qos());
  bool saw_hot = false;
  bool saw_cold = false;
  for (const std::string& d : ctrl.decisions()) {
    if (d.find("qos=hot") != std::string::npos) saw_hot = true;
    if (d.find("qos=cold") != std::string::npos) saw_cold = true;
  }
  EXPECT_TRUE(saw_hot);
  EXPECT_TRUE(saw_cold);
}

}  // namespace
}  // namespace vtopo::armci
