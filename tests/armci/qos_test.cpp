// Criticality-aware QoS: the class-aware CHT queue (weighted DRR +
// aging), the reserved credit lanes, the endpoint congestion windows,
// and the runtime integration (per-class tail latency under a hot-spot
// storm, shard invariance with QoS on, adaptive per-phase retuning).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "armci/adaptive.hpp"
#include "armci/buffers.hpp"
#include "armci/congestion.hpp"
#include "armci/proc.hpp"
#include "armci/qos_queue.hpp"
#include "armci/request.hpp"
#include "armci/runtime.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {
namespace {

// ------------------------------------------------------------- QosQueue

RequestPtr make_req(RequestPool& pool, std::uint64_t id, Priority cls,
                    std::int64_t enqueued_ns) {
  RequestPtr r = pool.acquire();
  r->id = id;
  r->cls = cls;
  r->enqueued_ns = enqueued_ns;
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
  QosParams qos;  // enabled == false
  QosQueue q(eng, &qos);
  RequestPool pool;
  const Priority classes[] = {Priority::kBulk,     Priority::kCritical,
                              Priority::kNormal,   Priority::kCritical,
                              Priority::kBulk,     Priority::kNormal};
  for (std::uint64_t i = 0; i < 6; ++i) {
    q.push(make_req(pool, i, classes[i], 0));
  }
  q.poison();
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.aged_promotions(), 0u);
}

TEST(QosQueue, EnabledPrefersCriticalOverOlderBulk) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  QosQueue q(eng, &qos);
  RequestPool pool;
  for (std::uint64_t i = 0; i < 4; ++i) {
    q.push(make_req(pool, i, Priority::kBulk, 0));
  }
  q.push(make_req(pool, 10, Priority::kCritical, 0));
  q.push(make_req(pool, 11, Priority::kCritical, 0));
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

TEST(QosQueue, AgingPromotesStarvedBulkAndCounts) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.aging_quantum = 100;  // ns, so two quanta elapse below
  QosQueue q(eng, &qos);
  RequestPool pool;
  q.push(make_req(pool, 1, Priority::kBulk, 0));  // enqueued at t=0
  std::vector<std::uint64_t> order;
  eng.schedule_at(250, [&] {
    // A critical arrives 250 ns later; the bulk head has aged two
    // quanta (bulk -> critical), ties the fresh critical on effective
    // class, and wins the FIFO tie-break.
    q.push(make_req(pool, 2, Priority::kCritical, 250));
    q.poison();
    sim::spawn(drain(q, order));
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(q.aged_promotions(), 1u);
}

TEST(QosQueue, PoisonDeliveredOnlyAfterDrainAndExcludedFromSize) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  QosQueue q(eng, &qos);
  RequestPool pool;
  q.push(make_req(pool, 1, Priority::kBulk, 0));
  q.push(make_req(pool, 2, Priority::kCritical, 0));
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
  QosParams qos;
  QosQueue q(eng, &qos);
  RequestPool pool;
  std::vector<std::uint64_t> order;
  sim::spawn(drain(q, order));  // parks: queue empty, no poison
  eng.schedule_at(10, [&] {
    q.push(make_req(pool, 7, Priority::kNormal, 10));
    q.poison();
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{7}));
}

// ----------------------------------------------------------- CreditBank

TEST(QosCreditBank, ReservedLaneKeepsCriticalEligible) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.reserve_critical = 1;
  CreditBank bank(eng, 3, {1}, &qos);  // 2 shared + 1 critical-only
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  // Shared lane drained: bulk and normal see no credit, critical does.
  EXPECT_FALSE(bank.may_acquire(1, Priority::kBulk));
  EXPECT_FALSE(bank.may_acquire(1, Priority::kNormal));
  EXPECT_TRUE(bank.may_acquire(1, Priority::kCritical));
  EXPECT_TRUE(bank.conserved());
  ASSERT_TRUE(bank.acquire(1, Priority::kCritical).await_ready());
  EXPECT_EQ(bank.reserved_grants(), 1u);
  EXPECT_FALSE(bank.may_acquire(1, Priority::kCritical));
  EXPECT_TRUE(bank.conserved());
  bank.release(1, Priority::kBulk);
  bank.release(1, Priority::kBulk);
  bank.release(1, Priority::kCritical);
  EXPECT_TRUE(bank.conserved());
  bank.check_quiescent("reserved-lane unit");
}

TEST(QosCreditBank, DisabledQosReservesNothing) {
  sim::Engine eng;
  QosParams qos;  // enabled == false: reservations are inert
  qos.reserve_critical = 1;
  CreditBank bank(eng, 2, {1}, &qos);
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  EXPECT_TRUE(bank.may_acquire(1, Priority::kBulk));
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  EXPECT_EQ(bank.reserved_grants(), 0u);
  bank.release(1, Priority::kBulk);
  bank.release(1, Priority::kBulk);
  bank.check_quiescent("disabled-qos unit");
}

TEST(QosCreditBank, LiveRetuneToleratesRaisedReservation) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.reserve_critical = 0;
  CreditBank bank(eng, 2, {1}, &qos);
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());
  // Raise the reservation while both credits are held (live set_qos
  // retune): the shared lane is transiently over-committed, which must
  // read as "no shared credit free", not break conservation.
  qos.reserve_critical = 1;
  EXPECT_TRUE(bank.conserved());
  EXPECT_FALSE(bank.may_acquire(1, Priority::kBulk));
  bank.release(1, Priority::kBulk);
  // The freed credit replenishes the (newly) reserved lane first.
  EXPECT_FALSE(bank.may_acquire(1, Priority::kBulk));
  EXPECT_TRUE(bank.may_acquire(1, Priority::kCritical));
  EXPECT_TRUE(bank.conserved());
  bank.release(1, Priority::kBulk);
  bank.check_quiescent("live-retune unit");
}

sim::Co<void> take_bulk(CreditBank& bank, std::vector<char>& order,
                        char tag) {
  co_await bank.acquire(1, Priority::kBulk);
  order.push_back(tag);
}

TEST(QosCreditBank, ReleaseScanSkipsIneligibleParkedBulk) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.reserve_critical = 1;
  CreditBank bank(eng, 2, {1}, &qos);  // 1 shared + 1 critical-only
  std::vector<char> order;
  ASSERT_TRUE(bank.acquire(1, Priority::kBulk).await_ready());  // shared
  sim::spawn(take_bulk(bank, order, 'B'));  // parks (shared drained)
  ASSERT_TRUE(
      bank.acquire(1, Priority::kCritical).await_ready());  // lane C
  sim::spawn(take_bulk(bank, order, 'D'));  // parks behind B
  eng.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(bank.waiters(1), 2u);
  // The critical hold returns to its reserved lane, which neither bulk
  // waiter may use: the wake scan must leave both parked.
  bank.release(1, Priority::kCritical);
  eng.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(bank.waiters(1), 2u);
  EXPECT_TRUE(bank.conserved());
  // The shared hold wakes the *oldest* bulk waiter only.
  bank.release(1, Priority::kBulk);
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'B'}));
  EXPECT_EQ(bank.waiters(1), 1u);
  bank.release(1, Priority::kBulk);  // B's hold -> D
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'B', 'D'}));
  bank.release(1, Priority::kBulk);  // D's hold
  bank.check_quiescent("wake-scan unit");
}

// ---------------------------------------------------- CongestionControl

TEST(QosCongestion, DisabledNeverGates) {
  sim::Engine eng;
  QosParams qos;  // enabled == false
  CongestionControl cc(eng, &qos);
  EXPECT_FALSE(cc.gates(Priority::kBulk));
  EXPECT_FALSE(cc.gates(Priority::kCritical));
  auto a = cc.acquire(3, Priority::kBulk);
  EXPECT_TRUE(a.await_ready());  // never blocks, charges no slot
  EXPECT_EQ(cc.outstanding(3), 0);
  EXPECT_TRUE(cc.idle());
}

TEST(QosCongestion, CriticalBypassesWindowByDefault) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  CongestionControl cc(eng, &qos);
  EXPECT_TRUE(cc.gates(Priority::kBulk));
  EXPECT_TRUE(cc.gates(Priority::kNormal));
  EXPECT_FALSE(cc.gates(Priority::kCritical));
  qos.critical_bypasses_window = false;
  EXPECT_TRUE(cc.gates(Priority::kCritical));
}

TEST(QosCongestion, AimdShrinksGrowsAndClamps) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.window_init = 8;
  qos.window_min = 1;
  qos.window_max = 10;
  CongestionControl cc(eng, &qos);
  EXPECT_EQ(cc.window(5), 8);
  auto probe = [&](std::int32_t backlog) {
    auto a = cc.acquire(5, Priority::kBulk);
    EXPECT_TRUE(a.await_ready());
    return cc.complete(5, backlog);
  };
  EXPECT_TRUE(probe(qos.backlog_high));  // 8 -> 4
  EXPECT_EQ(cc.window(5), 4);
  EXPECT_TRUE(probe(qos.backlog_high));  // 4 -> 2
  EXPECT_TRUE(probe(qos.backlog_high));  // 2 -> 1
  EXPECT_FALSE(probe(qos.backlog_high));  // clamped at window_min
  EXPECT_EQ(cc.window(5), 1);
  EXPECT_FALSE(probe(qos.backlog_low));  // 1 -> 2 (additive growth)
  EXPECT_EQ(cc.window(5), 2);
  for (int i = 0; i < 20; ++i) (void)probe(0);
  EXPECT_EQ(cc.window(5), 10);  // clamped at window_max
  // A mid-band backlog adjusts nothing.
  EXPECT_FALSE(probe((qos.backlog_low + qos.backlog_high) / 2));
  EXPECT_EQ(cc.window(5), 10);
  EXPECT_TRUE(cc.idle());
}

sim::Co<void> gated_op(CongestionControl& cc, std::vector<int>& order,
                       int tag) {
  co_await cc.acquire(5, Priority::kBulk);
  order.push_back(tag);
}

TEST(QosCongestion, FullWindowParksFifoAndCompletionWakes) {
  sim::Engine eng;
  QosParams qos;
  qos.enabled = true;
  qos.window_init = 1;
  CongestionControl cc(eng, &qos);
  std::vector<int> order;
  ASSERT_TRUE(cc.acquire(5, Priority::kBulk).await_ready());
  sim::spawn(gated_op(cc, order, 1));
  sim::spawn(gated_op(cc, order, 2));
  eng.run();
  EXPECT_TRUE(order.empty());  // window full: both parked
  EXPECT_FALSE(cc.idle());
  cc.complete(5, qos.backlog_low + 1);  // free the slot, no adjustment
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  cc.complete(5, qos.backlog_low + 1);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  cc.complete(5, qos.backlog_low + 1);
  EXPECT_TRUE(cc.idle());
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
  cfg.armci.qos.enabled = qos;
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
  // The weighted dequeue + reserved lane + congestion window must cut
  // the critical-class tail under the bulk flood.
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

TEST(QosRuntime, CongestionWindowStatsPopulateUnderFlood) {
  Runtime::Config cfg = storm_cfg(true);
  cfg.armci.qos.window_init = 4;
  cfg.armci.qos.backlog_high = 2;
  cfg.armci.qos.backlog_low = 0;
  sim::Engine eng;
  Runtime rt(eng, cfg);
  rt.tracer().enable();
  const auto off = rt.memory().alloc_all(64 + 4096 * (rt.num_procs() + 1));
  // Four concurrent bulk puts per proc against a one-slot window: the
  // issue path must park (stall) and the piggybacked backlog must drive
  // multiplicative decreases.
  rt.spawn_all([off](Proc& p) -> sim::Co<void> {
    if (p.node() == 0) co_return;
    const std::vector<std::uint8_t> buf(2048, 1);
    const PutSeg seg{buf, off + 64 + p.id() * 4096};
    for (int round = 0; round < 5; ++round) {
      std::vector<sim::Future<int>> futs;
      for (int i = 0; i < 4; ++i) {
        futs.push_back(p.nb_put_v(0, {&seg, 1}));
      }
      for (auto& f : futs) co_await f;
    }
  });
  rt.run_all();
  EXPECT_GT(rt.stats().congestion_stalls, 0u);
  EXPECT_GT(rt.stats().congestion_stall_ns, 0);
  EXPECT_GT(rt.stats().window_shrinks, 0u);
}

TEST(QosRuntime, StickyOverrideChangesRequestClass) {
  sim::Engine eng;
  Runtime rt(eng, storm_cfg(false));
  rt.tracer().enable();
  const auto off = rt.memory().alloc_all(64);
  rt.spawn(2, [off](Proc& p) -> sim::Co<void> {
    p.set_priority(Priority::kBulk);  // demote the atomic to bulk
    co_await p.fetch_add(GAddr{0, off}, 1);
    p.clear_priority();
    co_await p.fetch_add(GAddr{0, off}, 1);
  });
  rt.run_all();
  EXPECT_EQ(rt.tracer().series(TraceKind::kClassLatBulk).size(), 1u);
  EXPECT_EQ(rt.tracer().series(TraceKind::kClassLatCritical).size(), 1u);
}

TEST(QosAdaptive, ControllerRetunesQosAtPhaseBoundaries) {
  sim::Engine eng;
  Runtime rt(eng, storm_cfg(false));
  AdaptiveConfig acfg;
  acfg.manage_qos = true;
  AdaptiveController ctrl(rt, acfg);
  EXPECT_FALSE(ctrl.qos_hot_active());
  EXPECT_FALSE(rt.qos().enabled);
  const auto off = rt.memory().alloc_all(64);
  bool hot_seen_on = false;
  rt.spawn(0, [&, off](Proc& p) -> sim::Co<void> {
    co_await p.fetch_add(GAddr{0, off}, 1);
    // Announce a hot-spotted upcoming phase: the hot QoS config lands.
    (void)co_await ctrl.maybe_reconfigure(0.9);
    hot_seen_on = p.runtime().qos().enabled;
    co_await p.fetch_add(GAddr{0, off}, 1);
    // Announce a cold phase: back to FIFO.
    (void)co_await ctrl.maybe_reconfigure(0.0);
  });
  rt.run_all();
  EXPECT_TRUE(hot_seen_on);
  EXPECT_EQ(ctrl.qos_retunes(), 2);
  EXPECT_FALSE(ctrl.qos_hot_active());
  EXPECT_FALSE(rt.qos().enabled);
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
