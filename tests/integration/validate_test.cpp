// The VTOPO_VALIDATE invariant layer, exercised through its
// unconditional entry points (CreditBank::check_*, RequestPool::
// check_drained, Runtime::validate_quiescent) so the invariants are
// verified in the default build too — the VTOPO_VALIDATE option only
// adds the same checks to hot paths. Seeded violations prove the
// checks actually abort.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "armci/buffers.hpp"
#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "sim/frame_pool.hpp"

namespace vtopo {
namespace {

using core::ForwardingPolicy;
using core::TopologyKind;

armci::Runtime::Config hot_spot_cfg(TopologyKind kind,
                                    ForwardingPolicy policy) {
  armci::Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 2;
  cfg.topology = kind;
  cfg.policy = policy;
  return cfg;
}

/// Every process hammers a rank-0 counter (forwarded fetch-&-adds) and
/// accumulates a small vector — the paper's hot-spot pattern, which
/// drains every credit pool and forwards on every virtual topology.
void run_hot_spot(armci::Runtime& rt, std::int64_t region) {
  rt.spawn_all([&, region](armci::Proc& p) -> sim::Co<void> {
    const std::vector<double> v(8, 1.0);
    for (int i = 0; i < 4; ++i) {
      co_await p.fetch_add(armci::GAddr{0, region}, 1);
      co_await p.acc_f64(armci::GAddr{0, region + 8}, v, 1.0);
    }
    co_await p.barrier();
  });
  rt.run_all();
}

TEST(Validate, CreditsConservedAfterHotSpotRun) {
  for (auto kind : {TopologyKind::kFcg, TopologyKind::kMfcg,
                    TopologyKind::kCfcg, TopologyKind::kHypercube}) {
    sim::Engine eng;
    armci::Runtime rt(
        eng, hot_spot_cfg(kind, ForwardingPolicy::kLowestDimFirst));
    const auto region = rt.memory().alloc_all(256);
    run_hot_spot(rt, region);
    for (core::NodeId n = 0; n < rt.num_nodes(); ++n) {
      EXPECT_TRUE(rt.credits(n).conserved()) << "node " << n;
      rt.credits(n).check_quiescent("credit bank after clean run");
    }
  }
}

TEST(Validate, MidRunConservationUnderCreditPressure) {
  // Starve the banks (1 credit per edge) so acquire/release and the
  // waiter hand-off path all run; conservation must hold throughout,
  // checked at quiescence when in_use folded back into count.
  auto cfg = hot_spot_cfg(TopologyKind::kMfcg,
                          ForwardingPolicy::kLowestDimFirst);
  cfg.armci.buffers_per_process = 1;
  cfg.procs_per_node = 1;
  sim::Engine eng;
  armci::Runtime rt(eng, cfg);
  const auto region = rt.memory().alloc_all(256);
  run_hot_spot(rt, region);
  EXPECT_GT(rt.stats().credit_blocked_ns, 0) << "no credit pressure";
  rt.validate_quiescent();
}

TEST(Validate, ForwardingHopBoundHoldsOnEveryTopologyAndPolicy) {
  for (auto kind : {TopologyKind::kMfcg, TopologyKind::kCfcg,
                    TopologyKind::kHypercube}) {
    for (auto policy : {ForwardingPolicy::kLowestDimFirst,
                        ForwardingPolicy::kHighestDimFirst,
                        ForwardingPolicy::kScrambled}) {
      sim::Engine eng;
      armci::Runtime rt(eng, hot_spot_cfg(kind, policy));
      const auto region = rt.memory().alloc_all(256);
      run_hot_spot(rt, region);
      const auto& st = rt.stats();
      EXPECT_GT(st.forwards, 0u)
          << "expected forwarding on a virtual topology";
      EXPECT_GT(st.max_forwards_seen, 0u);
      EXPECT_LE(st.max_forwards_seen,
                static_cast<std::uint64_t>(rt.topology().max_forwards()));
    }
  }
}

TEST(Validate, FcgNeverForwards) {
  sim::Engine eng;
  armci::Runtime rt(eng, hot_spot_cfg(TopologyKind::kFcg,
                                      ForwardingPolicy::kLowestDimFirst));
  const auto region = rt.memory().alloc_all(256);
  run_hot_spot(rt, region);
  EXPECT_EQ(rt.stats().max_forwards_seen, 0u);
}

TEST(Validate, RequestPoolDrainedAtQuiescence) {
  sim::Engine eng;
  armci::Runtime rt(eng, hot_spot_cfg(TopologyKind::kMfcg,
                                      ForwardingPolicy::kLowestDimFirst));
  const auto region = rt.memory().alloc_all(256);
  run_hot_spot(rt, region);
  EXPECT_GT(rt.request_pool().created(), 0u);
  EXPECT_EQ(rt.request_pool().live(), 0u);
  rt.request_pool().check_drained("request pool after clean run");
  rt.validate_quiescent();
}

TEST(Validate, FramePoolFramesAllReturnedAfterRun) {
  const std::uint64_t live_before = sim::FramePool::live();
  {
    sim::Engine eng;
    armci::Runtime rt(eng, hot_spot_cfg(TopologyKind::kCfcg,
                                        ForwardingPolicy::kLowestDimFirst));
    const auto region = rt.memory().alloc_all(256);
    run_hot_spot(rt, region);
  }
  // Every coroutine frame and pooled future state allocated by the run
  // must be back on the freelists once the runtime is torn down.
  EXPECT_EQ(sim::FramePool::live(), live_before);
}

TEST(ValidateDeath, UnbalancedReleaseAborts) {
  sim::Engine eng;
  armci::CreditBank bank(eng, 2, {1, 3});
  EXPECT_DEATH(
      {
        bank.release(3);  // never acquired: count exceeds the limit
        bank.check_conserved("seeded violation");
      },
      "invariant violated");
}

TEST(ValidateDeath, HeldCreditFailsQuiescence) {
  sim::Engine eng;
  armci::CreditBank bank(eng, 2, {1});
  EXPECT_DEATH(
      {
        // With credits free the awaitable completes synchronously, so
        // driving it by hand holds one credit past the check.
        auto acq = bank.acquire(1);
        (void)acq.await_ready();
        bank.check_quiescent("seeded violation");
      },
      "invariant violated");
}

}  // namespace
}  // namespace vtopo
