// Differential oracle between the executors the runtime runs on.
//
// The legacy engine is bit-deterministic and locked behind goldens. The
// threads backend runs every node on a real std::thread with wall-clock
// latency, so its timing is nondeterministic by design; the sharded
// engine is deterministic but quantizes cross-node timing to its window
// grid, a golden family of its own. What must still match is everything
// the program — not the clock — determines: which operations complete,
// how many CHT requests and responses they take, the numeric results,
// and conservation of every credit and pool slot. These tests run the
// same workloads on the legacy engine, the threads backend and the
// sharded engine at 4 shards (on real shard threads), and compare
// exactly those quantities. (Timing-coupled counters — forwards, acks,
// wakeups, backlogs — legitimately differ: request combining and
// queue depths depend on what is in flight at the same instant.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "workloads/nas_lu.hpp"
#include "workloads/nwchem_dft.hpp"
#include "workloads/phased.hpp"
#include "workloads/trace_replay.hpp"

namespace vtopo {
namespace {

using work::ClusterConfig;

ClusterConfig small_cluster(armci::Backend backend, int shards = 0,
                            int nodes = 4) {
  ClusterConfig cl;
  cl.num_nodes = nodes;
  cl.procs_per_node = 2;
  cl.topology = core::TopologyKind::kMfcg;
  cl.backend = backend;
  cl.shards = shards;
  cl.thread_mode = sim::ThreadMode::kThreads;
  return cl;
}

ClusterConfig sharded_cluster() {
  return small_cluster(armci::Backend::kSim, /*shards=*/4);
}

/// Program-determined counters: one request per CHT-mediated op, one
/// response per request, one direct op per contiguous put/get. Unlike
/// forwards/acks these cannot depend on arrival interleaving.
void expect_same_completions(const armci::RuntimeStats& legacy,
                             const armci::RuntimeStats& other) {
  EXPECT_EQ(legacy.requests, other.requests);
  EXPECT_EQ(legacy.responses, other.responses);
  EXPECT_EQ(legacy.direct_ops, other.direct_ops);
  // Exactly-once on the other executor: every issued request completed,
  // none twice.
  EXPECT_EQ(other.requests, other.responses);
  EXPECT_EQ(other.retries, 0u);
}

work::DftConfig small_dft() {
  work::DftConfig dft;
  dft.scf_iterations = 2;
  dft.total_tasks = 96;
  dft.compute_us_per_task = 20.0;
  return dft;
}

work::PhasedConfig small_phased() {
  work::PhasedConfig ph;
  ph.cycles = 1;
  ph.hot_ops_per_proc = 8;
  ph.bw_tiles_per_proc = 4;
  return ph;
}

TEST(BackendDiff, DftMatchesSimExactly) {
  const work::DftConfig dft = small_dft();
  const work::AppResult sim =
      run_nwchem_dft(small_cluster(armci::Backend::kSim), dft);
  const work::AppResult thr =
      run_nwchem_dft(small_cluster(armci::Backend::kThreads), dft);
  const work::AppResult shd = run_nwchem_dft(sharded_cluster(), dft);
  expect_same_completions(sim.stats, thr.stats);
  expect_same_completions(sim.stats, shd.stats);
  // The energy cell accumulates 0.25-steps: exact in binary floating
  // point regardless of arrival order, so the checksums are identical.
  EXPECT_EQ(sim.checksum, thr.checksum);
  EXPECT_EQ(sim.checksum, shd.checksum);
}

TEST(BackendDiff, LuMatchesSimWithinAccumulationOrder) {
  work::LuConfig lu;
  lu.iterations = 4;
  lu.nx_global = 64;
  const work::AppResult sim =
      run_nas_lu(small_cluster(armci::Backend::kSim), lu);
  const work::AppResult thr =
      run_nas_lu(small_cluster(armci::Backend::kThreads), lu);
  const work::AppResult shd = run_nas_lu(sharded_cluster(), lu);
  expect_same_completions(sim.stats, thr.stats);
  expect_same_completions(sim.stats, shd.stats);
  // The residual sums 1/(rank+1) terms in completion order, so the
  // other executors may round differently in the last bits.
  EXPECT_NEAR(sim.checksum, thr.checksum,
              1e-9 * std::abs(sim.checksum));
  EXPECT_NEAR(sim.checksum, shd.checksum,
              1e-9 * std::abs(sim.checksum));
}

TEST(BackendDiff, PhasedMatchesSimExactly) {
  const work::PhasedConfig ph = small_phased();
  const work::PhasedResult sim =
      run_phased(small_cluster(armci::Backend::kSim), ph);
  const work::PhasedResult thr =
      run_phased(small_cluster(armci::Backend::kThreads), ph);
  const work::PhasedResult shd = run_phased(sharded_cluster(), ph);
  expect_same_completions(sim.app.stats, thr.app.stats);
  expect_same_completions(sim.app.stats, shd.app.stats);
  // counter (integer fetch-&-adds) + 0.5-step accumulates: both exact.
  EXPECT_EQ(sim.app.checksum, thr.app.checksum);
  EXPECT_EQ(sim.app.checksum, shd.app.checksum);
}

// Two nodes make three workers, which fit a 4-core host, so these
// threads runs take the executor's spin path; the 4-node runs above
// (five workers) park at every wait.
TEST(BackendDiff, DftMatchesSimExactlyOnTwoNodes) {
  const work::AppResult sim =
      run_nwchem_dft(small_cluster(armci::Backend::kSim, 0, 2), small_dft());
  const work::AppResult thr = run_nwchem_dft(
      small_cluster(armci::Backend::kThreads, 0, 2), small_dft());
  expect_same_completions(sim.stats, thr.stats);
  EXPECT_EQ(sim.checksum, thr.checksum);
}

TEST(BackendDiff, PhasedMatchesSimExactlyOnTwoNodes) {
  const work::PhasedResult sim =
      run_phased(small_cluster(armci::Backend::kSim, 0, 2), small_phased());
  const work::PhasedResult thr = run_phased(
      small_cluster(armci::Backend::kThreads, 0, 2), small_phased());
  expect_same_completions(sim.app.stats, thr.app.stats);
  EXPECT_EQ(sim.app.checksum, thr.app.checksum);
}

// The one driver whose programs issue direct put/get and ARMCI locks.
// Every proc moves bytes to and from a proc on another node, takes one
// of two contended mutexes around a fetch-&-add, and mixes in vectored
// and accumulate traffic; three rounds, each closed by a barrier.
TEST(BackendDiff, TraceReplayMatchesSimExactly) {
  const ClusterConfig legacy = small_cluster(armci::Backend::kSim);
  const std::int64_t procs = legacy.num_procs();
  std::string text;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t p = 0; p < procs; ++p) {
      const std::string me = std::to_string(p) + " ";
      const std::string peer = std::to_string((p + 3) % procs) + " ";
      const std::string owner = std::to_string(p % 2) + " ";
      text += me + "put " + peer + "256\n";
      text += me + "get " + peer + "256\n";
      text += me + "lock " + owner + std::to_string(p % 2) + "\n";
      text += me + "fetchadd " + owner + "1\n";
      text += me + "unlock " + owner + std::to_string(p % 2) + "\n";
      text += me + "putv " + peer + "128\n";
      text += me + "getv " + peer + "128\n";
      text += me + "acc " + peer + "4\n";
      text += me + "barrier\n";
    }
  }
  const std::vector<work::TraceOp> ops = work::parse_trace(text, procs);
  const work::TraceResult sim = work::replay_trace(legacy, ops);
  const work::TraceResult thr =
      work::replay_trace(small_cluster(armci::Backend::kThreads), ops);
  const work::TraceResult shd = work::replay_trace(sharded_cluster(), ops);
  EXPECT_EQ(sim.stats.direct_ops, static_cast<std::uint64_t>(6 * procs));
  expect_same_completions(sim.stats, thr.stats);
  expect_same_completions(sim.stats, shd.stats);
}

// ---------------------------------------------------------------------
// Op-completion multiset at the tracer level: the same mixed program on
// both backends must record the same number of completions of every
// operation kind.
// ---------------------------------------------------------------------

armci::Runtime::Config direct_cfg(armci::Backend backend) {
  armci::Runtime::Config cfg;
  cfg.num_nodes = 8;
  cfg.procs_per_node = 2;
  cfg.topology = core::TopologyKind::kMfcg;
  cfg.backend = backend;
  return cfg;
}

/// Mixed program touching every major op family: direct puts/gets to a
/// neighbor, forwarded fetch-&-adds and accumulates on rank 0.
void run_mixed(armci::Runtime& rt, std::int64_t region) {
  rt.spawn_all([region](armci::Proc& p) -> sim::Co<void> {
    const std::vector<double> v(8, 0.25);
    std::vector<std::uint8_t> buf(64, static_cast<std::uint8_t>(p.id()));
    const armci::ProcId peer =
        (p.id() + 1) % p.runtime().num_procs();
    for (int i = 0; i < 3; ++i) {
      co_await p.put(armci::GAddr{peer, region + 64}, buf);
      co_await p.get(buf, armci::GAddr{peer, region + 64});
      co_await p.fetch_add(armci::GAddr{0, region}, 1);
      co_await p.acc_f64(armci::GAddr{0, region + 8}, v, 1.0);
    }
    co_await p.barrier();
  });
  rt.run_all();
}

std::vector<std::uint64_t> op_multiset(armci::Runtime& rt,
                                       std::int64_t region) {
  rt.tracer().enable();
  run_mixed(rt, region);
  std::vector<std::uint64_t> counts;
  counts.reserve(armci::kNumTraceKinds);
  for (std::size_t k = 0; k < armci::kNumTraceKinds; ++k) {
    counts.push_back(
        rt.tracer().series(static_cast<armci::TraceKind>(k)).size());
  }
  return counts;
}

TEST(BackendDiff, TracedOpMultisetMatches) {
  sim::Engine eng;
  armci::Runtime sim_rt(eng, direct_cfg(armci::Backend::kSim));
  const auto sim_region = sim_rt.memory().alloc_all(256);
  const auto sim_counts = op_multiset(sim_rt, sim_region);

  armci::Runtime thr_rt(direct_cfg(armci::Backend::kThreads));
  const auto thr_region = thr_rt.memory().alloc_all(256);
  const auto thr_counts = op_multiset(thr_rt, thr_region);

  EXPECT_EQ(sim_region, thr_region);
  EXPECT_EQ(sim_counts, thr_counts);
}

// ---------------------------------------------------------------------
// Threads-backend invariants: after a run that drains every credit
// pool, the runtime must be quiescent and every resource conserved —
// the same VTOPO_VALIDATE battery the sim backend passes, on real
// threads.
// ---------------------------------------------------------------------

TEST(BackendThreads, QuiescentAndConservedAfterHotSpot) {
  armci::Runtime rt(direct_cfg(armci::Backend::kThreads));
  const auto region = rt.memory().alloc_all(256);
  run_mixed(rt, region);
  rt.validate_quiescent();
  for (core::NodeId n = 0; n < rt.num_nodes(); ++n) {
    EXPECT_TRUE(rt.credits(n).conserved()) << "node " << n;
    rt.credits(n).check_quiescent("threads backend after clean run");
  }
  // The hot counter saw every fetch-&-add exactly once.
  EXPECT_EQ(rt.memory().read_i64(armci::GAddr{0, region}),
            3 * rt.num_procs());
}

TEST(BackendThreads, BackToBackRuntimesJoinCleanly) {
  // Worker threads are joined in the Runtime destructor; three full
  // construct/run/destroy cycles in one process prove the teardown
  // neither hangs nor leaks runnable work into the next instance.
  for (int round = 0; round < 3; ++round) {
    armci::Runtime rt(direct_cfg(armci::Backend::kThreads));
    const auto region = rt.memory().alloc_all(256);
    run_mixed(rt, region);
    rt.validate_quiescent();
    EXPECT_EQ(rt.memory().read_i64(armci::GAddr{0, region}),
              3 * rt.num_procs());
  }
}

TEST(BackendThreads, FaultInjectionIsRejected) {
  armci::Runtime::Config cfg = direct_cfg(armci::Backend::kThreads);
  sim::FaultPlan plan;
  plan.drop_requests = 0.05;
  cfg.faults = plan;
  EXPECT_THROW(armci::Runtime rt(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vtopo
