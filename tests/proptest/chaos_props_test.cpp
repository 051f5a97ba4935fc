// Property-based chaos tests: invariants of the self-healing request
// path under seeded fault plans, over generated (topology x size x
// workload x fault schedule) cases. Each failing case prints a
// one-line `--seed=` repro and shrinks to a minimal counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "proptest.hpp"
#include "sim/rng.hpp"

namespace vtopo {
namespace {

using armci::GAddr;
using armci::Proc;
using proptest::CaseSpec;
using proptest::CheckOptions;
using proptest::PropResult;

/// Everything one chaos run observed; the properties below are pure
/// predicates over this record.
struct ChaosRun {
  bool deadlocked = false;
  std::int64_t stranded = 0;
  std::int64_t expected_counter = 0;
  std::int64_t final_counter = 0;
  std::vector<std::int64_t> fa_values;  ///< fetch_add return values
  double expected_acc = 0.0;
  double final_acc = 0.0;
  armci::RuntimeStats stats{};
  sim::TimeNs end_time = 0;
  bool banks_conserved = true;
  bool banks_idle = true;
  std::uint64_t pool_live = 0;
  std::int64_t inflight = 0;
  int max_forwards_bound = 0;
};

/// Run the shared chaos workload for `spec`: every process issues a
/// random mix of accumulates, +1 fetch-adds on one shared counter, and
/// CHT-path reads, all against node 0 (spared by FaultPlan::random so
/// shared state survives crashes), under the spec's fault plan.
/// `shards` == 0 runs the legacy single-threaded engine; >= 1 runs the
/// sharded engine with that many shards. `qos` arms the criticality-
/// aware request path (the weighted CHT dequeue) — the workload already
/// mixes the three classes (acc = normal, fetch_add = critical, get_v =
/// bulk).
ChaosRun run_chaos(const CaseSpec& spec, int shards = 0, bool qos = false) {
  sim::Engine eng;
  armci::Runtime::Config cfg;
  cfg.num_nodes = spec.nodes;
  cfg.procs_per_node = spec.ppn;
  cfg.topology = spec.kind;
  cfg.seed = spec.seed;
  cfg.armci.buffers_per_process = spec.buffers_per_process;
  cfg.armci.qos = qos;
  cfg.faults = spec.fault_plan();
  cfg.shards = std::max(shards, 1);
  std::unique_ptr<armci::Runtime> rt_owner =
      shards > 0 ? std::make_unique<armci::Runtime>(cfg)
                 : std::make_unique<armci::Runtime>(eng, cfg);
  armci::Runtime& rt = *rt_owner;

  const auto acc_cell = rt.memory().alloc_all(8);
  const auto counter = rt.memory().alloc_all(8);

  ChaosRun out;
  // Test-harness writes to the shared record run serially: under the
  // sharded engine they land between windows in (time, stamp) key
  // order, so the record — including the fetch_add value *order* — is
  // race-free and identical at every shard count.
  auto record = [&rt](auto fn) { rt.transport().run_serial(std::move(fn)); };
  rt.spawn_all([&](Proc& p) -> sim::Co<void> {
    sim::Rng rng(sim::derive_seed(spec.seed ^ 0xc0ffee, p.id()));
    for (int i = 0; i < spec.ops_per_proc; ++i) {
      switch (rng.uniform(3)) {
        case 0: {  // accumulate into the shared cell
          const double x = static_cast<double>(rng.uniform(50));
          const std::vector<double> vals{x};
          record([&out, x] { out.expected_acc += 1.5 * x; });
          co_await p.acc_f64(GAddr{0, acc_cell}, vals, 1.5);
          break;
        }
        case 1: {  // +1 fetch-add: exactly-once shows in the values
          record([&out] { ++out.expected_counter; });
          const std::int64_t old =
              co_await p.fetch_add(GAddr{0, counter}, 1);
          record([&out, old] { out.fa_values.push_back(old); });
          break;
        }
        case 2: {  // CHT-path read of the shared cell
          std::vector<std::uint8_t> tmp(8);
          const armci::GetSeg seg{tmp, acc_cell};
          co_await p.get_v(0, {&seg, 1});
          break;
        }
      }
    }
    co_await p.barrier();
  });
  try {
    rt.run_all();
  } catch (const armci::DeadlockError& e) {
    out.deadlocked = true;
    out.stranded = e.stranded();
  }
  out.final_counter = rt.memory().read_i64(GAddr{0, counter});
  out.final_acc = rt.memory().read_f64(GAddr{0, acc_cell});
  out.stats = rt.stats();
  out.end_time = rt.engine().now();
  for (core::NodeId node = 0; node < rt.num_nodes(); ++node) {
    const armci::CreditBank& bank = rt.credits(node);
    out.banks_conserved = out.banks_conserved && bank.conserved();
    out.banks_idle = out.banks_idle && bank.idle();
  }
  out.pool_live = rt.request_pool().live();
  out.inflight = rt.inflight_requests();
  out.max_forwards_bound = rt.topology_manager().max_forwards_bound();
  return out;
}

PropResult no_deadlock(const CaseSpec& spec) {
  const ChaosRun r = run_chaos(spec);
  if (r.deadlocked) {
    return PropResult::fail("deadlock: " + std::to_string(r.stranded) +
                            " task(s) stranded");
  }
  if (r.inflight != 0 || r.pool_live != 0) {
    return PropResult::fail(
        "run drained but left inflight=" + std::to_string(r.inflight) +
        " pool_live=" + std::to_string(r.pool_live));
  }
  return PropResult::pass();
}

PropResult exactly_once(const CaseSpec& spec) {
  ChaosRun r = run_chaos(spec);
  if (r.deadlocked) return PropResult::fail("deadlocked before check");
  if (r.final_counter != r.expected_counter) {
    return PropResult::fail(
        "counter=" + std::to_string(r.final_counter) + " expected " +
        std::to_string(r.expected_counter) +
        " (lost or double-applied increment)");
  }
  // All adds are +1, so the returned old values of an exactly-once
  // history are a permutation of 0..N-1. A duplicate value means a
  // double apply; a gap means a lost apply.
  std::sort(r.fa_values.begin(), r.fa_values.end());
  for (std::size_t i = 0; i < r.fa_values.size(); ++i) {
    if (r.fa_values[i] != static_cast<std::int64_t>(i)) {
      return PropResult::fail(
          "fetch_add values not a permutation at index " +
          std::to_string(i) + ": got " +
          std::to_string(r.fa_values[i]));
    }
  }
  if (r.final_acc != r.expected_acc) {
    std::ostringstream os;
    os << "accumulate cell=" << r.final_acc << " expected "
       << r.expected_acc;
    return PropResult::fail(os.str());
  }
  return PropResult::pass();
}

PropResult credits_conserved(const CaseSpec& spec) {
  const ChaosRun r = run_chaos(spec);
  if (r.deadlocked) return PropResult::fail("deadlocked before check");
  if (!r.banks_conserved) {
    return PropResult::fail("credit bank lost conservation");
  }
  if (!r.banks_idle) {
    return PropResult::fail(
        "credit bank not idle at quiescence (leaked lease)");
  }
  return PropResult::pass();
}

PropResult forwards_bounded(const CaseSpec& spec) {
  const ChaosRun r = run_chaos(spec);
  if (r.deadlocked) return PropResult::fail("deadlocked before check");
  if (r.stats.max_forwards_seen >
      static_cast<std::uint64_t>(r.max_forwards_bound)) {
    return PropResult::fail(
        "max_forwards_seen=" + std::to_string(r.stats.max_forwards_seen) +
        " > bound=" + std::to_string(r.max_forwards_bound));
  }
  return PropResult::pass();
}

/// Field-by-field comparison of two chaos records; `how` labels the
/// divergence ("replay" vs "shards=4").
PropResult compare_runs(const char* how, const ChaosRun& a,
                        const ChaosRun& b) {
  auto diff = [how](const char* what, auto x, auto y) {
    std::ostringstream os;
    os << how << " diverged: " << what << " " << x << " vs " << y;
    return PropResult::fail(os.str());
  };
  if (a.end_time != b.end_time) return diff("end_time", a.end_time, b.end_time);
  if (a.final_counter != b.final_counter) {
    return diff("counter", a.final_counter, b.final_counter);
  }
  if (a.final_acc != b.final_acc) return diff("acc", a.final_acc, b.final_acc);
  if (a.fa_values != b.fa_values) {
    return PropResult::fail(std::string(how) +
                            " diverged: fetch_add value order");
  }
  if (a.stats.requests != b.stats.requests) {
    return diff("requests", a.stats.requests, b.stats.requests);
  }
  if (a.stats.forwards != b.stats.forwards) {
    return diff("forwards", a.stats.forwards, b.stats.forwards);
  }
  if (a.stats.retries != b.stats.retries) {
    return diff("retries", a.stats.retries, b.stats.retries);
  }
  if (a.stats.msgs_dropped != b.stats.msgs_dropped) {
    return diff("msgs_dropped", a.stats.msgs_dropped, b.stats.msgs_dropped);
  }
  if (a.stats.dup_suppressed != b.stats.dup_suppressed) {
    return diff("dup_suppressed", a.stats.dup_suppressed,
                b.stats.dup_suppressed);
  }
  if (a.stats.heals != b.stats.heals) {
    return diff("heals", a.stats.heals, b.stats.heals);
  }
  return PropResult::pass();
}

PropResult replay_identical(const CaseSpec& spec) {
  const ChaosRun a = run_chaos(spec);
  const ChaosRun b = run_chaos(spec);
  return compare_runs("replay", a, b);
}

// --- QoS-enabled properties ------------------------------------------
// Same chaos machinery with the criticality-aware request path armed:
// reordering the CHT queues must not break credit conservation, and the
// weighted dequeue must not starve any op out of completing.

PropResult qos_credits_conserved(const CaseSpec& spec) {
  const ChaosRun r = run_chaos(spec, 0, /*qos=*/true);
  if (r.deadlocked) return PropResult::fail("deadlocked before check");
  if (!r.banks_conserved) {
    return PropResult::fail(
        "credit conservation lost with QoS scheduling");
  }
  if (!r.banks_idle) {
    return PropResult::fail(
        "credit bank not idle at quiescence (leaked credit)");
  }
  if (r.inflight != 0 || r.pool_live != 0) {
    return PropResult::fail(
        "qos run drained but left inflight=" + std::to_string(r.inflight) +
        " pool_live=" + std::to_string(r.pool_live));
  }
  return PropResult::pass();
}

PropResult qos_no_starvation(const CaseSpec& spec) {
  const ChaosRun r = run_chaos(spec, 0, /*qos=*/true);
  if (r.deadlocked) {
    return PropResult::fail(
        "deadlock with QoS scheduling: " + std::to_string(r.stranded) +
        " task(s) stranded");
  }
  // Every issued op completed exactly once: the per-round bulk quantum
  // keeps bulk draining under the weighted dequeue — a starved op would
  // strand the counter short (its proc never reaches the final barrier).
  if (r.final_counter != r.expected_counter) {
    return PropResult::fail(
        "counter=" + std::to_string(r.final_counter) + " expected " +
        std::to_string(r.expected_counter) + " under QoS scheduling");
  }
  if (r.final_acc != r.expected_acc) {
    return PropResult::fail("accumulate lost under QoS scheduling");
  }
  return PropResult::pass();
}

PropResult qos_shard_invariant(const CaseSpec& spec) {
  const ChaosRun base = run_chaos(spec, 1, /*qos=*/true);
  for (const int shards : {2, 4}) {
    const ChaosRun b = run_chaos(spec, shards, /*qos=*/true);
    const PropResult r =
        compare_runs(shards == 2 ? "qos shards=2" : "qos shards=4", base, b);
    if (!r.ok) return r;
  }
  return PropResult::pass();
}

/// The full chaos machinery — fault injection, drops, duplicates,
/// watchdog retries, heal-around — must be byte-invariant across shard
/// counts of the sharded engine.
PropResult shard_invariant(const CaseSpec& spec) {
  const ChaosRun base = run_chaos(spec, 1);
  for (const int shards : {2, 4, 8}) {
    const ChaosRun b = run_chaos(spec, shards);
    const char* how = shards == 2   ? "shards=2"
                      : shards == 4 ? "shards=4"
                                    : "shards=8";
    const PropResult r = compare_runs(how, base, b);
    if (!r.ok) return r;
  }
  return PropResult::pass();
}

TEST(ChaosProps, NoDeadlockUnderFaults) {
  const auto out = proptest::check("no_deadlock", no_deadlock);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, ExactlyOnceCompletionUnderDropAndDuplicate) {
  const auto out = proptest::check("exactly_once", exactly_once);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, CreditBankConservationAcrossCrashAndRemap) {
  const auto out = proptest::check("credits_conserved", credits_conserved);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, ForwardsStayWithinTopologyBoundOnFaultedMeshes) {
  const auto out = proptest::check("forwards_bounded", forwards_bounded);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, SameSeedReplaysByteIdentically) {
  CheckOptions opts;
  opts.cases = 6;  // each case runs the simulation twice
  const auto out = proptest::check("replay_identical", replay_identical, opts);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, ShardCountInvariantUnderFaults) {
  CheckOptions opts;
  opts.cases = 4;  // each case runs the simulation four times (1/2/4/8)
  const auto out = proptest::check("shard_invariant", shard_invariant, opts);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, QosCreditLanesConservedUnderFaults) {
  const auto out =
      proptest::check("qos_credits_conserved", qos_credits_conserved);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, QosNoStarvationUnderAgingAndFaults) {
  const auto out = proptest::check("qos_no_starvation", qos_no_starvation);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(ChaosProps, QosShardCountInvariant) {
  CheckOptions opts;
  opts.cases = 3;  // each case runs the simulation three times (1/2/4)
  const auto out =
      proptest::check("qos_shard_invariant", qos_shard_invariant, opts);
  EXPECT_TRUE(out.ok) << out.repro;
}

}  // namespace
}  // namespace vtopo
