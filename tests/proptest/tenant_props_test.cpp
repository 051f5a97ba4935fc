// Property-based tenant-isolation tests: two runtimes co-resident on
// one coupled fabric (the multi-tenant service's composition, driven
// directly through Runtime::Config::fabric), where tenant A runs
// fault-free while tenant B takes the spec's whole seeded fault plan.
// Over generated cases, B's chaos — crashes, severed links, drops,
// duplicates, delays — must never abort, retry, or heal-around any
// tenant A request, and every tenant's CreditBank must conserve at
// quiescence. Specs with tenants=1 pass vacuously, so the shrinker
// keeps tenants=2 in any minimal counterexample (the tenant dimension
// shrinks canonically like every other knob).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "core/partition.hpp"
#include "net/network.hpp"
#include "proptest.hpp"
#include "sim/rng.hpp"

namespace vtopo {
namespace {

using armci::GAddr;
using armci::Proc;
using proptest::CaseSpec;
using proptest::CheckOptions;
using proptest::PropResult;

/// Everything observed about one tenant in one run.
struct TenantRecord {
  bool deadlocked = false;
  std::int64_t expected_counter = 0;
  std::int64_t final_counter = 0;
  std::vector<std::int64_t> fa_values;
  double expected_acc = 0.0;
  double final_acc = 0.0;
  armci::RuntimeStats stats{};
  sim::TimeNs finish = 0;  ///< engine time when the last proc completed
  bool banks_conserved = true;
  bool banks_idle = true;
};

struct PairRun {
  TenantRecord a;
  std::optional<TenantRecord> b;
};

struct TenantCells {
  std::int64_t acc = 0;
  std::int64_t counter = 0;
};

/// The per-tenant chaos workload (the chaos_props mix, against the
/// tenant's own rank 0): accumulates, +1 fetch-adds on a shared
/// counter, and CHT-path reads.
TenantCells spawn_tenant_workload(armci::Runtime& rt, const CaseSpec& spec,
                                  std::uint64_t stream, TenantRecord* rec) {
  const auto acc_cell = rt.memory().alloc_all(8);
  const auto counter = rt.memory().alloc_all(8);
  sim::Engine* eng = &rt.engine();
  rt.spawn_all([spec, stream, rec, eng, acc_cell,
                counter](Proc& p) -> sim::Co<void> {
    sim::Rng rng(sim::derive_seed(spec.seed ^ stream, p.id()));
    for (int i = 0; i < spec.ops_per_proc; ++i) {
      switch (rng.uniform(3)) {
        case 0: {
          const double x = static_cast<double>(rng.uniform(50));
          const std::vector<double> vals{x};
          rec->expected_acc += 1.5 * x;
          co_await p.acc_f64(GAddr{0, acc_cell}, vals, 1.5);
          break;
        }
        case 1: {
          ++rec->expected_counter;
          const std::int64_t old =
              co_await p.fetch_add(GAddr{0, counter}, 1);
          rec->fa_values.push_back(old);
          break;
        }
        case 2: {
          std::vector<std::uint8_t> tmp(8);
          const armci::GetSeg seg{tmp, acc_cell};
          co_await p.get_v(0, {&seg, 1});
          break;
        }
      }
    }
    co_await p.barrier();
    rec->finish = eng->now();
  });
  return TenantCells{acc_cell, counter};
}

void collect_tenant(armci::Runtime& rt, const TenantCells& cells,
                    TenantRecord* rec) {
  rec->final_counter = rt.memory().read_i64(GAddr{0, cells.counter});
  rec->final_acc = rt.memory().read_f64(GAddr{0, cells.acc});
  rec->stats = rt.stats();
  for (core::NodeId node = 0; node < rt.num_nodes(); ++node) {
    const armci::CreditBank& bank = rt.credits(node);
    rec->banks_conserved = rec->banks_conserved && bank.conserved();
    rec->banks_idle = rec->banks_idle && bank.idle();
  }
}

armci::Runtime::Config tenant_config(const CaseSpec& spec,
                                     std::shared_ptr<net::Fabric> fabric,
                                     std::vector<std::int64_t> slots) {
  armci::Runtime::Config cfg;
  cfg.num_nodes = spec.nodes;
  cfg.procs_per_node = spec.ppn;
  cfg.topology = spec.kind;
  cfg.seed = spec.seed;
  cfg.armci.buffers_per_process = spec.buffers_per_process;
  cfg.fabric = std::move(fabric);
  cfg.fabric_slots = std::move(slots);
  return cfg;
}

/// Run tenant A (fault-free), optionally co-resident with tenant B
/// (armed with the spec's whole fault plan) on one shared fabric with
/// compact route-contained partitions.
PairRun run_pair(const CaseSpec& spec, bool with_b) {
  sim::Engine eng;
  // 4x headroom: the near-cubic machine for 2*nodes fragments after the
  // first box carve (e.g. 8+8 on the 3x3x2-for-16 torus leaves no free
  // 2x2x2), so size the fabric for four tenants and carve two.
  auto fabric = std::make_shared<net::Fabric>(4 * spec.nodes);
  core::TorusPartitioner parts(fabric->torus.dims());
  auto part_a = parts.carve(spec.nodes, core::PartitionPolicy::kCompactBlock);
  PairRun out;
  if (!part_a) {
    out.a.deadlocked = true;  // surfaced as a failure by the caller
    return out;
  }

  armci::Runtime rt_a(eng, tenant_config(spec, fabric, part_a->slots));
  const TenantCells cells_a =
      spawn_tenant_workload(rt_a, spec, 0xa11ce, &out.a);

  std::unique_ptr<armci::Runtime> rt_b;
  TenantCells cells_b;
  if (with_b) {
    auto part_b =
        parts.carve(spec.nodes, core::PartitionPolicy::kCompactBlock);
    if (!part_b) {
      out.a.deadlocked = true;
      return out;
    }
    out.b.emplace();
    armci::Runtime::Config cfg_b =
        tenant_config(spec, fabric, part_b->slots);
    cfg_b.faults = spec.fault_plan();
    rt_b = std::make_unique<armci::Runtime>(eng, cfg_b);
    cells_b = spawn_tenant_workload(*rt_b, spec, 0xbad, &*out.b);
  }

  try {
    rt_a.run_all();
    if (rt_b) rt_b->run_all();
  } catch (const armci::DeadlockError&) {
    out.a.deadlocked = true;
    if (out.b) out.b->deadlocked = true;
    return out;
  }
  rt_a.validate_quiescent();
  if (rt_b) rt_b->validate_quiescent();
  collect_tenant(rt_a, cells_a, &out.a);
  if (rt_b) collect_tenant(*rt_b, cells_b, &*out.b);
  return out;
}

/// B's faults never reach A: no retry, drop, duplicate-suppression, or
/// heal shows up in A's stats, and A completes every op exactly once.
PropResult tenant_a_untouched_by_b_faults(const CaseSpec& spec) {
  if (spec.tenants < 2) return PropResult::pass();
  const PairRun r = run_pair(spec, /*with_b=*/true);
  if (r.a.deadlocked) {
    return PropResult::fail("coupled run deadlocked or failed to carve");
  }
  const auto& s = r.a.stats;
  if (s.retries != 0 || s.msgs_dropped != 0 || s.msgs_duplicated != 0 ||
      s.msgs_delayed != 0 || s.heals != 0 || s.healed_reroutes != 0 ||
      s.credits_reclaimed != 0) {
    std::ostringstream os;
    os << "tenant B faults leaked into tenant A: retries=" << s.retries
       << " dropped=" << s.msgs_dropped << " dup=" << s.msgs_duplicated
       << " delayed=" << s.msgs_delayed << " heals=" << s.heals
       << " reclaimed=" << s.credits_reclaimed;
    return PropResult::fail(os.str());
  }
  if (r.a.final_counter != r.a.expected_counter) {
    return PropResult::fail(
        "tenant A lost an increment under tenant B chaos: counter=" +
        std::to_string(r.a.final_counter) + " expected " +
        std::to_string(r.a.expected_counter));
  }
  if (r.a.final_acc != r.a.expected_acc) {
    return PropResult::fail("tenant A accumulate diverged under B chaos");
  }
  return PropResult::pass();
}

/// A's whole observable record — values, fetch-add order, completion
/// time, protocol counters — is identical solo vs co-resident with a
/// faulted B on compact (route-contained) partitions.
PropResult tenant_a_solo_vs_coresident(const CaseSpec& spec) {
  if (spec.tenants < 2) return PropResult::pass();
  const PairRun solo = run_pair(spec, /*with_b=*/false);
  const PairRun both = run_pair(spec, /*with_b=*/true);
  if (solo.a.deadlocked || both.a.deadlocked) {
    return PropResult::fail("run deadlocked or failed to carve");
  }
  auto diff = [](const char* what, auto x, auto y) {
    std::ostringstream os;
    os << "tenant A diverged solo vs co-resident: " << what << " " << x
       << " vs " << y;
    return PropResult::fail(os.str());
  };
  if (solo.a.finish != both.a.finish) {
    return diff("finish_time", solo.a.finish, both.a.finish);
  }
  if (solo.a.final_counter != both.a.final_counter) {
    return diff("counter", solo.a.final_counter, both.a.final_counter);
  }
  if (solo.a.final_acc != both.a.final_acc) {
    return diff("acc", solo.a.final_acc, both.a.final_acc);
  }
  if (solo.a.fa_values != both.a.fa_values) {
    return PropResult::fail("tenant A fetch_add order changed");
  }
  if (solo.a.stats.requests != both.a.stats.requests) {
    return diff("requests", solo.a.stats.requests, both.a.stats.requests);
  }
  if (solo.a.stats.forwards != both.a.stats.forwards) {
    return diff("forwards", solo.a.stats.forwards, both.a.stats.forwards);
  }
  if (solo.a.stats.acks != both.a.stats.acks) {
    return diff("acks", solo.a.stats.acks, both.a.stats.acks);
  }
  if (solo.a.stats.cht_wakeups != both.a.stats.cht_wakeups) {
    return diff("cht_wakeups", solo.a.stats.cht_wakeups,
                both.a.stats.cht_wakeups);
  }
  return PropResult::pass();
}

/// Per-tenant CreditBank conservation at quiescence, both tenants,
/// with B under chaos the whole run.
PropResult tenant_credits_conserved(const CaseSpec& spec) {
  if (spec.tenants < 2) return PropResult::pass();
  const PairRun r = run_pair(spec, /*with_b=*/true);
  if (r.a.deadlocked) {
    return PropResult::fail("coupled run deadlocked or failed to carve");
  }
  if (!r.a.banks_conserved || !r.a.banks_idle) {
    return PropResult::fail("tenant A credit bank not conserved/idle");
  }
  if (r.b && (!r.b->banks_conserved || !r.b->banks_idle)) {
    return PropResult::fail(
        "tenant B credit bank not conserved/idle after its own faults");
  }
  return PropResult::pass();
}

/// The coupled two-tenant run replays byte-identically.
PropResult tenant_replay_identical(const CaseSpec& spec) {
  if (spec.tenants < 2) return PropResult::pass();
  const PairRun x = run_pair(spec, /*with_b=*/true);
  const PairRun y = run_pair(spec, /*with_b=*/true);
  if (x.a.deadlocked != y.a.deadlocked) {
    return PropResult::fail("replay diverged: deadlock status");
  }
  if (x.a.finish != y.a.finish || x.a.final_counter != y.a.final_counter ||
      x.a.fa_values != y.a.fa_values) {
    return PropResult::fail("replay diverged: tenant A record");
  }
  if (x.b && y.b &&
      (x.b->finish != y.b->finish ||
       x.b->final_counter != y.b->final_counter ||
       x.b->stats.retries != y.b->stats.retries ||
       x.b->stats.heals != y.b->stats.heals)) {
    return PropResult::fail("replay diverged: tenant B record");
  }
  return PropResult::pass();
}

TEST(TenantProps, TenantBFaultsNeverReachTenantA) {
  const auto out = proptest::check("tenant_a_untouched",
                                   tenant_a_untouched_by_b_faults);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(TenantProps, TenantASoloVsCoResidentIsByteIdentical) {
  CheckOptions opts;
  opts.cases = 8;  // each 2-tenant case runs the simulation twice
  const auto out = proptest::check("tenant_a_solo_vs_coresident",
                                   tenant_a_solo_vs_coresident, opts);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(TenantProps, PerTenantCreditBanksConservedAtQuiescence) {
  const auto out =
      proptest::check("tenant_credits_conserved", tenant_credits_conserved);
  EXPECT_TRUE(out.ok) << out.repro;
}

TEST(TenantProps, CoupledTwoTenantRunReplaysIdentically) {
  CheckOptions opts;
  opts.cases = 6;
  const auto out =
      proptest::check("tenant_replay_identical", tenant_replay_identical, opts);
  EXPECT_TRUE(out.ok) << out.repro;
}

}  // namespace
}  // namespace vtopo
