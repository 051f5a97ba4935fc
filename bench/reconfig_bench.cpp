// Live-reconfiguration cost model: prices the incremental credit-bank
// remap against the rebuild-from-scratch strategy on the same mid-run
// transition, then races the adaptive controller against every static
// topology on the phase-switching workload. Writes BENCH_reconfig.json.
//
// Two claims are checked (and recorded for docs/performance.md):
//   1. The incremental remap is strictly cheaper than a rebuild, in
//      both bytes allocated and remap stall time, whenever the two
//      topologies share edges (FCG -> MFCG shares every mesh edge).
//   2. The adaptive controller beats the worse static choice and lands
//      within ~10% of the per-phase-best static oracle (the sum of each
//      phase's fastest static time).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "bench_util.hpp"
#include "core/topology.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "workloads/phased.hpp"

using namespace vtopo;

namespace {

using core::TopologyKind;

struct ModeCost {
  const char* mode;
  std::int64_t pools_kept = 0;
  std::int64_t pools_added = 0;
  std::int64_t pools_removed = 0;
  double bytes_allocated_mb = 0.0;
  double bytes_released_mb = 0.0;
  double quiesce_ms = 0.0;
  double remap_ms = 0.0;
  double exec_sec = 0.0;
};

sim::Co<void> switch_at(armci::Runtime* rt, sim::TimeNs at,
                        TopologyKind to, armci::ReconfigMode mode) {
  co_await sim::Sleep(rt->engine(), at);
  (void)co_await rt->reconfigure(to, mode);
}

/// One mid-run FCG -> MFCG switch under a fetch-&-add flood, with the
/// given remap strategy. Everything is simulated time: the run is
/// deterministic and comparable across modes.
ModeCost price_mode(armci::ReconfigMode mode, bool quick) {
  sim::Engine eng;
  armci::Runtime::Config cfg;
  cfg.num_nodes = quick ? 32 : 128;
  cfg.procs_per_node = 4;
  cfg.topology = TopologyKind::kFcg;
  armci::Runtime rt(eng, cfg);
  const auto off = rt.memory().alloc_all(8);
  rt.spawn_task(switch_at(&rt, sim::us(60), TopologyKind::kMfcg, mode));
  const int ops = quick ? 20 : 40;
  rt.spawn_all([off, ops](armci::Proc& p) -> sim::Co<void> {
    for (int i = 0; i < ops; ++i) {
      co_await p.fetch_add(armci::GAddr{0, off}, 1);
    }
  });
  rt.run_all();

  const armci::ReconfigReport& rep = rt.last_reconfig();
  ModeCost c;
  c.mode = mode == armci::ReconfigMode::kIncremental ? "incremental"
                                                     : "rebuild";
  c.pools_kept = rep.pools_kept;
  c.pools_added = rep.pools_added;
  c.pools_removed = rep.pools_removed;
  c.bytes_allocated_mb =
      static_cast<double>(rep.bytes_allocated) / (1024.0 * 1024.0);
  c.bytes_released_mb =
      static_cast<double>(rep.bytes_released) / (1024.0 * 1024.0);
  c.quiesce_ms = sim::to_us(rep.quiesce_ns) / 1e3;
  c.remap_ms = sim::to_us(rep.remap_ns) / 1e3;
  c.exec_sec = sim::to_sec(eng.now());
  return c;
}

struct PhasedRun {
  std::string label;
  double exec_sec = 0.0;
  std::vector<double> phase_sec;
  int reconfigurations = 0;
};

work::PhasedConfig phased_cfg(bool quick) {
  work::PhasedConfig pc;
  pc.cycles = 2;
  // Phases must be long enough to amortize the ~0.2 ms reconfiguration
  // stall, or the adaptive schedule pays for its switches without
  // recouping them.
  pc.hot_ops_per_proc = quick ? 96 : 256;
  pc.bw_tiles_per_proc = quick ? 24 : 64;
  return pc;
}

PhasedRun run_static(TopologyKind kind, bool quick) {
  work::ClusterConfig cl;
  cl.num_nodes = quick ? 16 : 32;
  cl.procs_per_node = 2;
  cl.topology = kind;
  const work::PhasedResult r = work::run_phased(cl, phased_cfg(quick));
  PhasedRun out;
  out.label = core::to_string(kind);
  out.exec_sec = r.app.exec_time_sec;
  out.phase_sec = r.phase_sec;
  out.reconfigurations = r.reconfigurations;
  return out;
}

PhasedRun run_adaptive(bool quick) {
  work::ClusterConfig cl;
  cl.num_nodes = quick ? 16 : 32;
  cl.procs_per_node = 2;
  cl.topology = TopologyKind::kFcg;  // deliberately wrong for phase 0
  work::PhasedConfig pc = phased_cfg(quick);
  pc.adaptive = true;
  const work::PhasedResult r = work::run_phased(cl, pc);
  PhasedRun out;
  out.label = "adaptive";
  out.exec_sec = r.app.exec_time_sec;
  out.phase_sec = r.phase_sec;
  out.reconfigurations = r.reconfigurations;
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::string out_path =
      args.get_string("--out", "BENCH_reconfig.json");

  bench::print_header("reconfig_bench",
                      "live reconfiguration cost: incremental vs "
                      "rebuild, adaptive vs static");

  // ---- Part 1: remap strategy cost on one mid-run transition.
  const ModeCost inc = price_mode(armci::ReconfigMode::kIncremental, quick);
  const ModeCost reb = price_mode(armci::ReconfigMode::kRebuild, quick);
  std::printf("%-12s %10s %10s %10s %12s %10s %10s\n", "mode", "kept",
              "added", "removed", "alloc_mb", "quiesce_ms", "remap_ms");
  for (const ModeCost* c : {&inc, &reb}) {
    std::printf("%-12s %10lld %10lld %10lld %12.2f %10.3f %10.3f\n",
                c->mode, static_cast<long long>(c->pools_kept),
                static_cast<long long>(c->pools_added),
                static_cast<long long>(c->pools_removed),
                c->bytes_allocated_mb, c->quiesce_ms, c->remap_ms);
  }
  const bool incremental_cheaper =
      inc.bytes_allocated_mb < reb.bytes_allocated_mb &&
      inc.remap_ms < reb.remap_ms;
  std::printf("incremental_cheaper   %s\n",
              incremental_cheaper ? "yes" : "NO");

  // ---- Part 2: adaptive controller vs static choices on the
  // phase-switching workload.
  std::vector<PhasedRun> runs;
  for (const TopologyKind k :
       {TopologyKind::kFcg, TopologyKind::kMfcg, TopologyKind::kCfcg}) {
    runs.push_back(run_static(k, quick));
  }
  const PhasedRun adaptive = run_adaptive(quick);

  // Per-phase-best oracle: each phase at its fastest static time.
  const std::size_t phases = adaptive.phase_sec.size();
  double oracle = 0.0;
  for (std::size_t i = 0; i < phases; ++i) {
    double best = runs[0].phase_sec[i];
    for (const PhasedRun& r : runs) {
      if (r.phase_sec[i] < best) best = r.phase_sec[i];
    }
    oracle += best;
  }
  const double adaptive_work = sum(adaptive.phase_sec);

  std::printf("%-10s %12s %16s\n", "schedule", "exec_sec", "reconfigs");
  for (const PhasedRun& r : runs) {
    std::printf("%-10s %12.6f %16d\n", r.label.c_str(), r.exec_sec,
                r.reconfigurations);
  }
  std::printf("%-10s %12.6f %16d\n", adaptive.label.c_str(),
              adaptive.exec_sec, adaptive.reconfigurations);
  double worst = 0.0;
  double best_static = runs[0].exec_sec;
  for (const PhasedRun& r : runs) {
    if (r.exec_sec > worst) worst = r.exec_sec;
    if (r.exec_sec < best_static) best_static = r.exec_sec;
  }
  std::printf("per_phase_best_sec    %.6f\n", oracle);
  std::printf("adaptive_work_sec     %.6f\n", adaptive_work);
  std::printf("adaptive_vs_oracle    %.3f\n", adaptive_work / oracle);
  std::printf("beats_worst_static    %s\n",
              adaptive.exec_sec < worst ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"transition\": \"fcg_to_mfcg\",\n"
               "  \"incremental\": {\"pools_kept\": %lld, "
               "\"pools_added\": %lld, \"pools_removed\": %lld, "
               "\"alloc_mb\": %.3f, \"quiesce_ms\": %.4f, "
               "\"remap_ms\": %.4f},\n"
               "  \"rebuild\": {\"pools_kept\": %lld, "
               "\"pools_added\": %lld, \"pools_removed\": %lld, "
               "\"alloc_mb\": %.3f, \"quiesce_ms\": %.4f, "
               "\"remap_ms\": %.4f},\n"
               "  \"incremental_cheaper\": %s,\n"
               "  \"phased\": {\n"
               "    \"fcg_sec\": %.6f,\n"
               "    \"mfcg_sec\": %.6f,\n"
               "    \"cfcg_sec\": %.6f,\n"
               "    \"adaptive_sec\": %.6f,\n"
               "    \"adaptive_reconfigs\": %d,\n"
               "    \"per_phase_best_sec\": %.6f,\n"
               "    \"adaptive_work_sec\": %.6f,\n"
               "    \"adaptive_vs_oracle\": %.4f,\n"
               "    \"beats_worst_static\": %s\n"
               "  }\n"
               "}\n",
               static_cast<long long>(inc.pools_kept),
               static_cast<long long>(inc.pools_added),
               static_cast<long long>(inc.pools_removed),
               inc.bytes_allocated_mb, inc.quiesce_ms, inc.remap_ms,
               static_cast<long long>(reb.pools_kept),
               static_cast<long long>(reb.pools_added),
               static_cast<long long>(reb.pools_removed),
               reb.bytes_allocated_mb, reb.quiesce_ms, reb.remap_ms,
               incremental_cheaper ? "true" : "false", runs[0].exec_sec,
               runs[1].exec_sec, runs[2].exec_sec, adaptive.exec_sec,
               adaptive.reconfigurations, oracle, adaptive_work,
               adaptive_work / oracle,
               adaptive.exec_sec < worst ? "true" : "false");
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());
  return incremental_cheaper ? 0 : 1;
}
