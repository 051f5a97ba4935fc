// Weak-scaling sweep of the Figure-7 hot-spot workload: N processes
// (1k -> 64k on the legacy engine, to 1M+ on the sharded engine) each
// issue K fetch-&-adds on one counter owned by rank 0, across the four
// virtual topologies. Reports wall-clock, simulated time, protocol
// counters, and peak RSS per point, plus a shard sweep, into
// BENCH_runtime.json. Engine, network and runtime-path throughput
// (msgs_per_sec, fetchadd_ops_per_sec, the pool reuse fractions) are
// hotpath_bench's to record, critical-class latency qos_bench's.
//
// Unlike the figure benches this is a *flood* (no turn-taking barrier
// between ranks): host-side work is O(N * K), which is what makes the
// large points tractable. FCG is swept only to 4k processes — its
// per-node credit state is O(N) (every node neighbors every other), so
// the full-graph points would measure allocator thrashing, exactly the
// scaling wall Figure 5 documents; those points print an explicit
// "skipped" marker instead of silently vanishing from the table.
//
// The shard sweep runs the same flood on the sharded engine at 1/2/4/8
// shards and reports wallclock speedup relative to 1 shard plus the
// per-shard memory high-waters. Speedup is a *host* property: with
// fewer cores than shards the conservative-window machinery is pure
// overhead, so the JSON records host_cores alongside the ratios and
// readers should interpret them together (see docs/performance.md).
//
// --backend threads runs the sweep on the real std::thread transport
// instead of the simulator: one OS thread per node, wall-clock
// latencies, sweep capped at 1024 processes (each node is a real
// thread), shard sweep and scale ceiling skipped (the threads backend
// has no shards), output to BENCH_realtime_scaling.json. The sim_ms
// column then reports *real* elapsed milliseconds — host-dependent and
// not comparable to simulated numbers (see docs/performance.md).
//
// vtopo-lint: allow-file(nondeterminism) -- wall-clock throughput timing only; never feeds simulated results
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "armci/backend_threads.hpp"
#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "core/topology.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace {

using vtopo::armci::GAddr;
using vtopo::armci::Proc;
using vtopo::armci::Runtime;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

struct Point {
  std::string topology;
  std::int64_t procs = 0;
  std::int64_t nodes = 0;
  std::int64_t ops = 0;
  int shards = 0;  ///< 0 = legacy single-threaded engine
  double wallclock_ms = 0;
  double sim_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t forwards = 0;
  std::uint64_t msgs = 0;
  double rss_mb = 0;
  std::vector<vtopo::armci::ShardMemStats> shard_mem;
};

/// One sweep point: `procs` ranks flooding fetch-&-adds at rank 0.
/// `shards` == 0 runs the legacy engine; >= 1 the sharded engine.
/// `use_threads` runs the real std::thread transport backend instead
/// (one worker thread per node; `shards` is ignored there).
Point run_point(vtopo::core::TopologyKind kind, std::int64_t procs,
                int ops_per_proc, int shards = 0,
                bool use_threads = false) {
  const auto start = std::chrono::steady_clock::now();
  vtopo::sim::Engine eng;
  Runtime::Config cfg;
  cfg.procs_per_node = 4;
  cfg.num_nodes = procs / cfg.procs_per_node;
  cfg.topology = kind;
  cfg.shards = shards > 0 ? shards : 1;
  if (use_threads) cfg.backend = vtopo::armci::Backend::kThreads;
  std::unique_ptr<Runtime> rt_owner =
      (shards > 0 || use_threads) ? std::make_unique<Runtime>(cfg)
                                  : std::make_unique<Runtime>(eng, cfg);
  Runtime& rt = *rt_owner;
  const auto off = rt.memory().alloc_all(8);
  rt.spawn_all([off, ops_per_proc](Proc& p) -> vtopo::sim::Co<void> {
    for (int k = 0; k < ops_per_proc; ++k) {
      co_await p.fetch_add(GAddr{0, off}, 1);
    }
  });
  rt.run_all();

  Point pt;
  pt.topology = vtopo::core::to_string(kind);
  pt.procs = procs;
  pt.nodes = cfg.num_nodes;
  pt.ops = procs * ops_per_proc;
  pt.shards = shards;
  pt.wallclock_ms = seconds_since(start) * 1e3;
  // Via the transport seam: simulated ns on the sim backend, wall-clock
  // ns since transport start on the threads backend.
  pt.sim_ms = static_cast<double>(rt.now()) / 1e6;
  pt.requests = rt.stats().requests;
  pt.forwards = rt.stats().forwards;
  pt.msgs = rt.network().messages_sent();
  pt.rss_mb = peak_rss_mb();
  pt.shard_mem = rt.stats().shard_mem;
  return pt;
}

void print_point(const Point& pt) {
  std::printf("%-7s %8lld %7lld %9lld %12.1f %12.3f %10llu %9.1f\n",
              pt.topology.c_str(), static_cast<long long>(pt.procs),
              static_cast<long long>(pt.nodes),
              static_cast<long long>(pt.ops), pt.wallclock_ms, pt.sim_ms,
              static_cast<unsigned long long>(pt.requests), pt.rss_mb);
}

void print_shard_mem(const Point& pt) {
  for (std::size_t s = 0; s < pt.shard_mem.size(); ++s) {
    const auto& m = pt.shard_mem[s];
    std::printf(
        "#   shard %zu: heap_slots=%zu heap_peak=%zu mailbox_peak=%zu "
        "pool_created=%llu events=%llu\n",
        s, m.heap_slots, m.heap_peak, m.mailbox_peak,
        static_cast<unsigned long long>(m.pool_created),
        static_cast<unsigned long long>(m.events));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const vtopo::bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::int64_t max_procs =
      args.get_int("--max-procs", quick ? 1024 : 65536);
  const int ops_per_proc =
      static_cast<int>(args.get_int("--ops", quick ? 2 : 8));
  const std::int64_t shard_procs =
      args.get_int("--shard-procs", quick ? 1024 : 65536);
  const std::int64_t big_procs =
      args.get_int("--big-procs", quick ? 16384 : 1048576);
  const int big_ops =
      static_cast<int>(args.get_int("--big-ops", quick ? 1 : 2));
  const std::string backend_name = args.get_string("--backend", "sim");
  const bool threads = backend_name == "threads";
  // The threads run must not clobber the simulator's golden-adjacent
  // artifact, so it defaults to its own output file.
  const std::string out_path = args.get_string(
      "--out",
      threads ? "BENCH_realtime_scaling.json" : "BENCH_runtime.json");
  const int host_cores = vtopo::armci::host_cores();

  vtopo::bench::print_header(
      "weak_scaling",
      threads
          ? "hot-spot fetch-add flood on the std::thread backend "
            "(real wall-clock, <= 1024 processes)"
          : "hot-spot fetch-add flood, 1k -> 64k processes + sharded 1M");

  std::printf("host_cores            %d\n", host_cores);
  vtopo::bench::print_rule();

  // Sweep ascending so each point's peak-RSS reading is dominated by its
  // own footprint (ru_maxrss is monotone over the process lifetime).
  const vtopo::core::TopologyKind kinds[] = {
      vtopo::core::TopologyKind::kFcg, vtopo::core::TopologyKind::kMfcg,
      vtopo::core::TopologyKind::kCfcg,
      vtopo::core::TopologyKind::kHypercube};
  constexpr std::int64_t kFcgMaxProcs = 4096;
  // One OS thread per node on the real backend: past 1024 processes
  // (256 worker threads) the sweep measures the host scheduler, not the
  // transport — mirror the FCG wall with an explicit marker.
  constexpr std::int64_t kThreadsMaxProcs = 1024;

  std::vector<Point> points;
  std::printf("# %-5s %8s %7s %9s %12s %12s %10s %9s\n", "topo", "procs",
              "nodes", "ops", "wallclock_ms", "sim_ms", "requests",
              "rss_mb");
  if (threads) {
    std::printf("# backend=threads: sim_ms column is REAL elapsed ms "
                "(host-dependent)\n");
  }
  for (std::int64_t procs = 1024; procs <= max_procs; procs *= 4) {
    for (const auto kind : kinds) {
      if (kind == vtopo::core::TopologyKind::kFcg &&
          procs > kFcgMaxProcs) {
        std::printf("%-7s %8lld %7lld  skipped (O(N^2) memory: full-graph "
                    "credit state)\n",
                    "FCG", static_cast<long long>(procs),
                    static_cast<long long>(procs / 4));
        continue;
      }
      if (threads && procs > kThreadsMaxProcs) {
        std::printf("%-7s %8lld %7lld  skipped (threads backend: one OS "
                    "thread per node)\n",
                    vtopo::core::to_string(kind),
                    static_cast<long long>(procs),
                    static_cast<long long>(procs / 4));
        continue;
      }
      points.push_back(run_point(kind, procs, ops_per_proc, 0, threads));
      print_point(points.back());
    }
  }

  // ---- Shard sweep + scale ceiling: sim backend only (the threads
  // backend has no shards — its parallelism IS the per-node threads) ----
  std::vector<Point> shard_points;
  Point big;
  if (!threads) {
    vtopo::bench::print_rule();
    std::printf("# shard sweep: MFCG %lld procs, ThreadMode=auto "
                "(host_cores=%d)\n",
                static_cast<long long>(shard_procs), host_cores);
    for (const int shards : {1, 2, 4, 8}) {
      shard_points.push_back(run_point(vtopo::core::TopologyKind::kMfcg,
                                       shard_procs, ops_per_proc, shards));
      Point& pt = shard_points.back();
      std::printf("# shards=%d wallclock_ms=%.1f sim_ms=%.3f rss_mb=%.1f "
                  "speedup=%.2f\n",
                  shards, pt.wallclock_ms, pt.sim_ms, pt.rss_mb,
                  shard_points.front().wallclock_ms / pt.wallclock_ms);
      print_shard_mem(pt);
    }

    vtopo::bench::print_rule();
    std::printf("# scale ceiling: MFCG %lld procs, 8 shards, %d ops/proc\n",
                static_cast<long long>(big_procs), big_ops);
    big = run_point(vtopo::core::TopologyKind::kMfcg, big_procs, big_ops, 8);
    print_point(big);
    print_shard_mem(big);
  } else {
    vtopo::bench::print_rule();
    std::printf("# shard sweep + scale ceiling skipped: threads backend "
                "(one OS thread per node, no engine shards)\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"backend\": \"%s\",\n"
               "  \"host_cores\": %d,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"fcg_skipped_above_procs\": %lld,\n"
               "  \"weak_scaling\": [\n",
               backend_name.c_str(), host_cores, VTOPO_BUILD_TYPE,
               static_cast<long long>(kFcgMaxProcs));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::fprintf(f,
                 "    {\"topology\": \"%s\", \"procs\": %lld, \"nodes\": "
                 "%lld, \"ops\": %lld, \"wallclock_ms\": %.3f, "
                 "\"sim_ms\": %.3f, \"requests\": %llu, \"forwards\": "
                 "%llu, \"msgs\": %llu, \"peak_rss_mb\": %.1f}%s\n",
                 pt.topology.c_str(), static_cast<long long>(pt.procs),
                 static_cast<long long>(pt.nodes),
                 static_cast<long long>(pt.ops), pt.wallclock_ms,
                 pt.sim_ms, static_cast<unsigned long long>(pt.requests),
                 static_cast<unsigned long long>(pt.forwards),
                 static_cast<unsigned long long>(pt.msgs), pt.rss_mb,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"shard_sweep\": [\n");
  for (std::size_t i = 0; i < shard_points.size(); ++i) {
    const Point& pt = shard_points[i];
    std::fprintf(
        f,
        "    {\"shards\": %d, \"procs\": %lld, \"wallclock_ms\": %.3f, "
        "\"sim_ms\": %.3f, \"peak_rss_mb\": %.1f, "
        "\"speedup_vs_1shard\": %.3f}%s\n",
        pt.shards, static_cast<long long>(pt.procs), pt.wallclock_ms,
        pt.sim_ms, pt.rss_mb,
        shard_points.front().wallclock_ms / pt.wallclock_ms,
        i + 1 < shard_points.size() ? "," : "");
  }
  if (threads) {
    std::fprintf(
        f,
        "  ],\n"
        "  \"shard_sweep_note\": \"skipped: the threads backend has no "
        "engine shards (one OS thread per node is its parallelism)\",\n"
        "  \"threads_note\": \"sim_ms fields are REAL elapsed ms on the "
        "std::thread backend — host-dependent, not comparable to "
        "simulated numbers\",\n"
        "  \"scale_ceiling\": null\n");
  } else {
    std::fprintf(
        f,
        "  ],\n"
        "  \"shard_sweep_note\": \"speedup is a host property: with "
        "host_cores < shards the window machinery is pure overhead and "
        "ratios near/below 1.0 are expected; >= 3x at 8 shards requires "
        ">= 8 cores\",\n"
        "  \"scale_ceiling\": {\"topology\": \"%s\", \"procs\": %lld, "
        "\"nodes\": %lld, \"ops\": %lld, \"shards\": %d, "
        "\"wallclock_ms\": %.3f, \"sim_ms\": %.3f, \"requests\": %llu, "
        "\"peak_rss_mb\": %.1f, \"completed\": true}\n",
        big.topology.c_str(), static_cast<long long>(big.procs),
        static_cast<long long>(big.nodes), static_cast<long long>(big.ops),
        big.shards, big.wallclock_ms, big.sim_ms,
        static_cast<unsigned long long>(big.requests), big.rss_mb);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
