// Shared driver for Figures 6 and 7: per-rank operation time against
// Rank 0 under 0% / 11% / 20% hot-spot contention, per topology.
//
// Panel layout follows the paper:
//   (a) FCG & MFCG, no contention       (d) CFCG & Hypercube, none
//   (b) FCG & MFCG, 11% contention      (e) CFCG, 11%
//   (c) FCG & MFCG, 20% contention      (f) CFCG, 20%
// Hypercube is excluded from contended panels, as in the paper ("it
// takes too long to get a complete set of numbers").
//
// Each panel is an independent simulation, so panels run on the sweep
// harness's thread pool (--jobs N, default hardware_concurrency); the
// printed output is byte-identical to a serial run (--jobs 1).
#pragma once

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "sweep.hpp"
#include "workloads/contention.hpp"

namespace vtopo::bench {

struct PanelSpec {
  core::TopologyKind kind;
  int stride;  // 0 = none, 9 = 11%, 5 = 20%
};

inline const char* contention_name(int stride) {
  switch (stride) {
    case 0:
      return "none";
    case 9:
      return "11%";
    case 5:
      return "20%";
    default:
      return "?";
  }
}

inline void run_contention_figure(const char* figure,
                                  work::ContentionConfig::Op op,
                                  const Args& args) {
  work::ClusterConfig cluster;
  cluster.num_nodes = args.get_int("--nodes", 256);
  cluster.procs_per_node =
      static_cast<int>(args.get_int("--ppn", 4));
  cluster.shards = static_cast<int>(args.get_int("--shards", default_shards()));

  work::ContentionConfig cfg;
  cfg.op = op;
  cfg.iterations =
      static_cast<int>(args.get_int("--iters", args.has("--quick") ? 5 : 20));

  // --qos: rerun the figure with the criticality-aware request path on
  // (class-weighted CHT dequeue) and report per-class tail latency. A
  // distinct golden family — the default output stays byte-identical.
  const bool qos = args.has("--qos");
  if (qos) {
    cluster.armci.qos = true;
    cfg.trace_classes = true;
  }

  const auto jobs = static_cast<unsigned>(
      args.get_int("--jobs", default_jobs()));

  const std::vector<PanelSpec> panels = {
      {core::TopologyKind::kFcg, 0},  {core::TopologyKind::kMfcg, 0},
      {core::TopologyKind::kCfcg, 0}, {core::TopologyKind::kHypercube, 0},
      {core::TopologyKind::kFcg, 9},  {core::TopologyKind::kMfcg, 9},
      {core::TopologyKind::kCfcg, 9}, {core::TopologyKind::kFcg, 5},
      {core::TopologyKind::kMfcg, 5}, {core::TopologyKind::kCfcg, 5},
  };

  print_header(figure, "per-rank op time vs. Rank 0 under contention");
  std::printf("# %lld procs (%lld nodes x %d), %d iterations averaged\n",
              static_cast<long long>(cluster.num_procs()),
              static_cast<long long>(cluster.num_nodes),
              cluster.procs_per_node, cfg.iterations);
  if (cluster.shards > 0) {
    // Sharded runs are their own golden family; stamp the shard count
    // so outputs from the two engines can never diff equal by accident.
    std::printf("# engine sharded (--shards %d)\n", cluster.shards);
  }
  if (qos) std::printf("# qos enabled\n");

  struct PanelResult {
    std::string text;
    double min = 0, med = 0, p95 = 0, max = 0;
  };

  const auto results = run_sweep(
      panels.size(), jobs, [&](std::size_t i) -> PanelResult {
        const PanelSpec& panel = panels[i];
        work::ClusterConfig cl = cluster;
        cl.topology = panel.kind;
        work::ContentionConfig cc = cfg;
        cc.contender_stride = panel.stride;
        const auto res = work::run_contention(cl, cc);

        PanelResult out;
        append_format(out.text, "\n# series topology=%s contention=%s\n",
                      core::to_string(panel.kind),
                      contention_name(panel.stride));
        append_format(out.text, "# rank time_us\n");
        sim::Series series;
        for (std::size_t rank = 0; rank < res.op_time_us.size(); ++rank) {
          const double t = res.op_time_us[rank];
          if (t < 0) continue;  // ranks sharing Rank 0's node are unmeasured
          append_format(out.text, "%zu %.2f\n", rank, t);
          series.add(t);
        }
        out.min = series.min();
        out.med = series.median();
        out.p95 = series.percentile(95);
        out.max = series.max();
        if (qos) {
          static const char* kClsName[] = {"bulk", "normal", "critical"};
          append_format(out.text,
                        "# class n p50_us p99_us p999_us (op latency)\n");
          for (std::size_t c = 0; c < armci::kNumPriorities; ++c) {
            sim::Series lat;
            for (const double us : res.class_lat_us[c]) lat.add(us);
            if (lat.empty()) continue;
            append_format(out.text, "# %-8s %zu %.2f %.2f %.2f\n",
                          kClsName[c], lat.size(), lat.median(),
                          lat.percentile(99), lat.percentile(99.9));
          }
        }
        return out;
      });

  for (const auto& r : results) {
    std::fputs(r.text.c_str(), stdout);
  }

  print_rule();
  std::printf("# summary (us): topology contention min median p95 max\n");
  for (std::size_t i = 0; i < panels.size(); ++i) {
    std::printf("# %-9s %-5s %10.1f %10.1f %10.1f %10.1f\n",
                core::to_string(panels[i].kind),
                contention_name(panels[i].stride), results[i].min,
                results[i].med, results[i].p95, results[i].max);
  }
}

}  // namespace vtopo::bench
