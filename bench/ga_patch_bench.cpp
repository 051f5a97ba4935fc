// GA-level view of the topology trade-off: patch get/acc latency vs.
// patch size under each virtual topology (quiet network). GA patches
// decompose into the noncontiguous ARMCI operations of Fig. 6, so this
// shows what an application-level access actually pays per topology.
#include <cstdio>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "bench_util.hpp"
#include "ga/global_array.hpp"
#include "sim/stats.hpp"

using namespace vtopo;

namespace {

struct Sample {
  double get_us;
  double acc_us;
};

Sample measure(core::TopologyKind kind, std::int64_t patch,
               int repeats) {
  sim::Engine eng;
  armci::Runtime::Config cfg;
  cfg.num_nodes = 64;
  cfg.procs_per_node = 4;
  cfg.topology = kind;
  cfg.segment_bytes = std::int64_t{16} << 20;
  armci::Runtime rt(eng, cfg);
  ga::GlobalArray2D a(rt, 512, 512);

  sim::Series get_series;
  sim::Series acc_series;
  // One measuring process touching far-away patches; everyone else idle.
  rt.spawn(rt.num_procs() - 1, [&](armci::Proc& p) -> sim::Co<void> {
    std::vector<double> buf(static_cast<std::size_t>(patch * patch));
    sim::Engine& e = p.runtime().engine();
    for (int r = 0; r < repeats; ++r) {
      const std::int64_t i0 = (r * 64) % (512 - patch);
      sim::TimeNs t0 = e.now();
      co_await a.get(p, i0, i0 + patch, 0, patch, buf.data(), patch);
      get_series.add(sim::to_us(e.now() - t0));
      t0 = e.now();
      co_await a.acc(p, i0, i0 + patch, 0, patch, buf.data(), patch,
                     1.0);
      acc_series.add(sim::to_us(e.now() - t0));
    }
  });
  rt.run_all();
  return {get_series.median(), acc_series.median()};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const int repeats =
      static_cast<int>(args.get_int("--iters", args.has("--quick") ? 4 : 12));

  bench::print_header("GA patch ops", "application-level topology cost");
  std::printf("# 512x512 global array over 256 procs (64 nodes x 4), "
              "quiet network\n");
  std::printf("%8s %-10s %12s %12s\n", "patch", "topology", "get_us",
              "acc_us");
  for (const std::int64_t patch : {8, 32, 128}) {
    for (const auto kind : core::all_topology_kinds()) {
      const Sample s = measure(kind, patch, repeats);
      std::printf("%4lldx%-3lld %-10s %12.1f %12.1f\n",
                  static_cast<long long>(patch),
                  static_cast<long long>(patch), core::to_string(kind),
                  s.get_us, s.acc_us);
    }
    bench::print_rule();
  }
  std::printf("# Small patches pay the per-hop forwarding latency "
              "(Hypercube worst);\n# large patches amortize it into "
              "bandwidth, narrowing the gap.\n");
  return 0;
}
