// Negative control: a two-sided (MPI-style) wavefront sweep next to the
// one-sided ARMCI version, across all virtual topologies.
//
// Two-sided messages go process-to-process on the NIC — no CHT, no
// request buffers, no forwarding — so the virtual topology MUST NOT
// change their timing. Any spread in the two-sided columns would mean
// the model leaks topology effects where the paper's mechanism has
// none; the one-sided columns show the usual (small, neighbor-traffic)
// effect for contrast.
#include <cstdio>
#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "bench_util.hpp"
#include "msg/two_sided.hpp"
#include "workloads/nas_lu.hpp"

using namespace vtopo;

namespace {

/// Two-sided nearest-neighbor sweep shaped like the LU wavefront.
double run_two_sided_sweep(core::TopologyKind kind, int iterations) {
  sim::Engine eng;
  armci::Runtime::Config cfg;
  cfg.num_nodes = 64;
  cfg.procs_per_node = 4;
  cfg.topology = kind;
  armci::Runtime rt(eng, cfg);
  msg::TwoSided ts(rt);
  const core::Shape grid = core::mesh_shape_for(rt.num_procs());
  const std::int32_t px = grid.dim(0);

  rt.spawn_all([&, px, iterations](armci::Proc& p) -> sim::Co<void> {
    const armci::ProcId me = p.id();
    const std::int32_t ix = me % px;
    const std::int32_t iy = static_cast<std::int32_t>(me / px);
    const bool has_west = ix > 0;
    const bool has_north = iy > 0;
    const bool has_east =
        ix + 1 < px && me + 1 < p.runtime().num_procs();
    const bool has_south = me + px < p.runtime().num_procs();
    std::vector<std::uint8_t> strip(2040,
                                    static_cast<std::uint8_t>(me));
    co_await p.barrier();
    for (int it = 0; it < iterations; ++it) {
      if (has_west) co_await ts.recv(p, me - 1, it);
      if (has_north) co_await ts.recv(p, me - px, it);
      co_await p.compute(sim::us(200));
      if (has_east) co_await ts.send(p, me + 1, it, strip);
      if (has_south) co_await ts.send(p, me + px, it, strip);
    }
  });
  rt.run_all();
  return sim::to_sec(eng.now()) * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const int iters =
      static_cast<int>(args.get_int("--iters", args.has("--quick") ? 4 : 8));

  bench::print_header("Control", "two-sided traffic ignores the topology");
  std::printf("# 256 procs (64 nodes x 4), %d wavefront sweeps\n", iters);
  std::printf("%-12s %18s %18s\n", "topology", "two_sided_ms",
              "one_sided_lu_ms");

  work::LuConfig lu;
  lu.iterations = iters;
  lu.nx_global = 128;
  for (const auto kind : core::all_topology_kinds()) {
    work::ClusterConfig cluster;
    cluster.num_nodes = 64;
    cluster.procs_per_node = 4;
    cluster.topology = kind;
    const double one_sided =
        work::run_nas_lu(cluster, lu).exec_time_sec * 1e3;
    std::printf("%-12s %18.3f %18.3f\n", core::to_string(kind),
                run_two_sided_sweep(kind, iters), one_sided);
  }
  bench::print_rule();
  std::printf("# The two_sided column must be bit-identical across "
              "topologies: MPI-style\n# messages never enter a CHT. The "
              "one-sided column moves (slightly) because\n# LU's "
              "noncontiguous puts and residual accumulates do.\n");
  return 0;
}
