// Extension bench: the virtual topology's request tree as a reduction
// tree. Compares allreduce latency and root in-degree across
// topologies — contention attenuation applied to collectives.
#include <cstdio>

#include "bench_util.hpp"
#include "coll/tree_reduce.hpp"

using namespace vtopo;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::int64_t nodes = args.get_int("--nodes", 256);
  const int rounds =
      static_cast<int>(args.get_int("--iters", args.has("--quick") ? 3 : 10));

  bench::print_header("Extension", "topology trees as reduction trees");
  std::printf("# %lld nodes x 4 procs, %d allreduce rounds\n",
              static_cast<long long>(nodes), rounds);
  std::printf("%-12s %14s %16s\n", "topology", "root_in_msgs",
              "allreduce_us");

  for (const auto kind : core::all_topology_kinds()) {
    sim::Engine eng;
    armci::Runtime::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = 4;
    cfg.topology = kind;
    armci::Runtime rt(eng, cfg);
    msg::TwoSided ts(rt);
    coll::TreeReduce tr(rt, ts,
                        core::build_request_tree(rt.topology(), 0));
    sim::TimeNs total = 0;
    rt.spawn_all([&](armci::Proc& p) -> sim::Co<void> {
      sim::Engine& e = p.runtime().engine();
      for (int r = 0; r < rounds; ++r) {
        const sim::TimeNs t0 = e.now();
        co_await tr.allreduce_sum(p, 1.0);
        if (p.id() == 0) total += e.now() - t0;
      }
    });
    rt.run_all();
    std::printf("%-12s %14lld %16.1f\n", core::to_string(kind),
                static_cast<long long>(tr.root_in_messages()),
                sim::to_us(total) / rounds);
  }
  bench::print_rule();
  std::printf("# The root's in-degree falls from N-1 (flat) to the "
              "topology fanout; the\n# deeper trees trade root pressure "
              "for tree height, exactly as Sec. III\n# predicts for "
              "request traffic.\n");
  return 0;
}
