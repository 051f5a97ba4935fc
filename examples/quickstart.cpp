// Quickstart: the vtopo public API in one file.
//
// Builds a 16-node simulated cluster running the ARMCI-like GAS runtime
// over an MFCG virtual topology, then exercises the main one-sided
// operation families from coroutine "process programs":
//
//   $ ./quickstart
//
// Every simulated process is a C++20 coroutine; ARMCI operations are
// awaitables that complete at the simulated instant the real operation
// would. The final printout shows both data results (computed through
// the real global-memory semantics) and the protocol counters.
#include <cstdio>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"

using namespace vtopo;
using armci::GAddr;
using armci::Proc;

namespace {

// Shared experiment addresses (host-side plain struct).
struct Layout {
  std::int64_t counter;  // fetch-&-add cell on rank 0
  std::int64_t vec;      // per-process vector strip on rank 0
  std::int64_t sum;      // accumulate target on rank 0
};

sim::Co<void> program(Proc& p, Layout lay) {
  // 1. Dynamic-load-balancing idiom: grab a ticket from a global
  //    counter owned by rank 0 (ARMCI_Rmw / GA NXTVAL).
  const std::int64_t ticket =
      co_await p.fetch_add(GAddr{0, lay.counter}, 1);

  // 2. Contiguous one-sided put: direct RDMA, bypasses the CHT.
  std::vector<std::uint8_t> payload(64,
                                    static_cast<std::uint8_t>(p.id()));
  co_await p.put(GAddr{0, lay.vec + p.id() * 64}, payload);

  // 3. Noncontiguous (vectored) put: CHT-mediated, travels the virtual
  //    topology and may be forwarded by intermediate nodes.
  const armci::PutSeg seg{payload, lay.vec + p.id() * 64};
  co_await p.put_v(/*target=*/0, {&seg, 1});

  // 4. Atomic accumulate: sum += id at rank 0.
  const std::vector<double> contrib{static_cast<double>(p.id())};
  co_await p.acc_f64(GAddr{0, lay.sum}, contrib, 1.0);

  // 5. Mutual exclusion via a remote mutex hosted by rank 0.
  co_await p.lock(0, 0);
  co_await p.compute(sim::us(2));  // critical section work
  co_await p.unlock(0, 0);

  // 6. Collective rendezvous.
  co_await p.barrier();

  if (ticket == 0) {
    std::printf("process %d drew ticket 0 at simulated t=%.1f us\n",
                p.id(), sim::to_us(p.runtime().engine().now()));
  }
}

}  // namespace

int main() {
  sim::Engine engine;

  armci::Runtime::Config cfg;
  cfg.num_nodes = 16;          // simulated physical nodes
  cfg.procs_per_node = 4;      // application processes per node
  cfg.topology = core::TopologyKind::kMfcg;  // the paper's winner

  armci::Runtime rt(engine, cfg);
  std::printf("cluster: %lld procs on %lld nodes, topology %s\n",
              static_cast<long long>(rt.num_procs()),
              static_cast<long long>(rt.num_nodes()),
              rt.topology().name().c_str());

  Layout lay{};
  lay.counter = rt.memory().alloc_all(8);
  lay.vec = rt.memory().alloc_all(64 * rt.num_procs());
  lay.sum = rt.memory().alloc_all(8);

  rt.spawn_all([lay](Proc& p) { return program(p, lay); });
  rt.run_all();

  // Validate results through the global memory.
  const std::int64_t n = rt.num_procs();
  const std::int64_t counter = rt.memory().read_i64(GAddr{0, lay.counter});
  const double sum = rt.memory().read_f64(GAddr{0, lay.sum});
  const auto expected_sum = static_cast<double>(n * (n - 1) / 2);
  std::printf("counter: %lld (expected %lld)\n",
              static_cast<long long>(counter), static_cast<long long>(n));
  std::printf("sum of ids: %.0f (expected %.0f)\n", sum, expected_sum);

  const auto& st = rt.stats();
  std::printf("protocol: %llu requests, %llu forwards, %llu acks, "
              "%llu direct RDMA ops\n",
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.forwards),
              static_cast<unsigned long long>(st.acks),
              static_cast<unsigned long long>(st.direct_ops));
  std::printf("simulated wall time: %.1f us\n",
              sim::to_us(engine.now()));
  return counter == n && sum == expected_sum ? 0 : 1;
}
