// Global Arrays demo: distributed out-of-place matrix transpose with
// dynamic load balancing — the GA programming model (NWChem's) on top
// of the simulated ARMCI runtime.
//
//   $ ./ga_transpose [n]
//
// B = A^T computed by tiles: workers claim tile indices from a shared
// counter (GA NXTVAL), get an A-patch, transpose locally, put the
// B-patch — all one-sided, across whatever virtual topology is chosen.
// Verifies every element afterwards.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "ga/global_array.hpp"

using namespace vtopo;
using armci::Proc;

namespace {

constexpr std::int64_t kTile = 8;

sim::Co<void> worker(Proc& p, ga::GlobalArray2D& a, ga::GlobalArray2D& b,
                     ga::SharedCounter& counter, std::int64_t n) {
  const std::int64_t tiles_per_dim = (n + kTile - 1) / kTile;
  const std::int64_t total = tiles_per_dim * tiles_per_dim;
  co_await p.barrier();
  for (;;) {
    const std::int64_t t = co_await counter.next(p);
    if (t >= total) break;
    const std::int64_t ti = t / tiles_per_dim;
    const std::int64_t tj = t % tiles_per_dim;
    const std::int64_t ilo = ti * kTile;
    const std::int64_t ihi = std::min(ilo + kTile, n);
    const std::int64_t jlo = tj * kTile;
    const std::int64_t jhi = std::min(jlo + kTile, n);
    const std::int64_t rows = ihi - ilo;
    const std::int64_t cols = jhi - jlo;

    std::vector<double> tile(static_cast<std::size_t>(rows * cols));
    co_await a.get(p, ilo, ihi, jlo, jhi, tile.data(), cols);

    std::vector<double> tr(static_cast<std::size_t>(rows * cols));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        tr[static_cast<std::size_t>(c * rows + r)] =
            tile[static_cast<std::size_t>(r * cols + c)];
      }
    }
    co_await p.compute(sim::us(0.02 * static_cast<double>(rows * cols)));
    co_await b.put(p, jlo, jhi, ilo, ihi, tr.data(), rows);
  }
  co_await p.barrier();
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 48;

  int status = 0;
  for (const auto kind : core::all_topology_kinds()) {
    sim::Engine engine;
    armci::Runtime::Config cfg;
    cfg.num_nodes = 16;
    cfg.procs_per_node = 4;
    cfg.topology = kind;
    armci::Runtime rt(engine, cfg);

    ga::GlobalArray2D a(rt, n, n);
    ga::GlobalArray2D b(rt, n, n);
    ga::SharedCounter counter(rt);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        a.write_element(i, j, static_cast<double>(i * n + j));
      }
    }

    rt.spawn_all([&](Proc& p) { return worker(p, a, b, counter, n); });
    rt.run_all();

    std::int64_t wrong = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (b.read_element(j, i) != static_cast<double>(i * n + j)) {
          ++wrong;
        }
      }
    }
    std::printf("%-18s %lldx%lld transpose: %s, %.1f us simulated, "
                "%llu requests (%llu forwarded)\n",
                rt.topology().name().c_str(), static_cast<long long>(n),
                static_cast<long long>(n),
                wrong == 0 ? "correct" : "WRONG", sim::to_us(engine.now()),
                static_cast<unsigned long long>(rt.stats().requests),
                static_cast<unsigned long long>(rt.stats().forwards));
    if (wrong != 0) status = 1;
  }
  return status;
}
