// Halo exchange: the classic structured-grid pattern implemented with
// strided one-sided puts, with a correctness check of every ghost cell.
//
//   $ ./halo_exchange [steps]
//
// Each process owns a tile of a global 2-D field and pushes its edge
// rows/columns into its four neighbors' ghost regions each step using
// put_strided (noncontiguous, CHT-mediated — the operation family
// Fig. 6 measures). Shows that the virtual topology is transparent to
// application correctness.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "core/coords.hpp"

using namespace vtopo;
using armci::GAddr;
using armci::Proc;

namespace {

constexpr int kTile = 16;  // local tile edge (doubles)

struct Field {
  std::int64_t tile;    // kTile x kTile owned cells
  std::int64_t ghosts;  // 4 edges of kTile cells: W,E,N,S
  std::int32_t px, py;
};

sim::Co<void> step_program(Proc& p, std::shared_ptr<Field> f, int steps,
                           std::shared_ptr<std::vector<int>> errors) {
  const std::int32_t ix = p.id() % f->px;
  const std::int32_t iy = static_cast<std::int32_t>(p.id() / f->px);
  auto neighbor = [&](int dx, int dy) -> armci::ProcId {
    const std::int32_t nx = (ix + dx + f->px) % f->px;
    const std::int32_t ny =
        (iy + dy + f->py) % f->py;
    return static_cast<armci::ProcId>(ny * f->px + nx);
  };

  armci::GlobalMemory& mem = p.runtime().memory();
  // Fill the owned tile with a recognizable pattern: value = id.
  std::vector<double> mine(kTile * kTile, static_cast<double>(p.id()));
  mem.write(GAddr{p.id(), f->tile},
            {reinterpret_cast<const std::uint8_t*>(mine.data()),
             mine.size() * sizeof(double)});
  co_await p.barrier();

  for (int s = 0; s < steps; ++s) {
    const auto* tile_bytes =
        reinterpret_cast<const std::uint8_t*>(mine.data());
    // East edge (last column) -> east neighbor's West ghost strip,
    // one strided put: kTile rows of 8 bytes, row stride kTile*8.
    co_await p.put_strided(GAddr{neighbor(+1, 0), f->ghosts}, 8,
                           tile_bytes + (kTile - 1) * 8, kTile * 8, 8,
                           kTile);
    // West edge -> west neighbor's East ghosts.
    co_await p.put_strided(
        GAddr{neighbor(-1, 0), f->ghosts + kTile * 8}, 8, tile_bytes,
        kTile * 8, 8, kTile);
    // South edge (last row) -> south neighbor's North ghosts
    // (contiguous, still via the vectored path).
    co_await p.put_strided(
        GAddr{neighbor(0, +1), f->ghosts + 2 * kTile * 8}, 8,
        tile_bytes + (kTile - 1) * kTile * 8, 8, 8, kTile);
    // North edge -> north neighbor's South ghosts.
    co_await p.put_strided(
        GAddr{neighbor(0, -1), f->ghosts + 3 * kTile * 8}, 8, tile_bytes,
        8, 8, kTile);
    co_await p.barrier();

    // Verify all four ghost strips hold the neighbor ids.
    const double expect[4] = {
        static_cast<double>(neighbor(-1, 0)),
        static_cast<double>(neighbor(+1, 0)),
        static_cast<double>(neighbor(0, -1)),
        static_cast<double>(neighbor(0, +1)),
    };
    for (int edge = 0; edge < 4; ++edge) {
      for (int i = 0; i < kTile; ++i) {
        const double got = mem.read_f64(
            GAddr{p.id(), f->ghosts + (edge * kTile + i) * 8});
        if (got != expect[edge]) {
          ++(*errors)[static_cast<std::size_t>(p.id())];
        }
      }
    }
    co_await p.barrier();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 4;

  int status = 0;
  for (const auto kind : core::all_topology_kinds()) {
    sim::Engine engine;
    armci::Runtime::Config cfg;
    cfg.num_nodes = 16;
    cfg.procs_per_node = 4;
    cfg.topology = kind;
    armci::Runtime rt(engine, cfg);

    auto field = std::make_shared<Field>();
    const core::Shape grid = core::mesh_shape_for(rt.num_procs());
    field->px = grid.dim(0);
    field->py = grid.dim(1);
    field->tile = rt.memory().alloc_all(kTile * kTile * 8);
    field->ghosts = rt.memory().alloc_all(4 * kTile * 8);
    auto errors = std::make_shared<std::vector<int>>(
        static_cast<std::size_t>(rt.num_procs()), 0);

    rt.spawn_all([field, steps, errors](Proc& p) {
      return step_program(p, field, steps, errors);
    });
    rt.run_all();

    int total_errors = 0;
    for (const int e : *errors) total_errors += e;
    std::printf("%-16s %2d steps on %dx%d grid: %s (%.1f us simulated)\n",
                rt.topology().name().c_str(), steps, field->px, field->py,
                total_errors == 0 ? "all ghosts correct"
                                  : "GHOST ERRORS",
                sim::to_us(engine.now()));
    if (total_errors != 0) status = 1;
  }
  return status;
}
