#include "workloads/nwchem_ccsd.hpp"

#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "sim/time.hpp"

namespace vtopo::work {

namespace {

using armci::GAddr;
using armci::Proc;

struct Shared {
  CcsdConfig cfg;
  std::int64_t tile_off = 0;  ///< tile region on every process
  std::int64_t nprocs = 0;
};

armci::ProcId owner_of(std::int64_t t, std::int64_t salt,
                       std::int64_t nprocs) {
  std::uint64_t h =
      static_cast<std::uint64_t>(t * 2 + salt) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return static_cast<armci::ProcId>(h % static_cast<std::uint64_t>(nprocs));
}

sim::Co<void> one_tile(Proc& p, std::shared_ptr<Shared> st,
                       std::int64_t tile) {
  const CcsdConfig& cfg = st->cfg;
  const std::int64_t tile_bytes = cfg.tile_rows * cfg.row_bytes;

  // Strided read of an amplitude tile (every other row of a 2x-strided
  // panel) from its owner.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(tile_bytes));
  const armci::ProcId src = owner_of(tile, 1, st->nprocs);
  co_await p.get_strided(buf.data(), cfg.row_bytes,
                         GAddr{src, st->tile_off}, 2 * cfg.row_bytes,
                         cfg.row_bytes, cfg.tile_rows);

  co_await p.compute(sim::us(cfg.compute_us_per_tile));

  // Accumulate the result tile to a different owner.
  std::vector<double> out(static_cast<std::size_t>(tile_bytes / 8),
                          1.0 / (tile + 2.0));
  const armci::ProcId dst = owner_of(tile, 2, st->nprocs);
  co_await p.acc_f64(GAddr{dst, st->tile_off}, out, 1.0);
}

sim::Co<void> body(Proc& p, std::shared_ptr<Shared> st) {
  const CcsdConfig& cfg = st->cfg;
  for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
    co_await p.barrier();
    // Coupled-cluster tile loops are statically blocked over processes
    // (coarse tiles, negligible imbalance): tile t belongs to process
    // t mod P.
    for (std::int64_t t = p.id(); t < cfg.total_tiles; t += st->nprocs) {
      co_await one_tile(p, st, t);
    }
    co_await p.barrier();
  }
}

}  // namespace

JobProgram make_nwchem_ccsd_job(armci::Runtime& rt, const CcsdConfig& cfg) {
  auto st = std::make_shared<Shared>();
  st->cfg = cfg;
  st->nprocs = rt.num_procs();
  // The source panel is 2x-strided, so reserve twice the tile size.
  st->tile_off =
      rt.memory().alloc_all(2 * cfg.tile_rows * cfg.row_bytes + 64);

  JobProgram prog;
  prog.body = [st](Proc& p) { return body(p, st); };
  armci::Runtime* rtp = &rt;
  prog.checksum = [rtp, st] {
    return rtp->memory().read_f64(GAddr{0, st->tile_off});
  };
  return prog;
}

AppResult run_nwchem_ccsd(const ClusterConfig& cluster,
                          const CcsdConfig& cfg) {
  sim::Engine eng;
  armci::Runtime rt(eng, cluster.runtime_config());
  arm_reconfigure(rt, cluster);

  JobProgram prog = make_nwchem_ccsd_job(rt, cfg);
  rt.spawn_all(prog.body);
  rt.run_all();

  AppResult out;
  out.exec_time_sec = sim::to_sec(eng.now());
  out.checksum = prog.checksum();
  out.stats = rt.stats();
  return out;
}

}  // namespace vtopo::work
