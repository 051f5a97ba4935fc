#include "workloads/nas_lu.hpp"

#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "core/coords.hpp"
#include "sim/time.hpp"

namespace vtopo::work {

namespace {

using armci::GAddr;
using armci::Proc;
using armci::PutSeg;

struct Shared {
  LuConfig cfg;
  std::int32_t px = 0;             ///< process grid extents
  std::int32_t py = 0;
  std::int64_t boundary_off = 0;   ///< two inbound pencil strips
  std::int64_t residual_off = 0;   ///< 8-double partial residual on rank 0
  std::int64_t local_off = 0;      ///< per-node partial on each master
  std::int64_t strip_bytes = 0;
  /// Host-side arrival notifications: [iter][proc][dir] (0=from west,
  /// 1=from north). The 8-byte flag word written after the data models
  /// the real notify; the future replaces the receiver's poll loop.
  std::vector<sim::Future<int>> arrivals;
  std::int64_t nprocs = 0;
  std::size_t idx(int iter, armci::ProcId p, int dir) const {
    return (static_cast<std::size_t>(iter) *
                static_cast<std::size_t>(nprocs) +
            static_cast<std::size_t>(p)) *
               2 +
           static_cast<std::size_t>(dir);
  }
};

sim::Co<void> body(Proc& p, std::shared_ptr<Shared> st) {
  const LuConfig& cfg = st->cfg;
  const std::int32_t px = st->px;
  const armci::ProcId me = p.id();
  const std::int32_t ix = me % px;
  const std::int32_t iy = me / px;
  const bool has_west = ix > 0;
  const bool has_north = iy > 0;
  const bool has_east =
      ix + 1 < px && me + 1 < p.runtime().num_procs();
  const bool has_south = me + px < p.runtime().num_procs();
  // Strong scaling: the fixed global grid is split over the process grid.
  const std::int64_t sub_nx =
      (cfg.nx_global + px - 1) / px;
  const std::int64_t sub_ny =
      (cfg.nx_global + st->py - 1) / st->py;

  std::vector<std::uint8_t> strip(static_cast<std::size_t>(st->strip_bytes));
  for (std::size_t i = 0; i < strip.size(); ++i) {
    strip[i] = static_cast<std::uint8_t>(me + i);
  }
  const std::vector<double> partial(8, 1.0 / (me + 1.0));

  co_await p.barrier();
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    // Wavefront dependencies: wait for west and north pencils.
    if (has_west) co_await st->arrivals[st->idx(iter, me, 0)];
    if (has_north) co_await st->arrivals[st->idx(iter, me, 1)];

    co_await p.compute(sim::us(cfg.compute_us_per_cell *
                               static_cast<double>(sub_nx * sub_ny)));

    // Push boundary pencils east and south as noncontiguous puts (one
    // segment per pencil variable), then notify.
    auto send_to = [&](armci::ProcId dest, int dir) -> sim::Co<void> {
      std::vector<PutSeg> segs(
          static_cast<std::size_t>(cfg.pencil_doubles));
      const std::int64_t seg_bytes =
          st->strip_bytes / cfg.pencil_doubles;
      for (int s = 0; s < cfg.pencil_doubles; ++s) {
        segs[static_cast<std::size_t>(s)] = PutSeg{
            std::span<const std::uint8_t>(
                strip.data() + s * seg_bytes,
                static_cast<std::size_t>(seg_bytes)),
            st->boundary_off + dir * st->strip_bytes + s * seg_bytes};
      }
      co_await p.put_v(dest, segs);
      // The arrival belongs to the receiver's node: fulfil it serially so
      // a sender on another shard never touches it mid-window.
      p.runtime().transport().run_serial(
          [st, i = st->idx(iter, dest, dir), iter] {
            st->arrivals[i].set(iter);
          });
    };
    if (has_east) co_await send_to(me + 1, 0);
    if (has_south) co_await send_to(me + px, 1);

    // Per-sweep residual (the L2-norm check of the SSOR loop),
    // hierarchical as in GA's group reductions: contribute to the node
    // master through shared memory, masters accumulate on rank 0 — a
    // mild periodic hot-spot of one request per node.
    if (p.is_master()) {
      co_await p.acc_f64(GAddr{0, st->residual_off}, partial, 1.0);
    } else {
      const armci::ProcId master =
          p.id() - p.id() % p.runtime().procs_per_node();
      co_await p.acc_f64(GAddr{master, st->local_off}, partial, 1.0);
    }
  }
  co_await p.barrier();
}

}  // namespace

JobProgram make_nas_lu_job(armci::Runtime& rt, const LuConfig& cfg) {
  auto st = std::make_shared<Shared>();
  st->cfg = cfg;
  const core::Shape grid = core::mesh_shape_for(rt.num_procs());
  st->px = grid.dim(0);
  st->py = grid.dim(1);
  st->nprocs = rt.num_procs();
  // Boundary pencil strip: one subdomain edge worth of grid points.
  const std::int64_t sub_edge =
      (cfg.nx_global + st->px - 1) / st->px;
  st->strip_bytes = sub_edge * 8 * cfg.pencil_doubles;
  // Round the strip so it divides evenly into pencil segments.
  st->strip_bytes -= st->strip_bytes % cfg.pencil_doubles;
  st->boundary_off = rt.memory().alloc_all(2 * st->strip_bytes);
  st->residual_off = rt.memory().alloc_all(64);
  st->local_off = rt.memory().alloc_all(64);
  st->arrivals.reserve(static_cast<std::size_t>(cfg.iterations) *
                       static_cast<std::size_t>(rt.num_procs()) * 2);
  // Each arrival belongs to the receiving proc's node, so its resume
  // lands where the receiver runs.
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (armci::ProcId p = 0; p < rt.num_procs(); ++p) {
      const sim::NodeScope scope =
          rt.transport().enter(static_cast<int>(rt.node_of(p)));
      st->arrivals.emplace_back(rt.engine());
      st->arrivals.emplace_back(rt.engine());
    }
  }

  JobProgram prog;
  prog.body = [st](Proc& p) { return body(p, st); };
  armci::Runtime* rtp = &rt;
  prog.checksum = [rtp, st] {
    return rtp->memory().read_f64(GAddr{0, st->residual_off});
  };
  return prog;
}

AppResult run_nas_lu(const ClusterConfig& cluster, const LuConfig& cfg) {
  ClusterHandle handle(cluster);
  armci::Runtime& rt = handle.rt();
  arm_reconfigure(rt, cluster);

  JobProgram prog = make_nas_lu_job(rt, cfg);
  rt.spawn_all(prog.body);
  rt.run_all();

  AppResult out;
  out.exec_time_sec = handle.elapsed_sec();
  out.checksum = prog.checksum();
  out.stats = rt.stats();
  return out;
}

}  // namespace vtopo::work
