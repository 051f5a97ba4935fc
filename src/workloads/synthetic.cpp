#include "workloads/synthetic.hpp"

#include <memory>
#include <vector>

#include "armci/proc.hpp"
#include "sim/time.hpp"

namespace vtopo::work {

namespace {

using armci::GAddr;
using armci::Proc;
using armci::PutSeg;

struct Shared {
  SyntheticConfig cfg;
  std::int64_t region_off = 0;
  std::int64_t counter_off = 0;
};

sim::Co<void> body(Proc& p, std::shared_ptr<Shared> st) {
  const SyntheticConfig& cfg = st->cfg;
  const std::int64_t n = p.runtime().num_procs();
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(cfg.op_bytes),
                                static_cast<std::uint8_t>(p.id()));
  co_await p.barrier();
  for (std::int64_t op = 0; op < cfg.ops_per_proc; ++op) {
    const bool hot = p.rng().chance(cfg.hotspot_fraction);
    if (hot && p.node() != 0) {
      // Hot-spot access: a ticket plus a vectored put to rank 0, the
      // Sec. V-B pattern.
      co_await p.fetch_add(GAddr{0, st->counter_off}, 1);
      const PutSeg seg{buf,
                       st->region_off + (p.id() % 32) * cfg.op_bytes};
      co_await p.put_v(0, {&seg, 1});
    } else {
      // Uniform access: a vectored put to a random peer.
      const auto peer = static_cast<armci::ProcId>(
          p.rng().uniform(static_cast<std::uint64_t>(n)));
      const PutSeg seg{buf,
                       st->region_off + (p.id() % 32) * cfg.op_bytes};
      co_await p.put_v(peer, {&seg, 1});
    }
    co_await p.compute(sim::us(cfg.compute_us_per_op));
  }
  co_await p.barrier();
}

}  // namespace

JobProgram make_synthetic_job(armci::Runtime& rt,
                              const SyntheticConfig& cfg) {
  auto st = std::make_shared<Shared>();
  st->cfg = cfg;
  st->counter_off = rt.memory().alloc_all(64);
  st->region_off = rt.memory().alloc_all(cfg.op_bytes * 32);

  JobProgram prog;
  prog.body = [st](Proc& p) { return body(p, st); };
  armci::Runtime* rtp = &rt;
  prog.checksum = [rtp, st] {
    return static_cast<double>(
        rtp->memory().read_i64(GAddr{0, st->counter_off}));
  };
  return prog;
}

AppResult run_synthetic(const ClusterConfig& cluster,
                        const SyntheticConfig& cfg) {
  sim::Engine eng;
  armci::Runtime rt(eng, cluster.runtime_config());
  arm_reconfigure(rt, cluster);
  JobProgram prog = make_synthetic_job(rt, cfg);
  rt.spawn_all(prog.body);
  rt.run_all();

  AppResult out;
  out.exec_time_sec = sim::to_sec(eng.now());
  out.checksum = prog.checksum();
  out.stats = rt.stats();
  return out;
}

}  // namespace vtopo::work
