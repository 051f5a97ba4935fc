#include "svc/service.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "armci/proc.hpp"
#include "net/network.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"

namespace vtopo::svc {

namespace {

/// Tenant runtime config from a spec. A null `fabric` means a private
/// network (uncoupled mode).
armci::Runtime::Config tenant_config(const JobSpec& spec,
                                     std::shared_ptr<net::Fabric> fabric,
                                     std::vector<std::int64_t> slots) {
  armci::Runtime::Config rc;
  rc.num_nodes = spec.nodes;
  rc.procs_per_node = spec.procs_per_node;
  rc.topology = spec.topology;
  rc.policy = spec.policy;
  rc.armci = spec.armci;
  rc.net = spec.net;
  rc.segment_bytes = spec.segment_bytes;
  rc.seed = spec.seed;
  rc.faults = spec.faults;
  rc.fabric = std::move(fabric);
  rc.fabric_slots = std::move(slots);
  return rc;
}

void seed_results(const std::vector<JobSpec>& specs,
                  std::vector<JobResult>& results) {
  results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobResult& r = results[i];
    r.name = specs[i].name;
    r.kind = specs[i].kind;
    r.job_id = static_cast<std::int64_t>(i);
    r.submit_time = specs[i].submit_at;
  }
}

void finish_report(ServiceReport& rep) {
  for (const JobResult& r : rep.results) {
    if (r.rejected) {
      ++rep.rejected;
    } else if (r.finish_time > 0 || r.start_time > 0) {
      ++rep.completed;
    }
  }
}

// ---------------------------------------------------------------------
// Coupled mode: one machine engine + one shared fabric, event-driven.
// ---------------------------------------------------------------------

struct Tenant {
  std::size_t spec_index = 0;
  core::Partition part;
  std::unique_ptr<armci::Runtime> rt;
  work::JobProgram prog;
  std::int64_t live = 0;  ///< proc bodies still running
};

struct CoupledRun {
  CoupledRun(const ServiceConfig& config,
             const std::vector<JobSpec>& job_specs)
      : cfg(&config),
        specs(&job_specs),
        fabric(std::make_shared<net::Fabric>(config.machine_slots)),
        parts(fabric->torus.dims()),
        queue(config.queue_capacity, config.aging_quantum) {}

  const ServiceConfig* cfg;
  const std::vector<JobSpec>* specs;
  sim::Engine eng;
  std::shared_ptr<net::Fabric> fabric;
  core::TorusPartitioner parts;
  AdmissionQueue queue;
  std::vector<JobResult> results;
  std::vector<std::unique_ptr<Tenant>> started;  ///< start order
  std::int64_t next_seq = 0;

  void on_arrival(std::size_t i);
  void try_start();
  void start_tenant(Tenant& t, const JobSpec& spec);
  void on_tenant_done(Tenant* t);
};

/// Per-proc wrapper: run the job body, then count down the tenant's
/// live-proc counter; the last one out reports completion at the exact
/// simulated finish time, from inside the machine's event stream.
sim::Co<void> tenant_proc(CoupledRun* run, Tenant* t,
                          std::function<sim::Co<void>(armci::Proc&)> body,
                          armci::Proc& p) {
  co_await body(p);
  if (--t->live == 0) run->on_tenant_done(t);
}

void CoupledRun::on_arrival(std::size_t i) {
  const JobSpec& spec = (*specs)[i];
  JobResult& r = results[i];
  r.submit_time = eng.now();
  if (!parts.feasible(spec.nodes, cfg->policy) ||
      !queue.push(QueuedJob{next_seq++, i, spec.priority, eng.now()})) {
    r.rejected = true;
    return;
  }
  try_start();
}

void CoupledRun::try_start() {
  // Strict head-of-line: if the best-ranked queued job does not fit the
  // current free set, nothing behind it may overtake it (backfill would
  // starve wide jobs behind a stream of narrow ones).
  while (auto cand = queue.peek(eng.now())) {
    const JobSpec& spec = (*specs)[cand->spec_index];
    auto part = parts.carve(spec.nodes, cfg->policy);
    if (!part) break;
    queue.pop(cand->seq);
    auto t = std::make_unique<Tenant>();
    t->spec_index = cand->spec_index;
    t->part = std::move(*part);
    start_tenant(*t, spec);
    started.push_back(std::move(t));
  }
}

void CoupledRun::start_tenant(Tenant& t, const JobSpec& spec) {
  // Construction order mirrors the standalone drivers exactly (runtime,
  // reconfig monitor, allocations, spawn), so a 1-tenant service run is
  // byte-identical to them.
  t.rt = std::make_unique<armci::Runtime>(
      eng, tenant_config(spec, fabric, t.part.slots));
  if (cfg->link_census) t.rt->network().enable_link_census();
  if (spec.reconfigure) {
    t.rt->spawn_task(
        work::detail::reconfig_monitor(t.rt.get(), *spec.reconfigure));
  }
  t.prog = make_program(*t.rt, spec);
  t.live = t.rt->num_procs();

  JobResult& r = results[t.spec_index];
  r.start_time = eng.now();
  r.slots = t.part.slots;

  CoupledRun* rp = this;
  Tenant* tp = &t;
  auto body = t.prog.body;
  t.rt->spawn_all([rp, tp, body](armci::Proc& p) {
    return tenant_proc(rp, tp, body, p);
  });
}

void CoupledRun::on_tenant_done(Tenant* t) {
  results[t->spec_index].finish_time = eng.now();
  parts.release(t->part);
  // The freed partition may admit queued work right now; the tenant's
  // runtime itself is torn down only after the machine drains (poison
  // injection mid-run would reentrantly drive the shared engine).
  try_start();
}

ServiceReport run_coupled(const ServiceConfig& cfg,
                          const std::vector<JobSpec>& specs) {
  CoupledRun run(cfg, specs);
  seed_results(specs, run.results);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    run.eng.schedule_at(specs[i].submit_at, [&run, i] { run.on_arrival(i); });
  }
  run.eng.run();

  // Deferred teardown, start order: a no-op run plus CHT poison drain
  // per tenant (run_all), quiescence-validated under VTOPO_VALIDATE,
  // then result collection and destruction.
  for (auto& t : run.started) {
    t->rt->run_all();
    JobResult& r = run.results[t->spec_index];
    r.checksum = t->prog.checksum ? t->prog.checksum() : 0.0;
    r.stats = t->rt->stats();
    if (t->prog.op_latencies_us) r.latencies = t->prog.op_latencies_us();
    if (cfg.link_census) r.link_census = t->rt->network().link_census();
    t->rt.reset();
  }

  ServiceReport rep;
  rep.results = std::move(run.results);
  rep.machine_dims = run.fabric->torus.dims();
  rep.total_sim_ns = run.eng.now();
  finish_report(rep);
  return rep;
}

// ---------------------------------------------------------------------
// Uncoupled mode: per-job self-hosted sharded runtimes on a host-side
// deterministic timeline.
// ---------------------------------------------------------------------

struct SimOutcome {
  sim::TimeNs duration = 0;
  double checksum = 0.0;
  armci::RuntimeStats stats{};
  std::vector<double> latencies;
};

SimOutcome simulate_job(const JobSpec& spec, int shards,
                        sim::ThreadMode thread_mode) {
  armci::Runtime::Config rc = tenant_config(spec, nullptr, {});
  rc.shards = std::max(shards, 1);
  rc.thread_mode = thread_mode;
  armci::Runtime rt(rc);
  if (spec.reconfigure) {
    rt.spawn_task(work::detail::reconfig_monitor(&rt, *spec.reconfigure));
  }
  work::JobProgram prog = make_program(rt, spec);
  rt.spawn_all(prog.body);
  rt.run_all();

  SimOutcome out;
  out.duration = rt.now();
  out.checksum = prog.checksum ? prog.checksum() : 0.0;
  out.stats = rt.stats();
  if (prog.op_latencies_us) out.latencies = prog.op_latencies_us();
  return out;
}

struct RunningJob {
  std::size_t spec_index = 0;
  std::int64_t start_order = 0;
  core::Partition part;
  sim::TimeNs start = 0;
  SimOutcome outcome;
  bool simulated = false;
  std::thread worker;
};

ServiceReport run_uncoupled(const ServiceConfig& cfg,
                            const std::vector<JobSpec>& specs) {
  const net::TorusGeometry torus(cfg.machine_slots);
  core::TorusPartitioner parts(torus.dims());
  AdmissionQueue queue(cfg.queue_capacity, cfg.aging_quantum);

  ServiceReport rep;
  seed_results(specs, rep.results);

  // Arrivals in (submit_at, submission index) order.
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].submit_at < specs[b].submit_at;
                   });

  std::vector<std::unique_ptr<RunningJob>> running;
  std::int64_t next_seq = 0;
  std::int64_t start_counter = 0;
  sim::TimeNs now = 0;
  sim::TimeNs last_finish = 0;

  auto join_all = [&] {
    for (auto& j : running) {
      if (j->worker.joinable()) j->worker.join();
      j->simulated = true;
    }
  };

  auto try_start = [&] {
    while (auto cand = queue.peek(now)) {
      const JobSpec& spec = specs[cand->spec_index];
      auto part = parts.carve(spec.nodes, cfg.policy);
      if (!part) break;  // strict head-of-line, as in coupled mode
      queue.pop(cand->seq);
      auto j = std::make_unique<RunningJob>();
      j->spec_index = cand->spec_index;
      j->start_order = start_counter++;
      j->part = std::move(*part);
      j->start = now;
      JobResult& r = rep.results[cand->spec_index];
      r.start_time = now;
      r.slots = j->part.slots;
      RunningJob* jp = j.get();
      const JobSpec* sp = &spec;
      if (cfg.host_jobs > 1) {
        // One host thread per co-resident job: each simulation is a
        // private deterministic runtime, so parallel execution cannot
        // change any byte of the report.
        jp->worker = std::thread([jp, sp, &cfg] {
          jp->outcome = simulate_job(*sp, cfg.shards, cfg.thread_mode);
        });
      } else {
        jp->outcome = simulate_job(*sp, cfg.shards, cfg.thread_mode);
        jp->simulated = true;
      }
      running.push_back(std::move(j));
    }
  };

  std::size_t ai = 0;
  while (ai < order.size() || !running.empty()) {
    // Completions need every running job's duration: join the pool.
    join_all();
    const RunningJob* next_done = nullptr;
    for (const auto& j : running) {
      const sim::TimeNs fin = j->start + j->outcome.duration;
      if (next_done == nullptr ||
          fin < next_done->start + next_done->outcome.duration ||
          (fin == next_done->start + next_done->outcome.duration &&
           j->start_order < next_done->start_order)) {
        next_done = j.get();
      }
    }
    const bool have_arrival = ai < order.size();
    const sim::TimeNs arrival_t =
        have_arrival ? specs[order[ai]].submit_at : 0;
    if (next_done != nullptr &&
        (!have_arrival ||
         next_done->start + next_done->outcome.duration <= arrival_t)) {
      // Completion first (ties: completions before arrivals, matching
      // the coupled engine where the finish event was scheduled first).
      now = next_done->start + next_done->outcome.duration;
      last_finish = std::max(last_finish, now);
      JobResult& r = rep.results[next_done->spec_index];
      r.finish_time = now;
      r.checksum = next_done->outcome.checksum;
      r.stats = next_done->outcome.stats;
      r.latencies = next_done->outcome.latencies;
      parts.release(next_done->part);
      for (std::size_t k = 0; k < running.size(); ++k) {
        if (running[k].get() == next_done) {
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
      try_start();
    } else if (have_arrival) {
      now = arrival_t;
      const std::size_t i = order[ai++];
      const JobSpec& spec = specs[i];
      JobResult& r = rep.results[i];
      r.submit_time = now;
      if (!parts.feasible(spec.nodes, cfg.policy) ||
          !queue.push(QueuedJob{next_seq++, i, spec.priority, now})) {
        r.rejected = true;
        continue;
      }
      try_start();
    }
  }

  rep.machine_dims = torus.dims();
  rep.total_sim_ns = last_finish;
  finish_report(rep);
  return rep;
}

}  // namespace

std::string ServiceReport::canonical() const {
  std::string out;
  char buf[512];
  auto append = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  append("service dims=%dx%dx%d\n", machine_dims[0], machine_dims[1],
         machine_dims[2]);
  for (const JobResult& r : results) {
    append(
        "job id=%" PRId64 " name=%s kind=%s rejected=%d submit_ns=%" PRId64
        " start_ns=%" PRId64 " finish_ns=%" PRId64 " wait_ns=%" PRId64
        " checksum=%.17g req=%" PRIu64 " fwd=%" PRIu64 " ack=%" PRIu64
        " resp=%" PRIu64 " direct=%" PRIu64 " retries=%" PRIu64
        " heals=%" PRIu64 "\n",
        r.job_id, r.name.c_str(), to_string(r.kind).c_str(),
        r.rejected ? 1 : 0, r.submit_time, r.start_time, r.finish_time,
        r.rejected ? 0 : r.queue_wait(), r.checksum, r.stats.requests,
        r.stats.forwards, r.stats.acks, r.stats.responses,
        r.stats.direct_ops, r.stats.retries, r.stats.heals);
    if (!r.slots.empty()) {
      out += "  slots=";
      for (std::size_t i = 0; i < r.slots.size(); ++i) {
        append(i == 0 ? "%" PRId64 : ",%" PRId64, r.slots[i]);
      }
      out += "\n";
    }
    if (!r.latencies.empty()) {
      out += "  lat_ns=";
      bool first = true;
      for (const double us : r.latencies) {
        if (us < 0) continue;  // unmeasured ranks
        append(first ? "%lld" : ",%lld",
               static_cast<long long>(std::llround(us * 1e3)));
        first = false;
      }
      out += "\n";
    }
  }
  append("total_sim_ns=%" PRId64 " completed=%" PRId64 " rejected=%" PRId64
         "\n",
         total_sim_ns, completed, rejected);
  return out;
}

ServiceReport ClusterService::run(const std::vector<JobSpec>& specs) {
  if (cfg_.shards <= 0) return run_coupled(cfg_, specs);
  return run_uncoupled(cfg_, specs);
}

}  // namespace vtopo::svc
