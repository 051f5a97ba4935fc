// vtopo_run — one-shot experiment driver.
//
// Runs any of the repository's workloads on any cluster/topology
// configuration from the command line, printing the timing, protocol
// counters, and (optionally) the per-op latency trace summary.
//
//   vtopo_run workload=contention topology=mfcg nodes=256 ppn=4
//             contention=20 iters=5 op=fetchadd   (one line)
//   vtopo_run workload=dft topology=fcg nodes=256 ppn=12
//   vtopo_run workload=lu nodes=64 ppn=12 topology=hypercube trace=1
//   vtopo_run workload=recommend nodes=1024 budget=256 hotspot=0.5
//   vtopo_run workload=ccsd topology=auto nodes=256        (recommender
//             picks the topology from the workload's profile)
//   vtopo_run workload=dft reconfigure=fcg reconfigure_at=2.5
//             (live-remap the topology mid-run, at 2.5 ms)
//   vtopo_run workload=phased adaptive=1 cycles=3          (controller
//             re-picks the topology at every phase boundary)
//   vtopo_run workload=dft faults="drop=0.05;crash=3@200+400"
//             (seeded fault plan, FaultPlan::parse syntax; see
//             docs/testing.md)
//   vtopo_run workload=ccsd fault_drop=0.05 fault_severs=1
//             fault_crashes=1 fault_seed=9   (random seeded plan)
//   vtopo_run service="dft:nodes=8,ppn=2;storm:nodes=8,at=100000"
//             slots=64 partition=compact     (multi-tenant cluster
//             service: job mix scheduled onto one shared torus; see
//             docs/service.md for the job-mix grammar)
//
// Unknown keys, values that do not parse in full and unknown names are
// rejected with exit status 2; every key has a sensible default.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include <fstream>
#include <sstream>

#include "core/recommend.hpp"
#include "net/profiles.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "svc/service.hpp"
#include "workloads/contention.hpp"
#include "workloads/nas_lu.hpp"
#include "workloads/nwchem_ccsd.hpp"
#include "workloads/nwchem_dft.hpp"
#include "workloads/phased.hpp"
#include "workloads/trace_replay.hpp"

using namespace vtopo;

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& v,
                            const char* expected) {
  std::fprintf(stderr, "bad value '%s' for key '%s' (expected %s)\n",
               v.c_str(), key.c_str(), expected);
  std::exit(2);
}

/// `v` parsed in full as an integer, or exit 2 naming `key`.
std::int64_t parse_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0) {
    bad_value(key, v, "an integer");
  }
  return n;
}

/// `v` parsed in full as a real number, or exit 2 naming `key`.
double parse_real(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || errno != 0) bad_value(key, v, "a number");
  return x;
}

class KvArgs {
 public:
  KvArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad argument '%s' (expected key=value)\n",
                     arg.c_str());
        std::exit(2);
      }
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  std::string str(const std::string& key, const std::string& dflt) {
    used_.insert(key);
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  std::int64_t num(const std::string& key, std::int64_t dflt) {
    used_.insert(key);
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : parse_int(key, it->second);
  }
  double real(const std::string& key, double dflt) {
    used_.insert(key);
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : parse_real(key, it->second);
  }
  /// Call after all reads: any unread key is a typo.
  void reject_unknown() const {
    for (const auto& [k, v] : kv_) {
      if (used_.count(k) == 0) {
        std::fprintf(stderr, "unknown key '%s'\n", k.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> used_;
};

core::TopologyKind parse_topology(const std::string& s) {
  if (s == "fcg") return core::TopologyKind::kFcg;
  if (s == "mfcg") return core::TopologyKind::kMfcg;
  if (s == "cfcg") return core::TopologyKind::kCfcg;
  if (s == "hypercube" || s == "hc") return core::TopologyKind::kHypercube;
  std::fprintf(stderr, "unknown topology '%s'\n", s.c_str());
  std::exit(2);
}

core::ForwardingPolicy parse_policy(const std::string& s) {
  if (s == "ldf") return core::ForwardingPolicy::kLowestDimFirst;
  if (s == "hdf") return core::ForwardingPolicy::kHighestDimFirst;
  if (s == "scrambled") return core::ForwardingPolicy::kScrambled;
  std::fprintf(stderr, "unknown policy '%s'\n", s.c_str());
  std::exit(2);
}

void print_stats(const armci::RuntimeStats& st) {
  std::printf("requests=%llu forwards=%llu acks=%llu direct=%llu "
              "wakeups=%llu credit_blocked_ms=%.3f\n",
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.forwards),
              static_cast<unsigned long long>(st.acks),
              static_cast<unsigned long long>(st.direct_ops),
              static_cast<unsigned long long>(st.cht_wakeups),
              static_cast<double>(st.credit_blocked_ns) / 1e6);
  if (st.reconfigurations > 0) {
    std::printf("reconfigurations=%llu quiesce_ms=%.3f remap_ms=%.3f\n",
                static_cast<unsigned long long>(st.reconfigurations),
                static_cast<double>(st.reconfig_quiesce_ns) / 1e6,
                static_cast<double>(st.reconfig_remap_ns) / 1e6);
  }
  if (st.msgs_dropped > 0 || st.retries > 0 || st.msgs_duplicated > 0 ||
      st.msgs_delayed > 0 || st.heals > 0) {
    std::printf("faults: dropped=%llu duplicated=%llu delayed=%llu "
                "retries=%llu dedup=%llu reclaimed=%llu heals=%llu "
                "reroutes=%llu\n",
                static_cast<unsigned long long>(st.msgs_dropped),
                static_cast<unsigned long long>(st.msgs_duplicated),
                static_cast<unsigned long long>(st.msgs_delayed),
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.dup_suppressed),
                static_cast<unsigned long long>(st.credits_reclaimed),
                static_cast<unsigned long long>(st.heals),
                static_cast<unsigned long long>(st.healed_reroutes));
  }
}

/// topology=auto: pick the topology from the workload's profile via the
/// paper's recommender, printing the reasoning chain.
void resolve_auto_topology(work::ClusterConfig& cl, double budget_mb,
                           double hotspot, double latency) {
  core::WorkloadProfile prof;
  prof.num_nodes = cl.num_nodes;
  prof.buffer_budget_mb = budget_mb;
  prof.hotspot_fraction = hotspot;
  prof.latency_sensitivity = latency;
  prof.mem.procs_per_node = cl.procs_per_node;
  prof.mem.buffer_bytes = cl.armci.buffer_bytes;
  prof.mem.buffers_per_process = cl.armci.buffers_per_process;
  const core::Recommendation rec = core::recommend_topology(prof);
  cl.topology = rec.kind;
  std::printf("topology=auto (hotspot=%.2f latency=%.2f budget=%gMB) "
              "-> %s\n",
              hotspot, latency, budget_mb, core::to_string(rec.kind));
  std::printf("rationale: %s\n", rec.rationale.c_str());
}

/// Job-mix grammar for service= mode: jobs separated by ';', each
/// `kind[:key=val[,key=val...]]` with keys nodes, ppn, prio, at (ns),
/// ops, topo, seed, name. Example:
///   "dft:nodes=8,ppn=2;storm:nodes=8,prio=1,at=100000"
std::vector<svc::JobSpec> parse_job_mix(const std::string& mix) {
  std::vector<svc::JobSpec> specs;
  std::stringstream jobs(mix);
  std::string job;
  while (std::getline(jobs, job, ';')) {
    if (job.empty()) continue;
    const auto colon = job.find(':');
    const std::string kind_str = job.substr(0, colon);
    const auto kind = svc::parse_job_kind(kind_str);
    if (!kind) {
      std::fprintf(stderr, "unknown job kind '%s'\n", kind_str.c_str());
      std::exit(2);
    }
    svc::JobSpec spec;
    spec.kind = *kind;
    spec.name = kind_str + std::to_string(specs.size());
    if (colon != std::string::npos) {
      std::stringstream kvs(job.substr(colon + 1));
      std::string kv;
      while (std::getline(kvs, kv, ',')) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
          std::fprintf(stderr, "bad job key '%s' (expected key=val)\n",
                       kv.c_str());
          std::exit(2);
        }
        const std::string k = kv.substr(0, eq);
        const std::string v = kv.substr(eq + 1);
        if (k == "nodes") {
          spec.nodes = parse_int(k, v);
        } else if (k == "ppn") {
          spec.procs_per_node = static_cast<int>(parse_int(k, v));
        } else if (k == "prio") {
          spec.priority = static_cast<int>(parse_int(k, v));
        } else if (k == "at") {
          spec.submit_at = parse_int(k, v);
        } else if (k == "ops") {
          spec.ops = parse_int(k, v);
        } else if (k == "topo") {
          spec.topology = parse_topology(v);
        } else if (k == "seed") {
          spec.seed = static_cast<std::uint64_t>(parse_int(k, v));
        } else if (k == "name") {
          spec.name = v;
        } else {
          std::fprintf(stderr, "unknown job key '%s'\n", k.c_str());
          std::exit(2);
        }
      }
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    std::fprintf(stderr, "service= job mix is empty\n");
    std::exit(2);
  }
  return specs;
}

int run_service(KvArgs& args, const std::string& mix) {
  svc::ServiceConfig sc;
  sc.machine_slots = args.num("slots", 64);
  const std::string pol = args.str("partition", "compact");
  const auto parsed = core::parse_partition_policy(pol);
  if (!parsed) {
    std::fprintf(stderr,
                 "unknown partition '%s' (compact|striped|bestfit)\n",
                 pol.c_str());
    return 2;
  }
  sc.policy = *parsed;
  sc.queue_capacity = static_cast<std::size_t>(args.num("queue", 256));
  sc.aging_quantum = args.num("aging_ns", 1000000);
  sc.shards = static_cast<int>(args.num("shards", 0));
  sc.host_jobs = static_cast<int>(args.num("jobs", 1));
  sc.link_census = args.num("census", 0) != 0;
  const bool canonical = args.num("canonical", 0) != 0;
  const auto specs = parse_job_mix(mix);
  args.reject_unknown();

  svc::ClusterService service(sc);
  const svc::ServiceReport rep = service.run(specs);
  if (canonical) {
    // The byte-diff surface: tests compare this render across --jobs /
    // --shards and against the single-tenant goldens.
    std::fputs(rep.canonical().c_str(), stdout);
    return 0;
  }
  std::printf("service %dx%dx%d partition=%s shards=%d: %lld jobs, "
              "%lld completed, %lld rejected, %.3f ms simulated\n",
              rep.machine_dims[0], rep.machine_dims[1],
              rep.machine_dims[2], core::to_string(sc.policy).c_str(),
              sc.shards, static_cast<long long>(rep.results.size()),
              static_cast<long long>(rep.completed),
              static_cast<long long>(rep.rejected),
              static_cast<double>(rep.total_sim_ns) / 1e6);
  for (const auto& r : rep.results) {
    if (r.rejected) {
      std::printf("  %-12s %-9s REJECTED (submit %.3f ms)\n",
                  r.name.c_str(), svc::to_string(r.kind).c_str(),
                  static_cast<double>(r.submit_time) / 1e6);
      continue;
    }
    std::printf("  %-12s %-9s wait %8.3f ms  ran %8.3f ms  "
                "checksum %.6g  req=%llu fwd=%llu\n",
                r.name.c_str(), svc::to_string(r.kind).c_str(),
                static_cast<double>(r.queue_wait()) / 1e6,
                static_cast<double>(r.finish_time - r.start_time) / 1e6,
                r.checksum,
                static_cast<unsigned long long>(r.stats.requests),
                static_cast<unsigned long long>(r.stats.forwards));
  }
  return 0;
}

int run(int argc, char** argv) {
  KvArgs args(argc, argv);
  const std::string service_mix = args.str("service", "");
  if (!service_mix.empty()) return run_service(args, service_mix);
  const std::string workload = args.str("workload", "contention");

  if (workload == "recommend") {
    core::WorkloadProfile prof;
    prof.num_nodes = args.num("nodes", 1024);
    prof.buffer_budget_mb = args.real("budget", 256.0);
    prof.hotspot_fraction = args.real("hotspot", 0.0);
    prof.latency_sensitivity = args.real("latency", 0.5);
    args.reject_unknown();
    const auto rec = core::recommend_topology(prof);
    std::printf("recommendation: %s\n", core::to_string(rec.kind));
    std::printf("rationale: %s\n", rec.rationale.c_str());
    return 0;
  }

  work::ClusterConfig cl;
  cl.num_nodes = args.num("nodes", 64);
  cl.procs_per_node = static_cast<int>(args.num("ppn", 4));
  const std::string topo_str = args.str("topology", "mfcg");
  const bool auto_topology = topo_str == "auto";
  if (!auto_topology) cl.topology = parse_topology(topo_str);
  const double budget_mb = args.real("budget", 256.0);
  cl.policy = parse_policy(args.str("policy", "ldf"));
  cl.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  const std::string machine = args.str("machine", "xt5");
  if (machine == "bgp") {
    cl.net = net::bgp_params();
  } else if (machine != "xt5") {
    std::fprintf(stderr, "unknown machine '%s' (xt5|bgp)\n",
                 machine.c_str());
    return 2;
  }
  cl.net.stream_table_size =
      static_cast<int>(args.num("table", cl.net.stream_table_size));
  const std::string placement = args.str("placement", "linear");
  if (placement == "random") {
    cl.placement = net::Placement::kRandom;
  } else if (placement != "linear") {
    std::fprintf(stderr, "unknown placement '%s' (linear|random)\n",
                 placement.c_str());
    return 2;
  }
  const auto iters = static_cast<int>(args.num("iters", 5));

  // backend=sim (default, deterministic) | threads (one std::thread per
  // node, wall-clock latency, real shared-memory copies).
  const std::string backend_str = args.str("backend", "sim");
  if (backend_str == "threads") {
    cl.backend = armci::Backend::kThreads;
  } else if (backend_str != "sim") {
    std::fprintf(stderr, "unknown backend '%s' (sim|threads)\n",
                 backend_str.c_str());
    return 2;
  }
  cl.shards = static_cast<int>(args.num("shards", cl.shards));
  if (cl.backend == armci::Backend::kThreads && workload != "dft" &&
      workload != "lu" && workload != "phased" && workload != "trace") {
    std::fprintf(stderr,
                 "backend=threads supports workload=dft|lu|phased|trace "
                 "only\n");
    return 2;
  }

  // Optional seeded fault plan, armed for every workload. `faults=` is
  // the full FaultPlan::parse syntax; the fault_* keys build a random
  // plan on top of it (or of an empty plan).
  {
    const std::string fspec = args.str("faults", "");
    sim::FaultPlan plan;
    if (!fspec.empty()) {
      std::string err;
      const auto parsed = sim::FaultPlan::parse(fspec, &err);
      if (!parsed) {
        std::fprintf(stderr, "bad faults= spec: %s\n", err.c_str());
        return 2;
      }
      plan = *parsed;
    }
    const double fdrop = args.real("fault_drop", 0.0);
    const double fdup = args.real("fault_dup", 0.0);
    const double fdelay = args.real("fault_delay", 0.0);
    const auto fsevers = static_cast<int>(args.num("fault_severs", 0));
    const auto fcrashes = static_cast<int>(args.num("fault_crashes", 0));
    const auto fseed =
        static_cast<std::uint64_t>(args.num("fault_seed", 1));
    const double fhorizon_ms = args.real("fault_horizon_ms", 2.0);
    if (fdrop > 0 || fdup > 0 || fdelay > 0 || fsevers > 0 ||
        fcrashes > 0) {
      sim::FaultPlan rnd = sim::FaultPlan::random(
          fseed, cl.num_nodes, fsevers, fcrashes, fdrop, fdup, fdelay,
          sim::ms(fhorizon_ms));
      plan.seed = rnd.seed;
      plan.drop_requests = std::max(plan.drop_requests, rnd.drop_requests);
      plan.drop_acks = std::max(plan.drop_acks, rnd.drop_acks);
      plan.drop_responses =
          std::max(plan.drop_responses, rnd.drop_responses);
      plan.duplicate_rate = std::max(plan.duplicate_rate, rnd.duplicate_rate);
      plan.delay_rate = std::max(plan.delay_rate, rnd.delay_rate);
      plan.events.insert(plan.events.end(), rnd.events.begin(),
                         rnd.events.end());
    }
    if (plan.armed()) {
      if (cl.backend == armci::Backend::kThreads) {
        std::fprintf(stderr,
                     "backend=threads does not support fault injection\n");
        return 2;
      }
      cl.faults = plan;
      std::printf("faults: %s\n", plan.describe().c_str());
    }
  }

  // Optional mid-run live reconfiguration, armed for every workload.
  const std::string reconf = args.str("reconfigure", "");
  const double reconf_at = args.real("reconfigure_at", 1.0);
  const std::string reconf_mode = args.str("reconfig_mode", "incremental");
  if (!reconf.empty()) {
    work::ReconfigSpec spec;
    spec.to = parse_topology(reconf);
    spec.at_ms = reconf_at;
    if (reconf_mode == "rebuild") {
      spec.mode = armci::ReconfigMode::kRebuild;
    } else if (reconf_mode != "incremental") {
      std::fprintf(stderr,
                   "unknown reconfig_mode '%s' (incremental|rebuild)\n",
                   reconf_mode.c_str());
      return 2;
    }
    cl.reconfigure = spec;
  }

  if (workload == "contention") {
    work::ContentionConfig cc;
    cc.iterations = iters;
    const std::string op = args.str("op", "vput");
    if (op == "fetchadd") {
      cc.op = work::ContentionConfig::Op::kFetchAdd;
    } else if (op == "vget") {
      cc.op = work::ContentionConfig::Op::kVectorGet;
    } else if (op != "vput") {
      std::fprintf(stderr, "unknown op '%s' (vput|vget|fetchadd)\n",
                   op.c_str());
      return 2;
    }
    const std::int64_t pct = args.num("contention", 0);
    cc.contender_stride = pct == 0 ? 0 : pct >= 20 ? 5 : 9;
    args.reject_unknown();
    if (auto_topology) {
      // Hot-spot skew is the contender fraction; single fetch-&-adds
      // are the most latency-critical op in the suite.
      resolve_auto_topology(cl, budget_mb,
                            static_cast<double>(pct) / 100.0,
                            op == "fetchadd" ? 0.9 : 0.5);
    }
    const auto res = work::run_contention(cl, cc);
    sim::Series s;
    for (const double t : res.op_time_us) {
      if (t >= 0) s.add(t);
    }
    std::printf("%s %s contention=%lld%%: median=%.1fus p95=%.1fus "
                "max=%.1fus (simulated %.3fs)\n",
                core::to_string(cl.topology), op.c_str(),
                static_cast<long long>(pct), s.median(),
                s.percentile(95), s.max(), res.total_sim_sec);
    print_stats(res.stats);
    return 0;
  }

  if (workload == "trace") {
    const std::string path = args.str("file", "");
    args.reject_unknown();
    if (path.empty()) {
      std::fprintf(stderr, "workload=trace requires file=<path>\n");
      return 2;
    }
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open trace '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto ops = work::parse_trace(text.str(), cl.num_procs());
    if (auto_topology) {
      // Arbitrary replayed mixes: assume spread traffic, middling
      // latency sensitivity.
      resolve_auto_topology(cl, budget_mb, 0.0, 0.5);
    }
    const auto res = work::replay_trace(cl, ops);
    std::printf("trace %s: %lld ops in %.6f s on %s\n", path.c_str(),
                static_cast<long long>(res.ops_executed),
                res.exec_time_sec, core::to_string(cl.topology));
    print_stats(res.stats);
    return 0;
  }

  if (workload == "phased") {
    work::PhasedConfig pc;
    pc.cycles = static_cast<int>(args.num("cycles", 2));
    pc.hot_ops_per_proc = args.num("hot_ops", pc.hot_ops_per_proc);
    pc.bw_tiles_per_proc = args.num("bw_tiles", pc.bw_tiles_per_proc);
    pc.adaptive = args.num("adaptive", 0) != 0;
    pc.adaptive_cfg.buffer_budget_mb = budget_mb;
    args.reject_unknown();
    if (auto_topology) {
      // The opening phase is the hot-counter one; with adaptive=1 the
      // controller re-picks at every later boundary anyway.
      resolve_auto_topology(cl, budget_mb, 0.4, 0.7);
    }
    const auto res = work::run_phased(cl, pc);
    std::printf("phased %s on %lld procs: %.4f s (checksum %.6g)\n",
                pc.adaptive ? "adaptive" : core::to_string(cl.topology),
                static_cast<long long>(cl.num_procs()),
                res.app.exec_time_sec, res.app.checksum);
    for (std::size_t i = 0; i < res.phase_sec.size(); ++i) {
      std::printf("  phase %zu (%s, %s): %.4f s\n", i,
                  i % 2 == 0 ? "hot" : "bandwidth",
                  i < res.phase_topology.size()
                      ? res.phase_topology[i].c_str()
                      : "?",
                  res.phase_sec[i]);
    }
    for (const std::string& d : res.decisions) {
      std::printf("  controller: %s\n", d.c_str());
    }
    print_stats(res.app.stats);
    return 0;
  }

  work::AppResult res;
  if (workload == "lu") {
    work::LuConfig lu;
    lu.iterations = iters;
    lu.nx_global = static_cast<int>(args.num("nx", 408));
    args.reject_unknown();
    if (auto_topology) {
      // Wavefront neighbor exchanges: spread traffic, overlapped.
      resolve_auto_topology(cl, budget_mb, 0.0, 0.4);
    }
    res = work::run_nas_lu(cl, lu);
  } else if (workload == "dft") {
    work::DftConfig dft;
    dft.total_tasks = args.num("tasks", 24576);
    dft.compute_us_per_task = args.real("task_us", 70000.0);
    args.reject_unknown();
    if (auto_topology) {
      // NXTVAL counter on rank 0 gives DFT its hot-spot signature.
      resolve_auto_topology(cl, budget_mb, 0.4, 0.6);
    }
    res = work::run_nwchem_dft(cl, dft);
  } else if (workload == "ccsd") {
    work::CcsdConfig cc;
    cc.total_tiles = args.num("tiles", 196608);
    cc.compute_us_per_tile = args.real("tile_us", 300.0);
    args.reject_unknown();
    if (auto_topology) {
      // Uniform tile traffic with blocking gets on the critical path.
      resolve_auto_topology(cl, budget_mb, 0.0, 0.7);
    }
    res = work::run_nwchem_ccsd(cl, cc);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (contention|lu|dft|ccsd|"
                 "trace|phased|recommend)\n",
                 workload.c_str());
    return 2;
  }

  std::printf("%s %s on %lld procs: %.4f s (checksum %.6g)\n",
              workload.c_str(), core::to_string(cl.topology),
              static_cast<long long>(cl.num_procs()), res.exec_time_sec,
              res.checksum);
  print_stats(res.stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vtopo_run: %s\n", e.what());
    return 2;
  }
}
