// service_bench — multi-tenant cluster service characterization.
//
// Two batteries per partition policy (compact / striped / bestfit):
//
//   interference  a probe tenant (fig-7 fetch-add latency protocol)
//                 runs solo, then co-resident with fetch-add-storm
//                 aggressor tenants on the same coupled fabric. The
//                 interference index is the probe's p99 latency shared
//                 over solo. Route-contained compact partitions pin the
//                 index at exactly 1.0 (the victim's event stream is
//                 bit-identical); striped partitions pay real link
//                 contention.
//
//   throughput    a mixed job stream saturates a small machine so the
//                 admission queue backs up: jobs/sec plus p50/p99 queue
//                 wait per policy.
//
// Writes BENCH_service.json. Gates: every submitted job completes,
// compact interference index stays at 1.0 (exact isolation), striped
// exceeds it measurably, and the shared-run report is deterministic.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "svc/service.hpp"

using namespace vtopo;

namespace {

constexpr std::int64_t kMachineSlots = 64;

svc::JobSpec probe_spec(int iters) {
  svc::JobSpec s;
  s.name = "probe";
  s.kind = svc::JobKind::kProbe;
  s.nodes = 8;
  s.procs_per_node = 2;
  s.ops = iters;
  return s;
}

svc::JobSpec storm_spec(const std::string& name, std::int64_t ops) {
  svc::JobSpec s;
  s.name = name;
  s.kind = svc::JobKind::kStorm;
  s.nodes = 8;
  s.procs_per_node = 2;
  s.ops = ops;
  return s;
}

struct InterferenceOut {
  double solo_p99_us = 0.0;
  double shared_p99_us = 0.0;
  double index = 0.0;  ///< shared / solo
  bool deterministic = false;
  bool all_completed = false;
};

InterferenceOut run_interference(core::PartitionPolicy policy, bool quick) {
  const int iters = quick ? 6 : 12;
  const std::int64_t storm_ops = quick ? 256 : 768;
  svc::ServiceConfig sc;
  sc.machine_slots = kMachineSlots;
  sc.policy = policy;

  auto probe_p99 = [](const svc::JobResult& r) {
    sim::Series lat;
    for (const double us : r.latencies) {
      if (us >= 0) lat.add(us);
    }
    return lat.percentile(99);
  };

  InterferenceOut out;
  svc::ClusterService service(sc);
  // The probe submits first, so it carves the same partition of the
  // empty machine solo and shared — only the aggressors differ.
  const svc::ServiceReport solo = service.run({probe_spec(iters)});
  const std::vector<svc::JobSpec> mix = {
      probe_spec(iters), storm_spec("storm1", storm_ops),
      storm_spec("storm2", storm_ops), storm_spec("storm3", storm_ops)};
  const svc::ServiceReport shared = service.run(mix);
  const svc::ServiceReport shared2 = service.run(mix);

  out.solo_p99_us = probe_p99(solo.results[0]);
  out.shared_p99_us = probe_p99(shared.results[0]);
  out.index = out.solo_p99_us > 0 ? out.shared_p99_us / out.solo_p99_us : 0;
  out.deterministic = shared.canonical() == shared2.canonical();
  out.all_completed =
      solo.completed == 1 &&
      shared.completed == static_cast<std::int64_t>(mix.size()) &&
      shared.rejected == 0;
  return out;
}

struct ThroughputOut {
  double jobs_per_sec = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  bool all_completed = false;
};

ThroughputOut run_throughput(core::PartitionPolicy policy, bool quick) {
  const int jobs = quick ? 10 : 24;
  svc::ServiceConfig sc;
  sc.machine_slots = 16;  // small machine: the stream must queue
  sc.policy = policy;

  std::vector<svc::JobSpec> mix;
  for (int i = 0; i < jobs; ++i) {
    svc::JobSpec s;
    s.name = "job" + std::to_string(i);
    switch (i % 3) {
      case 0:
        s.kind = svc::JobKind::kDft;
        s.ops = 96;
        break;
      case 1:
        s.kind = svc::JobKind::kSynthetic;
        s.ops = 8;
        break;
      default:
        s.kind = svc::JobKind::kCcsd;
        s.ops = 64;
        break;
    }
    s.nodes = (i % 2 == 0) ? 8 : 4;
    s.procs_per_node = 2;
    s.priority = i % 2;
    s.submit_at = static_cast<sim::TimeNs>(i) * 50000;  // 50 us apart
    mix.push_back(std::move(s));
  }

  svc::ClusterService service(sc);
  const svc::ServiceReport rep = service.run(mix);

  ThroughputOut out;
  sim::Series waits;
  for (const auto& r : rep.results) {
    if (r.rejected) continue;
    waits.add(static_cast<double>(r.queue_wait()) / 1e6);
  }
  out.completed = rep.completed;
  out.rejected = rep.rejected;
  out.all_completed = rep.completed == jobs && rep.rejected == 0;
  out.jobs_per_sec = rep.total_sim_ns > 0
                         ? static_cast<double>(rep.completed) /
                               (static_cast<double>(rep.total_sim_ns) / 1e9)
                         : 0.0;
  out.wait_p50_ms = waits.percentile(50);
  out.wait_p99_ms = waits.percentile(99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::string out_path =
      args.get_string("--out", "BENCH_service.json");

  bench::print_header("service_bench",
                      "multi-tenant service: throughput, queue wait, and "
                      "cross-tenant interference per partition policy");

  const core::PartitionPolicy policies[] = {
      core::PartitionPolicy::kCompactBlock, core::PartitionPolicy::kStriped,
      core::PartitionPolicy::kBestFit};
  InterferenceOut interf[3];
  ThroughputOut thru[3];
  for (int i = 0; i < 3; ++i) {
    interf[i] = run_interference(policies[i], quick);
    thru[i] = run_throughput(policies[i], quick);
    std::printf("%-8s interference: solo p99 %8.1f us  shared p99 %8.1f "
                "us  index %.4f%s%s\n",
                core::to_string(policies[i]).c_str(), interf[i].solo_p99_us,
                interf[i].shared_p99_us, interf[i].index,
                interf[i].deterministic ? "" : "  NON-DETERMINISTIC",
                interf[i].all_completed ? "" : "  INCOMPLETE");
    std::printf("%-8s throughput:   %7.1f jobs/s  wait p50 %8.3f ms  "
                "p99 %8.3f ms  (%lld done, %lld rejected)%s\n",
                core::to_string(policies[i]).c_str(),
                thru[i].jobs_per_sec, thru[i].wait_p50_ms,
                thru[i].wait_p99_ms,
                static_cast<long long>(thru[i].completed),
                static_cast<long long>(thru[i].rejected),
                thru[i].all_completed ? "" : "  INCOMPLETE");
  }
  bench::print_rule();

  const double compact_x = interf[0].index;
  const double striped_x = interf[1].index;
  bool ok_done = true;
  bool ok_det = true;
  for (int i = 0; i < 3; ++i) {
    ok_done = ok_done && interf[i].all_completed && thru[i].all_completed;
    ok_det = ok_det && interf[i].deterministic;
  }
  // Compact partitions are route-contained, so the victim's latencies
  // are bit-identical under co-residency: the index is exactly 1.
  const bool ok_isolation = compact_x > 0.9999 && compact_x < 1.0001;
  const bool ok_contrast = striped_x > compact_x * 1.02;
  std::printf("gates: all_jobs_complete %s  deterministic %s  "
              "compact_isolated %s  striped_contended %s\n",
              ok_done ? "yes" : "NO", ok_det ? "yes" : "NO",
              ok_isolation ? "yes" : "NO", ok_contrast ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"quick\": %s,\n  \"policies\": {\n",
               quick ? "true" : "false");
  for (int i = 0; i < 3; ++i) {
    std::fprintf(
        f,
        "    \"%s\": {\"solo_p99_us\": %.2f, \"shared_p99_us\": %.2f, "
        "\"interference_index\": %.4f, \"jobs_per_sec\": %.2f, "
        "\"wait_p50_ms\": %.4f, \"wait_p99_ms\": %.4f, "
        "\"completed\": %lld, \"rejected\": %lld}%s\n",
        core::to_string(policies[i]).c_str(), interf[i].solo_p99_us,
        interf[i].shared_p99_us, interf[i].index, thru[i].jobs_per_sec,
        thru[i].wait_p50_ms, thru[i].wait_p99_ms,
        static_cast<long long>(thru[i].completed),
        static_cast<long long>(thru[i].rejected), i < 2 ? "," : "");
  }
  std::fprintf(f,
               "  },\n  \"gates\": {\"all_jobs_complete\": %s, "
               "\"deterministic\": %s, \"compact_isolated\": %s, "
               "\"striped_contended\": %s}\n}\n",
               ok_done ? "true" : "false", ok_det ? "true" : "false",
               ok_isolation ? "true" : "false",
               ok_contrast ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  return ok_done && ok_det && ok_isolation && ok_contrast ? 0 : 1;
}
