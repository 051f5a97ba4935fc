// Byte-identity guard for the figure pipelines across hot-path rewrites.
//
// The pooling/recycling work (request pool, coroutine frame freelists,
// dense credit banks, route cache) must not perturb a single simulated
// timestamp or protocol counter: figs 5/6/7 have to be bit-for-bit
// reproducible against the pre-change binaries. Each scenario below
// renders its full result (every per-rank op time at ns resolution plus
// all protocol counters) into a canonical string and compares its
// FNV-1a hash against a golden captured from the pre-pooling tree.
//
// On mismatch the test dumps the canonical string so the diff is
// inspectable. To regenerate goldens after an *intentional* model
// change, run with VTOPO_PRINT_GOLDEN=1 and paste the printed table.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/memory_model.hpp"
#include "core/topology.hpp"
#include "svc/service.hpp"
#include "workloads/common.hpp"
#include "workloads/contention.hpp"
#include "workloads/nwchem_dft.hpp"

namespace vtopo {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// Canonical render of one contention run: every measured rank's mean op
/// time in integer nanoseconds plus the full protocol counter set.
std::string render_contention(core::TopologyKind kind,
                              work::ContentionConfig::Op op, int stride) {
  work::ClusterConfig cluster;
  cluster.num_nodes = 8;
  cluster.procs_per_node = 2;
  cluster.topology = kind;

  work::ContentionConfig cfg;
  cfg.op = op;
  cfg.iterations = 2;
  cfg.contender_stride = stride;
  cfg.vec_segments = 4;
  cfg.seg_bytes = 256;

  const auto res = work::run_contention(cluster, cfg);

  std::string out;
  append(out, "topo=%s op=%d stride=%d\n", core::to_string(kind),
         static_cast<int>(op), stride);
  for (std::size_t r = 0; r < res.op_time_us.size(); ++r) {
    if (res.op_time_us[r] < 0) continue;
    append(out, "rank=%zu ns=%lld\n", r,
           static_cast<long long>(res.op_time_us[r] * 1e3));
  }
  const auto& s = res.stats;
  append(out,
         "sim_ns=%lld req=%llu fwd=%llu ack=%llu resp=%llu direct=%llu "
         "wake=%llu lockq=%llu credit_ns=%lld\n",
         static_cast<long long>(res.total_sim_sec * 1e9),
         static_cast<unsigned long long>(s.requests),
         static_cast<unsigned long long>(s.forwards),
         static_cast<unsigned long long>(s.acks),
         static_cast<unsigned long long>(s.responses),
         static_cast<unsigned long long>(s.direct_ops),
         static_cast<unsigned long long>(s.cht_wakeups),
         static_cast<unsigned long long>(s.lock_queue_max),
         static_cast<long long>(s.credit_blocked_ns));
  return out;
}

/// Canonical render of the Figure-5 memory model curves.
std::string render_fig5() {
  core::MemoryParams mp;
  std::string out;
  for (const std::int64_t procs : {768LL, 6144LL, 12288LL}) {
    const std::int64_t nodes = procs / mp.procs_per_node;
    append(out, "procs=%lld", static_cast<long long>(procs));
    for (const auto kind : core::all_topology_kinds()) {
      const auto topo = core::VirtualTopology::make(kind, nodes);
      append(out, " %s=%.17g", core::to_string(kind),
             core::master_process_rss_mb(topo, 0, mp));
    }
    append(out, "\n");
  }
  return out;
}

struct Golden {
  const char* name;
  std::uint64_t hash;
};

void check(const Golden& g, const std::string& canonical) {
  const std::uint64_t h = fnv1a(canonical);
  if (std::getenv("VTOPO_PRINT_GOLDEN") != nullptr) {
    std::printf("GOLDEN {\"%s\", 0x%016llxULL},\n", g.name,
                static_cast<unsigned long long>(h));
    return;
  }
  EXPECT_EQ(h, g.hash) << g.name << " diverged; canonical output:\n"
                       << canonical;
}

// Hashes captured from the pre-pooling tree (PR-1 HEAD, commit 42dc504).
constexpr Golden kFig5 = {"fig5", 0x4e17b7502864bb19ULL};

constexpr Golden kFig6[] = {
    {"fig6_fcg_0", 0x65d3bb80930f17acULL},
    {"fig6_mfcg_0", 0x13b036d6506e1244ULL},
    {"fig6_cfcg_0", 0x2e6acf1d1130b311ULL},
    {"fig6_hc_0", 0x429e5484aa0d15c1ULL},
    {"fig6_fcg_9", 0x556a420706e57b99ULL},
    {"fig6_mfcg_9", 0xd437544d37a8aec5ULL},
    {"fig6_cfcg_9", 0x5d1196fa956db83bULL},
    {"fig6_hc_9", 0xc13e74effc687dabULL},
};

constexpr Golden kFig7[] = {
    {"fig7_fcg_0", 0x28532b525a3b7ddbULL},
    {"fig7_mfcg_0", 0xdad20a5b02a39109ULL},
    {"fig7_cfcg_0", 0x0253487107017d2cULL},
    {"fig7_hc_0", 0x078d4e49cc855e9cULL},
    {"fig7_fcg_5", 0x635aed137889cf8cULL},
    {"fig7_mfcg_5", 0x313a9baaba53d8b5ULL},
    {"fig7_cfcg_5", 0x07ceb41443ddc2c4ULL},
    {"fig7_hc_5", 0x5686ac8ee1748674ULL},
};

// One dft tenant submitted at t=0 on a machine sized to the job: the
// coupled service path must be byte-identical to the standalone
// workload driver (same engine family, same Network construction via
// the shared-Fabric attach seam). Locked two ways: a differential
// against run_nwchem_dft and an FNV golden over the full canonical
// report render.
constexpr Golden kServiceSingleTenant = {"service_1tenant",
                                         0xdfff9b3573c6d66cULL};

svc::JobSpec service_dft_spec() {
  svc::JobSpec job;
  job.name = "dft";
  job.kind = svc::JobKind::kDft;
  job.nodes = 8;
  job.procs_per_node = 2;
  return job;
}

TEST(FigIdentity, ServiceSingleTenantMatchesStandaloneDriver) {
  // The service-scaled dft defaults from svc::make_program, spelled out
  // so a drift in either place breaks the identity visibly.
  work::ClusterConfig cluster;
  cluster.num_nodes = 8;
  cluster.procs_per_node = 2;
  work::DftConfig dft;
  dft.scf_iterations = 1;
  dft.total_tasks = 192;
  dft.block_doubles = 48;
  dft.compute_us_per_task = 150.0;
  dft.chunk = 2;
  const work::AppResult standalone = work::run_nwchem_dft(cluster, dft);

  svc::ServiceConfig cfg;
  cfg.machine_slots = 8;  // machine == job: the carve is the whole torus
  cfg.shards = 0;
  const svc::ServiceReport rep =
      svc::ClusterService(cfg).run({service_dft_spec()});
  ASSERT_EQ(rep.completed, 1);
  const svc::JobResult& r = rep.results[0];
  EXPECT_EQ(r.start_time, 0);
  EXPECT_EQ(r.finish_time,
            static_cast<sim::TimeNs>(standalone.exec_time_sec * 1e9 + 0.5));
  EXPECT_EQ(r.checksum, standalone.checksum);
  EXPECT_EQ(r.stats.requests, standalone.stats.requests);
  EXPECT_EQ(r.stats.forwards, standalone.stats.forwards);
  EXPECT_EQ(r.stats.acks, standalone.stats.acks);
  EXPECT_EQ(r.stats.responses, standalone.stats.responses);
  EXPECT_EQ(r.stats.direct_ops, standalone.stats.direct_ops);
  EXPECT_EQ(r.stats.cht_wakeups, standalone.stats.cht_wakeups);
}

TEST(FigIdentity, ServiceSingleTenantCanonicalReport) {
  svc::ServiceConfig cfg;
  cfg.machine_slots = 8;
  cfg.shards = 0;
  check(kServiceSingleTenant,
        svc::ClusterService(cfg).run({service_dft_spec()}).canonical());
}

TEST(FigIdentity, Fig5MemoryCurves) { check(kFig5, render_fig5()); }

TEST(FigIdentity, Fig6VectorPutPanels) {
  const core::TopologyKind kinds[] = {
      core::TopologyKind::kFcg, core::TopologyKind::kMfcg,
      core::TopologyKind::kCfcg, core::TopologyKind::kHypercube};
  int i = 0;
  for (const int stride : {0, 9}) {
    for (const auto kind : kinds) {
      check(kFig6[i++], render_contention(
                            kind, work::ContentionConfig::Op::kVectorPut,
                            stride));
    }
  }
}

TEST(FigIdentity, Fig7FetchAddPanels) {
  const core::TopologyKind kinds[] = {
      core::TopologyKind::kFcg, core::TopologyKind::kMfcg,
      core::TopologyKind::kCfcg, core::TopologyKind::kHypercube};
  int i = 0;
  for (const int stride : {0, 5}) {
    for (const auto kind : kinds) {
      check(kFig7[i++], render_contention(
                            kind, work::ContentionConfig::Op::kFetchAdd,
                            stride));
    }
  }
}

}  // namespace
}  // namespace vtopo
