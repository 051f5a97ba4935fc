// Chaos smoke bench: goodput retained and recovery latency of the
// self-healing request path at 1%, 5%, and 10% link-fault (message
// drop) rates, each with one scheduled link sever and one node crash.
// Writes BENCH_fault.json.
//
// Every process times each of its fetch-&-adds against a rank-0
// counter on an MFCG mesh. Recovery latency is what the retry watchdog
// costs a faulted op (the high percentiles of the per-op latency
// distribution); goodput is completed ops per simulated second, and
// "retained" is that over the fault-free baseline. Exactly-once is
// asserted on the counter — a lost or doubled increment fails the run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "bench_util.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

using namespace vtopo;

namespace {

struct RatePoint {
  double rate = 0.0;
  double goodput_ops_per_sec = 0.0;
  double retained = 1.0;          ///< vs the fault-free baseline
  double median_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;            ///< worst single recovery
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t heals = 0;
  bool exactly_once = true;
};

RatePoint run_rate(double rate, bool quick) {
  sim::Engine eng;
  armci::Runtime::Config cfg;
  cfg.num_nodes = quick ? 8 : 16;
  cfg.procs_per_node = 2;
  cfg.topology = core::TopologyKind::kMfcg;
  cfg.seed = 7;
  // Tuned for a low-latency fabric: the default 2 ms watchdog is sized
  // for WAN-ish tails and would make every drop cost ~150x the median
  // op. ~8x the fault-free p99 keeps spurious retries at zero while
  // bounding recovery near the timeout.
  cfg.armci.retry_timeout = sim::us(150.0);
  cfg.armci.retry_backoff_cap = sim::us(1200.0);
  if (rate > 0.0) {
    cfg.faults = sim::FaultPlan::random(
        /*seed=*/40 + static_cast<std::uint64_t>(rate * 100),
        cfg.num_nodes, /*outages=*/1, /*crashes=*/1, /*drop_rate=*/rate,
        /*dup_rate=*/rate / 5.0, /*delay_rate=*/0.0, sim::ms(1.0));
  }
  armci::Runtime rt(eng, cfg);
  const auto off = rt.memory().alloc_all(8);
  const int ops = quick ? 12 : 40;

  sim::Series lat;
  sim::TimeNs last_done = 0;
  rt.spawn_all([&, off, ops](armci::Proc& p) -> sim::Co<void> {
    for (int i = 0; i < ops; ++i) {
      const sim::TimeNs t0 = p.runtime().engine().now();
      co_await p.fetch_add(armci::GAddr{0, off}, 1);
      const sim::TimeNs t1 = p.runtime().engine().now();
      lat.add(sim::to_us(t1 - t0));
      if (t1 > last_done) last_done = t1;
    }
  });
  rt.run_all();

  RatePoint pt;
  pt.rate = rate;
  const std::int64_t expected = rt.num_procs() * ops;
  pt.exactly_once =
      rt.memory().read_i64(armci::GAddr{0, off}) == expected;
  pt.goodput_ops_per_sec =
      static_cast<double>(expected) / sim::to_sec(last_done);
  pt.median_us = lat.median();
  pt.p99_us = lat.percentile(99);
  pt.p999_us = lat.percentile(99.9);
  pt.max_us = lat.max();
  pt.retries = rt.stats().retries;
  pt.dropped = rt.stats().msgs_dropped;
  pt.heals = rt.stats().heals;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::string out_path = args.get_string("--out", "BENCH_fault.json");

  bench::print_header("fault_bench",
                      "goodput retained and recovery latency under "
                      "injected link faults");

  const double rates[] = {0.0, 0.01, 0.05, 0.10};
  std::vector<RatePoint> points;
  for (const double r : rates) points.push_back(run_rate(r, quick));
  const double baseline = points[0].goodput_ops_per_sec;
  for (RatePoint& pt : points) {
    pt.retained = pt.goodput_ops_per_sec / baseline;
  }

  std::printf("%-8s %14s %9s %10s %10s %10s %10s %8s %8s %6s\n", "rate",
              "goodput_op_s", "retained", "median_us", "p99_us", "p999_us",
              "max_us", "retries", "dropped", "heals");
  bool all_exactly_once = true;
  for (const RatePoint& pt : points) {
    std::printf("%-8.2f %14.0f %9.3f %10.1f %10.1f %10.1f %10.1f %8llu "
                "%8llu %6llu%s\n",
                pt.rate, pt.goodput_ops_per_sec, pt.retained, pt.median_us,
                pt.p99_us, pt.p999_us, pt.max_us,
                static_cast<unsigned long long>(pt.retries),
                static_cast<unsigned long long>(pt.dropped),
                static_cast<unsigned long long>(pt.heals),
                pt.exactly_once ? "" : "  LOST-OPS");
    all_exactly_once = all_exactly_once && pt.exactly_once;
  }
  std::printf("exactly_once_all_rates %s\n", all_exactly_once ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"fetchadd_storm_mfcg\",\n"
                  "  \"rates\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RatePoint& pt = points[i];
    std::fprintf(f,
                 "    {\"rate\": %.2f, \"goodput_ops_per_sec\": %.1f, "
                 "\"retained\": %.4f, \"median_us\": %.2f, "
                 "\"p99_us\": %.2f, \"p999_us\": %.2f, \"max_us\": %.2f, "
                 "\"retries\": %llu, "
                 "\"dropped\": %llu, \"heals\": %llu, "
                 "\"exactly_once\": %s}%s\n",
                 pt.rate, pt.goodput_ops_per_sec, pt.retained, pt.median_us,
                 pt.p99_us, pt.p999_us, pt.max_us,
                 static_cast<unsigned long long>(pt.retries),
                 static_cast<unsigned long long>(pt.dropped),
                 static_cast<unsigned long long>(pt.heals),
                 pt.exactly_once ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"exactly_once_all_rates\": %s\n}\n",
               all_exactly_once ? "true" : "false");
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());
  return all_exactly_once ? 0 : 1;
}
