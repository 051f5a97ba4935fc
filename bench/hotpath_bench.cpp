// Hot-path throughput measurement: events/sec through the engine,
// messages/sec through Network::send, and wall-clock for a Figure-7
// style contention run. Writes BENCH_hotpath.json so later PRs have a
// perf trajectory to regress against.
//
// The binary embeds a replica of the pre-overhaul engine (binary
// std::priority_queue over events carrying std::function payloads) and
// measures it alongside the current engine, so the speedup is computed
// in one process on the same machine rather than across checkouts.
//
// vtopo-lint: allow-file(nondeterminism) -- wall-clock throughput timing only; never feeds simulated results
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "armci/backend_threads.hpp"
#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "workloads/contention.hpp"

namespace {

using vtopo::sim::TimeNs;

/// Pre-overhaul engine, verbatim from the seed tree (trimmed to the
/// members the benchmark exercises).
class LegacyEngine {
 public:
  [[nodiscard]] TimeNs now() const { return now_; }

  void schedule_at(TimeNs t, std::function<void()> fn) {
    assert(t >= now_ && "cannot schedule into the simulated past");
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  void schedule_after(TimeNs delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  TimeNs run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.time;
      ev.fn();
    }
    return now_;
  }

 private:
  struct Event {
    TimeNs time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The measured event mix mirrors what the simulator actually generates:
// timed events (network arrivals, sleeps) interleaved with zero-delay
// hand-offs (coroutine resumptions — every CHT queue wake-up and Future
// fulfilment schedules at the current time).
// Each timer firing spawns a two-deep resume chain and reschedules
// itself, so two thirds of the executed events are same-time hand-offs.
// Captures are three words, the size of a typical event callback.

template <class EngineT>
struct HandOff {
  EngineT* eng;
  std::int64_t* remaining;
  std::int64_t chain;
  void operator()() const {
    if (--*remaining <= 0) return;
    if (chain > 1) eng->schedule_after(0, HandOff{eng, remaining, chain - 1});
  }
};

template <class EngineT>
struct Timer {
  EngineT* eng;
  std::int64_t* remaining;
  TimeNs delay;
  void operator()() const {
    if (--*remaining <= 0) return;
    eng->schedule_after(0, HandOff<EngineT>{eng, remaining, 2});
    eng->schedule_after(delay, *this);
  }
};

/// Events/sec at a steady-state pending-timer population of `timers`.
template <class EngineT>
double measure_events_per_sec(std::int64_t total_events, int timers) {
  EngineT eng;
  std::int64_t remaining = total_events;
  for (int i = 0; i < timers; ++i) {
    // Co-prime-ish delays keep the heap genuinely unordered.
    const auto delay = static_cast<TimeNs>(1 + (i * 2654435761u) % 97);
    eng.schedule_after(delay, Timer<EngineT>{&eng, &remaining, delay});
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  return static_cast<double>(total_events) / seconds_since(start);
}

double measure_msgs_per_sec(std::int64_t total_msgs) {
  vtopo::sim::Engine eng;
  vtopo::net::Network net(eng, 256);
  vtopo::sim::Rng rng(7);
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < total_msgs; ++i) {
    const auto s = static_cast<vtopo::core::NodeId>(rng.uniform(256));
    const auto d = static_cast<vtopo::core::NodeId>(rng.uniform(256));
    net.send(s, d, 1024, s);
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(total_msgs) / elapsed;
}

/// Runtime-path section: full ARMCI fetch-&-add round trips (request
/// pool, coroutine frames, credit probe, CHT service, response future)
/// on a 16-node MFCG cluster, with the pool counters that show the path
/// running allocation-free once warm.
struct RuntimePath {
  double ops_per_sec = 0;
  double request_reuse_frac = 0;
  double frame_reuse_frac = 0;
};

RuntimePath measure_runtime_path(std::int64_t total_ops) {
  vtopo::sim::Engine eng;
  vtopo::armci::Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 4;
  cfg.topology = vtopo::core::TopologyKind::kMfcg;
  vtopo::armci::Runtime rt(eng, cfg);
  const auto off = rt.memory().alloc_all(8);
  const int per_proc = static_cast<int>(total_ops / rt.num_procs());
  const std::uint64_t fc0 = vtopo::sim::FramePool::created();
  const std::uint64_t fr0 = vtopo::sim::FramePool::reused();
  const auto start = std::chrono::steady_clock::now();
  rt.spawn_all([off, per_proc](vtopo::armci::Proc& p)
                   -> vtopo::sim::Co<void> {
    for (int k = 0; k < per_proc; ++k) {
      co_await p.fetch_add(vtopo::armci::GAddr{0, off}, 1);
    }
  });
  rt.run_all();
  RuntimePath r;
  r.ops_per_sec = static_cast<double>(per_proc * rt.num_procs()) /
                  seconds_since(start);
  const double req_created =
      static_cast<double>(rt.request_pool().created());
  const double req_reused = static_cast<double>(rt.request_pool().reused());
  r.request_reuse_frac = req_reused / std::max(1.0, req_created + req_reused);
  const double fc = static_cast<double>(vtopo::sim::FramePool::created() - fc0);
  const double fr = static_cast<double>(vtopo::sim::FramePool::reused() - fr0);
  r.frame_reuse_frac = fr / std::max(1.0, fc + fr);
  return r;
}

/// Same flood on the self-hosted sharded runtime: ops/sec through the
/// windowed schedule plus the per-shard memory high-waters. On a host
/// with fewer cores than shards the ratio against the legacy number is
/// the cost of the window machinery, not a speedup measurement.
struct ShardedPath {
  double ops_per_sec = 0;
  std::vector<vtopo::armci::ShardMemStats> shard_mem;
};

ShardedPath measure_sharded_path(std::int64_t total_ops, int shards,
                                 bool force_threads) {
  vtopo::armci::Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 4;
  cfg.topology = vtopo::core::TopologyKind::kMfcg;
  cfg.shards = shards;
  // --shard-threads pins one host thread per shard even on small hosts:
  // the TSan battery drives the real barrier/mailbox protocol this way.
  cfg.thread_mode = force_threads ? vtopo::sim::ThreadMode::kThreads
                                  : vtopo::sim::ThreadMode::kAuto;
  vtopo::armci::Runtime rt(cfg);
  const auto off = rt.memory().alloc_all(8);
  const int per_proc = static_cast<int>(total_ops / rt.num_procs());
  const auto start = std::chrono::steady_clock::now();
  rt.spawn_all([off, per_proc](vtopo::armci::Proc& p)
                   -> vtopo::sim::Co<void> {
    for (int k = 0; k < per_proc; ++k) {
      co_await p.fetch_add(vtopo::armci::GAddr{0, off}, 1);
    }
  });
  rt.run_all();
  ShardedPath r;
  r.ops_per_sec = static_cast<double>(per_proc * rt.num_procs()) /
                  seconds_since(start);
  r.shard_mem = rt.stats().shard_mem;
  return r;
}

/// Threads-backend section: the same fetch-&-add flood on the real
/// std::thread transport (one worker per node, real shared-memory
/// copies). Its 17 workers oversubscribe a host with fewer cores, where
/// every worker parks instead of spinning. Latency here is wall-clock
/// end-to-end per op, collected per process and summarized with
/// sim::Series — these are REAL nanoseconds, not
/// simulated ones, so they are host-dependent and not comparable to the
/// sim sections above (see docs/performance.md).
struct ThreadsPath {
  std::int64_t nodes = 0;
  std::int64_t procs = 0;
  std::int64_t ops = 0;
  double wall_sec = 0;
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
  double max_ns = 0;
};

ThreadsPath measure_threads_path(std::int64_t total_ops) {
  vtopo::armci::Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 4;
  cfg.topology = vtopo::core::TopologyKind::kMfcg;
  cfg.backend = vtopo::armci::Backend::kThreads;
  vtopo::armci::Runtime rt(cfg);
  const auto off = rt.memory().alloc_all(8);
  const int per_proc = static_cast<int>(total_ops / rt.num_procs());
  // Per-proc latency slots: each worker writes only its own vector, the
  // driver reads them after run_all()'s join.
  auto lat = std::make_shared<std::vector<std::vector<double>>>(
      static_cast<std::size_t>(rt.num_procs()));
  const auto start = std::chrono::steady_clock::now();
  rt.spawn_all([off, per_proc, lat](vtopo::armci::Proc& p)
                   -> vtopo::sim::Co<void> {
    (*lat)[static_cast<std::size_t>(p.id())].reserve(
        static_cast<std::size_t>(per_proc));
    for (int k = 0; k < per_proc; ++k) {
      const auto t0 = std::chrono::steady_clock::now();
      co_await p.fetch_add(vtopo::armci::GAddr{0, off}, 1);
      (*lat)[static_cast<std::size_t>(p.id())].push_back(
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  });
  rt.run_all();
  ThreadsPath r;
  r.nodes = rt.num_nodes();
  r.procs = rt.num_procs();
  r.ops = static_cast<std::int64_t>(per_proc) * rt.num_procs();
  r.wall_sec = seconds_since(start);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_sec;
  vtopo::sim::Series all;
  for (const auto& v : *lat) {
    for (const double ns : v) all.add(ns);
  }
  r.p50_ns = all.median();
  r.p99_ns = all.percentile(99);
  r.p999_ns = all.percentile(99.9);
  r.max_ns = all.max();
  return r;
}

double measure_fig7_wallclock_ms(bool quick) {
  vtopo::work::ClusterConfig cluster;
  cluster.num_nodes = quick ? 16 : 64;
  cluster.procs_per_node = 4;
  cluster.topology = vtopo::core::TopologyKind::kMfcg;
  vtopo::work::ContentionConfig cfg;
  cfg.op = vtopo::work::ContentionConfig::Op::kFetchAdd;
  cfg.iterations = quick ? 1 : 5;
  cfg.contender_stride = 9;
  const auto start = std::chrono::steady_clock::now();
  const auto res = vtopo::work::run_contention(cluster, cfg);
  const double ms = seconds_since(start) * 1e3;
  if (res.op_time_us.empty()) std::fprintf(stderr, "empty fig7 result\n");
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const vtopo::bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::int64_t events =
      args.get_int("--events", quick ? 400'000 : 8'000'000);
  const std::int64_t msgs = args.get_int("--msgs", quick ? 100'000 : 2'000'000);
  const int timers = static_cast<int>(args.get_int("--timers", 256));
  const std::string out_path =
      args.get_string("--out", "BENCH_hotpath.json");

  vtopo::bench::print_header("hotpath_bench",
                             "simulator hot-path throughput");

  const double legacy_eps =
      measure_events_per_sec<LegacyEngine>(events, timers);
  const double eps =
      measure_events_per_sec<vtopo::sim::Engine>(events, timers);
  const double mps = measure_msgs_per_sec(msgs);
  const std::int64_t path_ops =
      args.get_int("--path-ops", quick ? 6'400 : 64'000);
  const int shards = static_cast<int>(args.get_int("--shards", 4));
  const bool shard_threads = args.has("--shard-threads");
  const RuntimePath path = measure_runtime_path(path_ops);
  const ShardedPath spath =
      measure_sharded_path(path_ops, shards, shard_threads);
  const ThreadsPath tpath = measure_threads_path(path_ops);
  const int host_cores = vtopo::armci::host_cores();
  const double fig7_ms = measure_fig7_wallclock_ms(quick);

  std::printf("events_per_sec        %.3e\n", eps);
  std::printf("legacy_events_per_sec %.3e\n", legacy_eps);
  std::printf("engine_speedup        %.2fx\n", eps / legacy_eps);
  std::printf("msgs_per_sec          %.3e\n", mps);
  std::printf("fetchadd_ops_per_sec  %.3e\n", path.ops_per_sec);
  std::printf("sharded_ops_per_sec   %.3e (%d shards)\n", spath.ops_per_sec,
              shards);
  for (std::size_t s = 0; s < spath.shard_mem.size(); ++s) {
    const auto& m = spath.shard_mem[s];
    std::printf(
        "#   shard %zu: heap_slots=%zu heap_peak=%zu mailbox_peak=%zu "
        "pool_created=%llu events=%llu\n",
        s, m.heap_slots, m.heap_peak, m.mailbox_peak,
        static_cast<unsigned long long>(m.pool_created),
        static_cast<unsigned long long>(m.events));
  }
  std::printf("threads_ops_per_sec   %.3e (%lld nodes, %d host cores, "
              "real wall-clock)\n",
              tpath.ops_per_sec, static_cast<long long>(tpath.nodes),
              host_cores);
  std::printf(
      "threads_latency_ns    p50=%.0f p99=%.0f p999=%.0f max=%.0f\n",
      tpath.p50_ns, tpath.p99_ns, tpath.p999_ns, tpath.max_ns);
  std::printf("request_reuse_frac    %.4f\n", path.request_reuse_frac);
  std::printf("frame_reuse_frac      %.4f\n", path.frame_reuse_frac);
  std::printf("fig7_wallclock_ms     %.1f\n", fig7_ms);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"msgs_per_sec\": %.1f,\n"
               "  \"fig7_wallclock_ms\": %.3f,\n"
               "  \"legacy_events_per_sec\": %.1f,\n"
               "  \"engine_speedup\": %.3f,\n"
               "  \"fetchadd_ops_per_sec\": %.1f,\n"
               "  \"sharded_ops_per_sec\": %.1f,\n"
               "  \"sharded_shards\": %d,\n"
               "  \"request_reuse_frac\": %.4f,\n"
               "  \"frame_reuse_frac\": %.4f\n"
               "}\n",
               eps, mps, fig7_ms, legacy_eps, eps / legacy_eps,
               path.ops_per_sec, spath.ops_per_sec, shards,
               path.request_reuse_frac, path.frame_reuse_frac);
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());

  const std::string realtime_path =
      args.get_string("--realtime-out", "BENCH_realtime.json");
  std::FILE* rf = std::fopen(realtime_path.c_str(), "w");
  if (rf == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", realtime_path.c_str());
    return 1;
  }
  std::fprintf(rf,
               "{\n"
               "  \"backend\": \"threads\",\n"
               "  \"workload\": \"fetchadd_flood\",\n"
               "  \"host_cores\": %d,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"nodes\": %lld,\n"
               "  \"procs\": %lld,\n"
               "  \"ops\": %lld,\n"
               "  \"wall_sec\": %.6f,\n"
               "  \"ops_per_sec\": %.1f,\n"
               "  \"latency_ns\": {\"p50\": %.0f, \"p99\": %.0f, "
               "\"p999\": %.0f, \"max\": %.0f},\n"
               "  \"note\": \"real wall-clock nanoseconds on the "
               "std::thread backend; host-dependent, not comparable to "
               "simulated-ns sections\"\n"
               "}\n",
               host_cores, VTOPO_BUILD_TYPE,
               static_cast<long long>(tpath.nodes),
               static_cast<long long>(tpath.procs),
               static_cast<long long>(tpath.ops), tpath.wall_sec,
               tpath.ops_per_sec, tpath.p50_ns, tpath.p99_ns, tpath.p999_ns,
               tpath.max_ns);
  std::fclose(rf);
  std::printf("# wrote %s\n", realtime_path.c_str());
  return 0;
}
