// google-benchmark microbenchmarks for the hot primitives: LDF next-hop
// and route computation, event-engine throughput, torus routing, and
// the NIC stream table.
#include <benchmark/benchmark.h>

#include "core/dependency_graph.hpp"
#include "core/topology.hpp"
#include "net/network.hpp"
#include "net/stream_lru.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sweep.hpp"

using namespace vtopo;

static void BM_LdfNextHop(benchmark::State& state) {
  const auto topo = core::VirtualTopology::make(
      core::TopologyKind::kMfcg, state.range(0));
  sim::Rng rng(1);
  const auto n = static_cast<std::uint64_t>(topo.num_nodes());
  for (auto _ : state) {
    const auto s = static_cast<core::NodeId>(rng.uniform(n));
    const auto t = static_cast<core::NodeId>(rng.uniform(n));
    if (s == t) continue;
    benchmark::DoNotOptimize(topo.next_hop(s, t));
  }
}
BENCHMARK(BM_LdfNextHop)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_LdfRoute(benchmark::State& state) {
  const auto topo = core::VirtualTopology::make(
      core::TopologyKind::kCfcg, state.range(0));
  sim::Rng rng(2);
  const auto n = static_cast<std::uint64_t>(topo.num_nodes());
  for (auto _ : state) {
    const auto s = static_cast<core::NodeId>(rng.uniform(n));
    const auto t = static_cast<core::NodeId>(rng.uniform(n));
    if (s == t) continue;
    benchmark::DoNotOptimize(topo.route(s, t));
  }
}
BENCHMARK(BM_LdfRoute)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_HypercubeRoute(benchmark::State& state) {
  const auto topo = core::VirtualTopology::make(
      core::TopologyKind::kHypercube, state.range(0));
  sim::Rng rng(3);
  const auto n = static_cast<std::uint64_t>(topo.num_nodes());
  for (auto _ : state) {
    const auto s = static_cast<core::NodeId>(rng.uniform(n));
    const auto t = static_cast<core::NodeId>(rng.uniform(n));
    if (s == t) continue;
    benchmark::DoNotOptimize(topo.route(s, t));
  }
}
BENCHMARK(BM_HypercubeRoute)->Arg(1024)->Arg(4096);

static void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(i, [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_executed());
  }
}
BENCHMARK(BM_EngineScheduleRun);

static void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    auto body = [](sim::Engine& e) -> sim::Co<void> {
      for (int i = 0; i < 500; ++i) co_await sim::Sleep(e, 1);
    };
    sim::spawn(body(eng));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
}
BENCHMARK(BM_CoroutinePingPong);

static void BM_TorusRouteLinks(benchmark::State& state) {
  const net::TorusGeometry torus(state.range(0));
  sim::Rng rng(4);
  const auto n = static_cast<std::uint64_t>(torus.num_slots());
  for (auto _ : state) {
    const auto a = static_cast<std::int64_t>(rng.uniform(n));
    const auto b = static_cast<std::int64_t>(rng.uniform(n));
    benchmark::DoNotOptimize(torus.route_links(a, b));
  }
}
BENCHMARK(BM_TorusRouteLinks)->Arg(256)->Arg(4096);

static void BM_TorusForEachRouteLink(benchmark::State& state) {
  const net::TorusGeometry torus(state.range(0));
  sim::Rng rng(4);
  const auto n = static_cast<std::uint64_t>(torus.num_slots());
  for (auto _ : state) {
    const auto a = static_cast<std::int64_t>(rng.uniform(n));
    const auto b = static_cast<std::int64_t>(rng.uniform(n));
    net::LinkId acc = 0;
    torus.for_each_route_link(a, b, [&acc](net::LinkId l) { acc ^= l; });
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TorusForEachRouteLink)->Arg(256)->Arg(4096);

static void BM_InlineFnScheduleRun(benchmark::State& state) {
  // Same shape as BM_EngineScheduleRun but with a capture that fills the
  // inline buffer, stressing the SBO path rather than empty lambdas.
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  for (auto _ : state) {
    sim::Engine eng;
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) {
      Payload p{static_cast<std::uint64_t>(i), 1, 2, 3};
      eng.schedule_at(i, [p, &sink] { sink += p.a + p.b + p.c + p.d; });
    }
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_InlineFnScheduleRun);

static void BM_StreamLruTouch(benchmark::State& state) {
  net::StreamLru lru;
  lru.set_capacity(128);
  sim::Rng rng(6);
  // Twice the capacity of distinct streams => steady-state evictions.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lru.touch(static_cast<std::int64_t>(rng.uniform(256))));
  }
}
BENCHMARK(BM_StreamLruTouch);

static void BM_ParallelSweep(benchmark::State& state) {
  // End-to-end harness cost: 16 independent mini-engines per sweep.
  const auto jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto out = bench::run_sweep(16, jobs, [](std::size_t i) {
      sim::Engine eng;
      for (int e = 0; e < 200; ++e) {
        eng.schedule_at(static_cast<sim::TimeNs>(e + i), [] {});
      }
      return eng.run();
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(4);

static void BM_NetworkSend(benchmark::State& state) {
  sim::Engine eng;
  net::Network net(eng, 256);
  sim::Rng rng(5);
  for (auto _ : state) {
    const auto s = static_cast<core::NodeId>(rng.uniform(256));
    const auto d = static_cast<core::NodeId>(rng.uniform(256));
    benchmark::DoNotOptimize(net.send(s, d, 1024, s));
  }
}
BENCHMARK(BM_NetworkSend);

static void BM_DependencyGraphBuild(benchmark::State& state) {
  const auto topo = core::VirtualTopology::make(
      core::TopologyKind::kMfcg, state.range(0));
  for (auto _ : state) {
    const core::DependencyGraph g(topo);
    benchmark::DoNotOptimize(g.acyclic());
  }
}
BENCHMARK(BM_DependencyGraphBuild)->Arg(64)->Arg(144);

BENCHMARK_MAIN();
