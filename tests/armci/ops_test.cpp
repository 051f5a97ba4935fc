// Value correctness of one-sided operations, across all virtual
// topologies: whatever the routing, data must land intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"

namespace vtopo::armci {
namespace {

using core::TopologyKind;

Runtime::Config small_config(TopologyKind kind) {
  Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 2;
  cfg.topology = kind;
  return cfg;
}

class OpsAcrossTopologies
    : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(OpsAcrossTopologies, ContiguousPutLandsRemotely) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(256);
  rt.spawn(3, [off](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> data(100);
    std::iota(data.begin(), data.end(), std::uint8_t{1});
    co_await p.put(GAddr{20, off}, data);
  });
  rt.run_all();
  std::vector<std::uint8_t> back(100);
  rt.memory().read(back, GAddr{20, off});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(back[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST_P(OpsAcrossTopologies, ContiguousGetReadsRemote) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(64);
  rt.memory().write_i64(GAddr{25, off}, 0x1122334455667788LL);
  std::int64_t got = 0;
  rt.spawn(1, [off, &got](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> buf(8);
    co_await p.get(buf, GAddr{25, off});
    std::memcpy(&got, buf.data(), 8);
  });
  rt.run_all();
  EXPECT_EQ(got, 0x1122334455667788LL);
}

TEST_P(OpsAcrossTopologies, VectoredPutScattersSegments) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(1024);
  rt.spawn(7, [off](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> a(10, 0xAA);
    std::vector<std::uint8_t> b(20, 0xBB);
    const PutSeg segs[] = {{a, off + 100}, {b, off + 500}};
    co_await p.put_v(28, segs);
  });
  rt.run_all();
  std::vector<std::uint8_t> back(20);
  rt.memory().read(back, GAddr{28, off + 100});
  EXPECT_EQ(back[0], 0xAA);
  EXPECT_EQ(back[9], 0xAA);
  EXPECT_EQ(back[10], 0x00);  // gap untouched
  rt.memory().read(back, GAddr{28, off + 500});
  EXPECT_EQ(back[0], 0xBB);
  EXPECT_EQ(back[19], 0xBB);
}

TEST_P(OpsAcrossTopologies, VectoredGetGathersSegments) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(1024);
  for (int i = 0; i < 64; ++i) {
    rt.memory().segment(30)[static_cast<std::size_t>(off + i)] =
        static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> x(8, 0);
  std::vector<std::uint8_t> y(16, 0);
  rt.spawn(2, [&, off](Proc& p) -> sim::Co<void> {
    const GetSeg segs[] = {{x, off + 8}, {y, off + 32}};
    co_await p.get_v(30, segs);
  });
  rt.run_all();
  EXPECT_EQ(x[0], 8);
  EXPECT_EQ(x[7], 15);
  EXPECT_EQ(y[0], 32);
  EXPECT_EQ(y[15], 47);
}

TEST_P(OpsAcrossTopologies, LargeVectoredPutSplitsAcrossBuffers) {
  sim::Engine eng;
  auto cfg = small_config(GetParam());
  cfg.segment_bytes = 1 << 22;
  Runtime rt(eng, cfg);
  // 100 KB >> 16 KB buffer: must split into multiple requests.
  const std::int64_t big = 100 * 1024;
  const auto off = rt.memory().alloc_all(big);
  rt.spawn(5, [off, big](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(big));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7);
    }
    const PutSeg seg{data, off};
    co_await p.put_v(31, {&seg, 1});
  });
  rt.run_all();
  EXPECT_GT(rt.stats().requests, 6u);  // split into >= 7 chunks
  std::vector<std::uint8_t> back(static_cast<std::size_t>(big));
  rt.memory().read(back, GAddr{31, off});
  for (std::size_t i = 0; i < back.size(); i += 997) {
    ASSERT_EQ(back[i], static_cast<std::uint8_t>(i * 7)) << i;
  }
}

TEST_P(OpsAcrossTopologies, LargeVectoredGetSplitsAndReassembles) {
  sim::Engine eng;
  auto cfg = small_config(GetParam());
  cfg.segment_bytes = 1 << 22;
  Runtime rt(eng, cfg);
  const std::int64_t big = 80 * 1024;
  const auto off = rt.memory().alloc_all(big);
  auto seg30 = rt.memory().segment(30);
  for (std::int64_t i = 0; i < big; ++i) {
    seg30[static_cast<std::size_t>(off + i)] =
        static_cast<std::uint8_t>(i * 13);
  }
  std::vector<std::uint8_t> dst(static_cast<std::size_t>(big), 0);
  rt.spawn(4, [&, off](Proc& p) -> sim::Co<void> {
    const GetSeg seg{dst, off};
    co_await p.get_v(30, {&seg, 1});
  });
  rt.run_all();
  for (std::size_t i = 0; i < dst.size(); i += 991) {
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i * 13)) << i;
  }
}

TEST_P(OpsAcrossTopologies, StridedPutGetRoundTrip) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(4096);
  std::vector<std::uint8_t> received(256, 0);
  rt.spawn(9, [&, off](Proc& p) -> sim::Co<void> {
    // 4 rows of 64 bytes, source stride 64, target stride 128.
    std::vector<std::uint8_t> src(256);
    std::iota(src.begin(), src.end(), std::uint8_t{0});
    co_await p.put_strided(GAddr{22, off}, 128, src.data(), 64, 64, 4);
    co_await p.get_strided(received.data(), 64, GAddr{22, off}, 128, 64,
                           4);
  });
  rt.run_all();
  for (int row = 0; row < 4; ++row) {
    for (int b = 0; b < 64; ++b) {
      ASSERT_EQ(received[static_cast<std::size_t>(row * 64 + b)],
                static_cast<std::uint8_t>(row * 64 + b));
    }
  }
  // The inter-row gaps on the target must be untouched.
  std::vector<std::uint8_t> gap(64);
  rt.memory().read(gap, GAddr{22, off + 64});
  for (const auto v : gap) EXPECT_EQ(v, 0);
}

TEST_P(OpsAcrossTopologies, AccumulateAddsAtTarget) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(8 * 8);
  for (int i = 0; i < 8; ++i) {
    rt.memory().write_f64(GAddr{17, off + i * 8}, 100.0);
  }
  rt.spawn(2, [off](Proc& p) -> sim::Co<void> {
    std::vector<double> v(8, 2.0);
    co_await p.acc_f64(GAddr{17, off}, v, 3.0);
  });
  rt.run_all();
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{17, off + i * 8}), 106.0);
  }
}

TEST_P(OpsAcrossTopologies, ConcurrentAccumulatesAllApplied) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(8);
  rt.spawn_all([off](Proc& p) -> sim::Co<void> {
    const std::vector<double> one{1.0};
    for (int i = 0; i < 4; ++i) {
      co_await p.acc_f64(GAddr{0, off}, one, 1.0);
    }
  });
  rt.run_all();
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{0, off}),
                   static_cast<double>(rt.num_procs() * 4));
}

TEST_P(OpsAcrossTopologies, IntraNodeOpsWork) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  const auto off = rt.memory().alloc_all(64);
  rt.spawn(4, [off](Proc& p) -> sim::Co<void> {
    // Target proc 5 is on the same node (2 procs per node).
    const std::vector<double> v{2.5};
    co_await p.acc_f64(GAddr{5, off}, v, 2.0);
    std::vector<std::uint8_t> data{9, 9, 9};
    co_await p.put(GAddr{5, off + 16}, data);
  });
  rt.run_all();
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{5, off}), 5.0);
  std::vector<std::uint8_t> back(3);
  rt.memory().read(back, GAddr{5, off + 16});
  EXPECT_EQ(back[2], 9);
}

TEST_P(OpsAcrossTopologies, FenceAndComputeAdvanceTime) {
  sim::Engine eng;
  Runtime rt(eng, small_config(GetParam()));
  sim::TimeNs end = 0;
  rt.spawn(0, [&](Proc& p) -> sim::Co<void> {
    co_await p.compute(sim::us(100));
    co_await p.fence();
    end = p.runtime().engine().now();
  });
  rt.run_all();
  EXPECT_GE(end, sim::us(100));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OpsAcrossTopologies,
    ::testing::Values(TopologyKind::kFcg, TopologyKind::kMfcg,
                      TopologyKind::kCfcg, TopologyKind::kHypercube),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return core::to_string(info.param);
    });

// ---------------------------------------------------------------------
// When a direct put/get on the legacy engine takes its copy of the
// bytes. Each op is issued at t = 0, so its first message leaves when
// the issue overhead ends; the times below come from replaying that
// message on a fresh twin runtime.
// ---------------------------------------------------------------------

constexpr ProcId kOrigin = 3;   // node 1
constexpr ProcId kTarget = 20;  // node 10
constexpr std::size_t kBytes = 64;

std::uint8_t first_byte(Runtime& rt, GAddr addr) {
  std::uint8_t b = 0;
  rt.memory().read({&b, 1}, addr);
  return b;
}

/// At simulated time `at`, run `fn`: a host-side write to memory the op
/// under test is moving.
sim::Co<void> at_time(Runtime* rt, sim::TimeNs at, std::function<void()> fn) {
  co_await sim::Sleep(rt->engine(), at - rt->now());
  fn();
}

/// Arrival instant of the op's first message: `payload` bytes plus the
/// RDMA header from kOrigin's node to kTarget's, on kOrigin's stream.
sim::TimeNs first_message_arrival(std::int64_t payload) {
  sim::Engine eng;
  Runtime rt(eng, small_config(TopologyKind::kFcg));
  const ArmciParams& p = rt.params();
  sim::TimeNs arrival = -1;
  rt.spawn_task(at_time(&rt, p.proc_op_overhead, [&rt, &p, &arrival, payload] {
    arrival = rt.network().send(rt.node_of(kOrigin), rt.node_of(kTarget),
                                p.rdma_header_bytes + payload,
                                rt.proc_stream(kOrigin));
  }));
  rt.run_all();
  return arrival;
}

/// Put kBytes of 0xAA, overwriting the caller's source buffer with 0xBB
/// at `rewrite_at`. Returns the first target byte and the put's
/// completion time.
std::pair<std::uint8_t, sim::TimeNs> put_with_source_rewrite(
    sim::TimeNs rewrite_at) {
  sim::Engine eng;
  Runtime rt(eng, small_config(TopologyKind::kFcg));
  const auto off = rt.memory().alloc_all(kBytes);
  std::vector<std::uint8_t> src(kBytes, 0xAA);
  sim::TimeNs done = -1;
  rt.spawn(kOrigin, [off, &src, &done](Proc& p) -> sim::Co<void> {
    co_await p.put(GAddr{kTarget, off}, src);
    done = p.runtime().now();
  });
  rt.spawn_task(at_time(&rt, rewrite_at, [&src] {
    std::fill(src.begin(), src.end(), std::uint8_t{0xBB});
  }));
  rt.run_all();
  return {first_byte(rt, GAddr{kTarget, off}), done};
}

TEST(DirectStaging, PutCopiesTheSourceWhenItStages) {
  const sim::TimeNs staged = ArmciParams{}.proc_op_overhead;
  // Rewritten before the put stages: the new bytes travel.
  EXPECT_EQ(put_with_source_rewrite(staged - 1).first, 0xBB);
  // Rewritten while the put is in flight: the staged copy travels.
  const auto [byte, done] = put_with_source_rewrite(staged + 1);
  EXPECT_EQ(byte, 0xAA);
  EXPECT_GT(done, staged + 1);
}

TEST(DirectStaging, PutBytesLandAtTheArrivalInstant) {
  const sim::TimeNs arrival = first_message_arrival(kBytes);
  sim::Engine eng;
  Runtime rt(eng, small_config(TopologyKind::kFcg));
  const auto off = rt.memory().alloc_all(kBytes);
  sim::TimeNs done = -1;
  rt.spawn(kOrigin, [off, &done](Proc& p) -> sim::Co<void> {
    const std::vector<std::uint8_t> src(kBytes, 0xAA);
    co_await p.put(GAddr{kTarget, off}, src);
    done = p.runtime().now();
  });
  std::uint8_t before = 0xFF;
  rt.spawn_task(at_time(&rt, arrival - 1, [&rt, off, &before] {
    before = first_byte(rt, GAddr{kTarget, off});
  }));
  rt.run_all();
  EXPECT_EQ(before, 0x00);
  EXPECT_EQ(first_byte(rt, GAddr{kTarget, off}), 0xAA);
  // The blocking put returns at remote completion: the arrival itself.
  EXPECT_EQ(done, arrival);
}

/// Get kBytes from a target holding 0x11, overwriting the target with
/// 0x22 at `overwrite_at`. Returns the first byte read and the get's
/// completion time.
std::pair<std::uint8_t, sim::TimeNs> get_with_target_overwrite(
    sim::TimeNs overwrite_at) {
  sim::Engine eng;
  Runtime rt(eng, small_config(TopologyKind::kFcg));
  const auto off = rt.memory().alloc_all(kBytes);
  rt.memory().write(GAddr{kTarget, off},
                    std::vector<std::uint8_t>(kBytes, 0x11));
  std::uint8_t got = 0;
  sim::TimeNs done = -1;
  rt.spawn(kOrigin, [off, &got, &done](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> dst(kBytes);
    co_await p.get(dst, GAddr{kTarget, off});
    got = dst[0];
    done = p.runtime().now();
  });
  rt.spawn_task(at_time(&rt, overwrite_at, [&rt, off] {
    rt.memory().write(GAddr{kTarget, off},
                      std::vector<std::uint8_t>(kBytes, 0x22));
  }));
  rt.run_all();
  return {got, done};
}

TEST(DirectStaging, GetReadsTheTargetAtDescriptorArrival) {
  const sim::TimeNs descriptor = first_message_arrival(0);
  // Overwritten before the descriptor arrives: the get sees it.
  EXPECT_EQ(get_with_target_overwrite(descriptor - 1).first, 0x22);
  // Overwritten after the snapshot, while the data leg is in flight:
  // the get returns the bytes as of the descriptor's arrival.
  const auto [byte, done] = get_with_target_overwrite(descriptor + 1);
  EXPECT_EQ(byte, 0x11);
  EXPECT_GT(done, descriptor + 1);
}

}  // namespace
}  // namespace vtopo::armci
