// Extended ARMCI surface: N-level strided transfers and the allreduce
// collective.
#include <gtest/gtest.h>

#include <vector>

#include "armci/proc.hpp"
#include "armci/runtime.hpp"

namespace vtopo::armci {
namespace {

using core::TopologyKind;

Runtime::Config mfcg16() {
  Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 2;
  cfg.topology = TopologyKind::kMfcg;
  return cfg;
}

TEST(StridedN, ThreeLevelPutReconstructsCube) {
  // A 4x3x2 "cube" of 8-byte cells: counts {8, 2, 3, 4} with distinct
  // strides on both sides.
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  const auto off = rt.memory().alloc_all(4096);
  rt.spawn(1, [off](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> src(4096);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<std::uint8_t>(i % 251);
    }
    // Local: tightly packed 2 x 3 x 4 of 8-byte blocks.
    const std::int64_t src_strides[] = {8, 16, 48};
    // Remote: padded strides 16 / 64 / 256.
    const std::int64_t dst_strides[] = {16, 64, 256};
    const std::int64_t counts[] = {8, 2, 3, 4};
    co_await p.put_strided_n(GAddr{20, off}, dst_strides, src.data(),
                             src_strides, counts);
  });
  rt.run_all();
  // Verify every block landed at base + i2*16 + i1*64 + i0*256... note
  // level order: strides[0] is the innermost repetition.
  std::vector<std::uint8_t> cell(8);
  for (int l2 = 0; l2 < 4; ++l2) {
    for (int l1 = 0; l1 < 3; ++l1) {
      for (int l0 = 0; l0 < 2; ++l0) {
        const std::int64_t remote = l0 * 16 + l1 * 64 + l2 * 256;
        const std::int64_t local = l0 * 8 + l1 * 16 + l2 * 48;
        rt.memory().read(cell, GAddr{20, off + remote});
        for (int b = 0; b < 8; ++b) {
          ASSERT_EQ(cell[static_cast<std::size_t>(b)],
                    static_cast<std::uint8_t>((local + b) % 251))
              << l0 << "," << l1 << "," << l2;
        }
      }
    }
  }
}

TEST(StridedN, GetInverseOfPut) {
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  const auto off = rt.memory().alloc_all(4096);
  std::vector<std::uint8_t> back(512, 0);
  rt.spawn(4, [&, off](Proc& p) -> sim::Co<void> {
    std::vector<std::uint8_t> src(512);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<std::uint8_t>(i);
    }
    const std::int64_t strides_packed[] = {32, 128};
    const std::int64_t strides_remote[] = {64, 512};
    const std::int64_t counts[] = {32, 4, 4};
    co_await p.put_strided_n(GAddr{21, off}, strides_remote, src.data(),
                             strides_packed, counts);
    co_await p.get_strided_n(back.data(), strides_packed, GAddr{21, off},
                             strides_remote, counts);
  });
  rt.run_all();
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], static_cast<std::uint8_t>(i)) << i;
  }
}

TEST(StridedN, StridedAccumulate) {
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  const auto off = rt.memory().alloc_all(1024);
  rt.spawn_all([off](Proc& p) -> sim::Co<void> {
    const std::vector<double> vals(8, 1.0);  // 2 rows of 4 doubles
    const std::int64_t src_strides[] = {32};
    const std::int64_t dst_strides[] = {64};
    const std::int64_t counts[] = {32, 2};
    co_await p.acc_strided_f64(GAddr{7, off}, dst_strides, vals.data(),
                               src_strides, counts, 1.0);
  });
  rt.run_all();
  const auto n = static_cast<double>(rt.num_procs());
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{7, off}), n);
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{7, off + 24}), n);
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{7, off + 64}), n);
  // The stride gap is untouched.
  EXPECT_DOUBLE_EQ(rt.memory().read_f64(GAddr{7, off + 40}), 0.0);
}

TEST(Allreduce, SumsAcrossAllProcs) {
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  std::vector<double> results(static_cast<std::size_t>(rt.num_procs()));
  rt.spawn_all([&results](Proc& p) -> sim::Co<void> {
    const double total = co_await p.runtime().allreduce_sum(
        static_cast<double>(p.id() + 1));
    results[static_cast<std::size_t>(p.id())] = total;
  });
  rt.run_all();
  const auto n = rt.num_procs();
  const double expect = static_cast<double>(n * (n + 1) / 2);
  for (const double r : results) EXPECT_DOUBLE_EQ(r, expect);
}

TEST(Allreduce, ReusableAcrossRounds) {
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  double final_sum = 0;
  rt.spawn_all([&final_sum](Proc& p) -> sim::Co<void> {
    double acc = 1.0;
    for (int round = 0; round < 3; ++round) {
      acc = co_await p.runtime().allreduce_sum(acc) /
            static_cast<double>(p.runtime().num_procs());
    }
    if (p.id() == 0) final_sum = acc;
  });
  rt.run_all();
  EXPECT_DOUBLE_EQ(final_sum, 1.0);  // mean of equal values stays 1
}

TEST(Allreduce, AdvancesSimulatedTime) {
  sim::Engine eng;
  Runtime rt(eng, mfcg16());
  sim::TimeNs t_end = 0;
  rt.spawn_all([&t_end](Proc& p) -> sim::Co<void> {
    co_await p.runtime().allreduce_sum(1.0);
    t_end = p.runtime().engine().now();
  });
  rt.run_all();
  EXPECT_GT(t_end, 0);
}

}  // namespace
}  // namespace vtopo::armci
