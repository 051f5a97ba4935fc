// Invariants of the request recycling pool: a released request is
// recycled (scrubbed, capacity kept), a live request is never handed out
// twice, and refcounts round-trip through copies, moves, and
// self-assignment.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "armci/request.hpp"
#include "sim/engine.hpp"

namespace vtopo::armci {
namespace {

TEST(RequestPool, RecyclesAfterLastRelease) {
  RequestPool pool;
  Request* raw;
  {
    RequestPtr r = pool.acquire();
    raw = r.get();
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.parked(), 0u);
  }
  EXPECT_EQ(pool.parked(), 1u);
  RequestPtr again = pool.acquire();
  EXPECT_EQ(again.get(), raw) << "parked request must be reused";
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.parked(), 0u);
}

TEST(RequestPool, LiveObjectIsNeverReissued) {
  RequestPool pool;
  RequestPtr a = pool.acquire();
  RequestPtr b = pool.acquire();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.created(), 2u);
  // Holding a copy keeps the request live across another handle's death.
  RequestPtr a2 = a;
  a.reset();
  EXPECT_EQ(pool.parked(), 0u);
  RequestPtr c = pool.acquire();
  EXPECT_NE(c.get(), a2.get());
}

TEST(RequestPool, RecycleScrubsFieldsButKeepsCapacity) {
  RequestPool pool;
  Request* raw;
  std::size_t segs_cap;
  std::size_t data_cap;
  {
    RequestPtr r = pool.acquire();
    raw = r.get();
    r->id = 99;
    r->op = OpCode::kLock;
    r->origin_proc = 7;
    r->target_node = 3;
    r->hop_credit_taken = true;
    r->forwards = 2;
    r->imm = -5;
    r->mutex_id = 11;
    r->segs.assign(8, VecSeg{64, 32});
    r->data.assign(4096, 0xab);
    segs_cap = r->segs.capacity();
    data_cap = r->data.capacity();
  }
  RequestPtr r = pool.acquire();
  ASSERT_EQ(r.get(), raw);
  EXPECT_EQ(r->id, 0u);
  EXPECT_EQ(r->op, OpCode::kFetchAdd);
  EXPECT_EQ(r->origin_proc, 0);
  EXPECT_EQ(r->target_node, 0);
  EXPECT_FALSE(r->hop_credit_taken);
  EXPECT_EQ(r->forwards, 0);
  EXPECT_EQ(r->imm, 0);
  EXPECT_EQ(r->mutex_id, 0);
  EXPECT_TRUE(r->segs.empty());
  EXPECT_TRUE(r->data.empty());
  EXPECT_FALSE(r->response_future.has_value());
  EXPECT_GE(r->segs.capacity(), segs_cap);
  EXPECT_GE(r->data.capacity(), data_cap);
}

TEST(RequestPool, RefcountSurvivesCopyMoveAndSelfAssign) {
  RequestPool pool;
  RequestPtr a = pool.acquire();
  Request* raw = a.get();
  RequestPtr b = a;              // copy
  RequestPtr c = std::move(a);   // move: a empty, count unchanged
  EXPECT_FALSE(a);               // NOLINT(bugprone-use-after-move)
  RequestPtr& bref = b;          // aliases dodge self-assign warnings
  b = bref;
  RequestPtr& cref = c;
  c = std::move(cref);
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(c.get(), raw);
  b.reset();
  EXPECT_EQ(pool.parked(), 0u) << "c still holds a reference";
  c.reset();
  EXPECT_EQ(pool.parked(), 1u);
}

TEST(RequestPool, SteadyStateChurnAllocatesNothingNew) {
  RequestPool pool;
  for (int i = 0; i < 4; ++i) (void)pool.acquire();  // warm up, depth 1
  const std::uint64_t created = pool.created();
  for (int i = 0; i < 1000; ++i) {
    RequestPtr r = pool.acquire();
    r->data.resize(512);
  }
  EXPECT_EQ(pool.created(), created);
  EXPECT_GE(pool.reused(), 1000u);
}

}  // namespace
}  // namespace vtopo::armci
