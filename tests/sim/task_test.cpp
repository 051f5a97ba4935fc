#include "sim/task.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace vtopo::sim {
namespace {

TEST(Task, SpawnRunsToCompletion) {
  Engine eng;
  bool done = false;
  std::int64_t live = 0;
  auto body = [](Engine& e, bool& flag) -> Co<void> {
    co_await Sleep(e, 100);
    flag = true;
  };
  spawn(body(eng, done), &live);
  EXPECT_EQ(live, 1);
  EXPECT_FALSE(done);
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(live, 0);
}

TEST(Task, SleepAdvancesSimTime) {
  Engine eng;
  TimeNs woke = -1;
  auto body = [](Engine& e, TimeNs& out) -> Co<void> {
    co_await Sleep(e, 250);
    co_await Sleep(e, 250);
    out = e.now();
  };
  spawn(body(eng, woke));
  eng.run();
  EXPECT_EQ(woke, 500);
}

TEST(Task, ZeroSleepDoesNotSuspend) {
  Engine eng;
  int steps = 0;
  auto body = [](Engine& e, int& s) -> Co<void> {
    co_await Sleep(e, 0);
    ++s;
    co_await Sleep(e, -5);
    ++s;
  };
  spawn(body(eng, steps));
  // Body ran to completion synchronously inside spawn.
  EXPECT_EQ(steps, 2);
  eng.run();
}

Co<int> add_later(Engine& eng, int a, int b) {
  co_await Sleep(eng, 10);
  co_return a + b;
}

TEST(Task, NestedCoroutinesReturnValues) {
  Engine eng;
  int result = 0;
  auto body = [](Engine& e, int& out) -> Co<void> {
    const int x = co_await add_later(e, 2, 3);
    const int y = co_await add_later(e, x, 10);
    out = y;
  };
  spawn(body(eng, result));
  eng.run();
  EXPECT_EQ(result, 15);
}

Co<int> deep(Engine& eng, int n) {
  if (n == 0) co_return 0;
  co_await Sleep(eng, 1);
  const int below = co_await deep(eng, n - 1);
  co_return below + 1;
}

TEST(Task, DeeplyNestedAwaitChain) {
  Engine eng;
  int result = -1;
  auto body = [](Engine& e, int& out) -> Co<void> {
    out = co_await deep(e, 200);
  };
  spawn(body(eng, result));
  eng.run();
  EXPECT_EQ(result, 200);
}

TEST(Future, SetBeforeAwaitCompletesImmediately) {
  Engine eng;
  Future<int> fut(eng);
  fut.set(42);
  EXPECT_TRUE(fut.ready());
  int got = 0;
  auto body = [](Future<int> f, int& out) -> Co<void> {
    out = co_await f;
  };
  spawn(body(fut, got));
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Future, SetAfterAwaitResumesViaEventQueue) {
  Engine eng;
  Future<int> fut(eng);
  int got = 0;
  auto body = [](Future<int> f, int& out) -> Co<void> {
    out = co_await f;
  };
  spawn(body(fut, got));
  EXPECT_EQ(got, 0);
  eng.schedule_at(500, [fut]() mutable { fut.set(7); });
  eng.run();
  EXPECT_EQ(got, 7);
}

TEST(Future, PeekDoesNotConsume) {
  Engine eng;
  Future<int> fut(eng);
  fut.set(9);
  EXPECT_EQ(fut.peek(), 9);
  EXPECT_TRUE(fut.ready());
}

TEST(Task, ManyConcurrentTasksAllFinish) {
  Engine eng;
  std::int64_t live = 0;
  int finished = 0;
  auto body = [](Engine& e, int delay, int& n) -> Co<void> {
    co_await Sleep(e, delay);
    ++n;
  };
  for (int i = 0; i < 1000; ++i) spawn(body(eng, i % 37, finished), &live);
  eng.run();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace vtopo::sim
