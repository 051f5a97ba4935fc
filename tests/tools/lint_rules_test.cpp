// Seeded-violation fixtures for vtopo-lint: each rule must fire on a
// minimal offending snippet, stay quiet on the idiomatic safe variant,
// and honor the allow()/allow-file() escape hatches. The fixtures drive
// the Linter library directly with in-memory files, so the expected
// file:line of every diagnostic is exact.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace vtopo::lint {
namespace {

std::vector<Diagnostic> lint_one(const std::string& path,
                                 const std::string& code) {
  Linter linter;
  linter.add_file(path, code);
  return linter.run();
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

TEST(LintD1, FiresOnRandomDevice) {
  const auto diags = lint_one("src/sim/engine.cpp",
                              "#include <random>\n"
                              "int seed() { std::random_device rd; "
                              "return (int)rd(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintD1, FiresOnWallClocksRandAndGetenv) {
  const auto diags = lint_one(
      "src/net/network.cpp",
      "#include <chrono>\n"
      "auto a() { return std::chrono::system_clock::now(); }\n"
      "auto b() { return std::chrono::steady_clock::now(); }\n"
      "int c() { return rand(); }\n"
      "const char* d() { return getenv(\"VTOPO_SEED\"); }\n"
      "long e() { return time(nullptr); }\n");
  EXPECT_EQ(diags.size(), 5u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "D1");
}

TEST(LintD1, ExemptInsideRngModule) {
  const auto diags = lint_one("src/sim/rng.cpp",
                              "#include <random>\n"
                              "unsigned s() { std::random_device rd; "
                              "return rd(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintD1, NotFooledByCommentsOrStrings) {
  const auto diags = lint_one(
      "src/a.cpp",
      "// std::random_device in a comment is fine\n"
      "const char* s = \"rand() inside a string literal\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintD2, FiresOnRangeForOverUnorderedMap) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;\n"
      "int sum() { int s = 0; for (const auto& [k, v] : table) s += v;"
      " return s; }\n");
  ASSERT_TRUE(has_rule(diags, "D2"));
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintD2, FiresOnBeginIteratorLoop) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include <unordered_set>\n"
      "std::unordered_set<long> seen;\n"
      "void f() { for (auto it = seen.begin(); it != seen.end(); ++it) {} }\n");
  EXPECT_TRUE(has_rule(diags, "D2"));
}

TEST(LintD2, TracksDeclarationAcrossFiles) {
  // Member declared unordered in the header, iterated in the .cpp.
  Linter linter;
  linter.add_file("src/x/t.hpp",
                  "#include <unordered_map>\n"
                  "struct T { std::unordered_map<int, int> index_; };\n");
  linter.add_file("src/x/t.cpp",
                  "#include \"t.hpp\"\n"
                  "int f(T& t) { int s = 0;\n"
                  "for (auto& [k, v] : t.index_) s += v;\n"
                  "return s; }\n");
  const auto diags = linter.run();
  ASSERT_TRUE(has_rule(diags, "D2"));
  EXPECT_EQ(diags[0].file, "src/x/t.cpp");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintD2, LookupWithoutIterationIsClean) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;\n"
      "bool has(int k) { return table.find(k) != table.end(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintD2, AnnotationSuppresses) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;\n"
      "// vtopo-lint: allow(unordered-iter) -- order folded through a "
      "commutative sum\n"
      "int sum() { int s = 0; for (const auto& [k, v] : table) s += v;"
      " return s; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintD3, FiresOnPointerKeyedOrdering) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include <set>\n"
      "struct Node;\n"
      "std::set<Node*> live;\n"
      "std::less<const Node*> cmp;\n");
  EXPECT_EQ(diags.size(), 2u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "D3");
}

TEST(LintD3, ValueKeyedOrderingIsClean) {
  const auto diags = lint_one("src/a.cpp",
                              "#include <set>\n"
                              "std::set<int> ids;\n"
                              "std::map<long, int> ranks;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC1, FiresOnConstRefCoroutineParam) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include \"sim/task.hpp\"\n"
      "struct Cfg { int n; };\n"
      "sim::Co<void> run(const Cfg& cfg);\n"
      "sim::Co<void> run(const Cfg& cfg) { co_return; }\n");
  EXPECT_EQ(diags.size(), 2u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "C1");
}

TEST(LintC1, FiresOnRvalueRefAndDetached) {
  const auto diags = lint_one(
      "src/a.cpp",
      "sim::Co<int> eat(std::string&& s) { co_return 0; }\n"
      "Detached watch(const Config& c) { co_return; }\n");
  EXPECT_EQ(diags.size(), 2u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "C1");
}

TEST(LintC1, MutableLvalueRefIsClean) {
  // Proc& / Engine& style parameters reference long-lived actors; only
  // const-ref (binds temporaries) and rvalue-ref are hazards.
  const auto diags = lint_one(
      "src/a.cpp",
      "sim::Co<void> body(armci::Proc& p, std::int64_t n) { co_return; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC1, StoredRefCapturingCoroutineLambdaIsClean) {
  // A named closure (or one Runtime::spawn* keeps in programs_) outlives
  // the frames it starts; by-ref captures alone are no hazard.
  const auto diags = lint_one(
      "src/a.cpp",
      "sim::Co<void> f(armci::Runtime& rt) {\n"
      "  int x = 0;\n"
      "  auto t = [&](int k) -> sim::Co<void> { x += k; co_return; };\n"
      "  co_await t(1);\n"
      "  rt.spawn_all([&](armci::Proc& p) -> sim::Co<void> {\n"
      "    co_await p.barrier();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC1, FiresOnCapturingCoroutineLambdaInvokedInPlace) {
  // The closure is a temporary: it dies at the end of the full-expression
  // while the frame it started is still parked in the engine.
  const auto diags = lint_one(
      "src/a.cpp",
      "void f(armci::Runtime& rt, armci::Proc* self, int target) {\n"
      "  int x = 0;\n"
      "  rt.spawn_task([&]() -> sim::Co<void> { x += 1; co_return; }());\n"
      "  rt.spawn_task([self, target, v = std::vector<int>(4, 0)]() mutable\n"
      "                    -> sim::Co<void> {\n"
      "    co_await self->scatter(target, std::move(v));\n"
      "  }());\n"
      "}\n");
  ASSERT_EQ(diags.size(), 2u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "C1");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[1].line, 4);
}

TEST(LintC1, CapturelessLambdaInvokedInPlaceIsClean) {
  // No captures, no closure state: the frame copies its parameters.
  const auto diags = lint_one(
      "src/a.cpp",
      "void f(armci::Runtime& rt, armci::Proc* self) {\n"
      "  rt.spawn_task([](armci::Proc* p) -> sim::Co<void> {\n"
      "    co_await p->barrier();\n"
      "  }(self));\n"
      "  const int n = [&] { return self->id(); }();\n"
      "  (void)n;\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC1, ValueCapturingCoroutineLambdaIsClean) {
  const auto diags = lint_one(
      "src/a.cpp",
      "void f() {\n"
      "  int x = 0;\n"
      "  auto t = [x](int k) -> sim::Co<void> { co_return; };\n"
      "  auto plain = [&] { return x; };\n"  // not a coroutine
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintS1, FiresOnDirectFacadeSchedule) {
  const auto diags = lint_one(
      "src/armci/handoff.cpp",
      "#include \"sim/sharded_engine.hpp\"\n"
      "void f(sim::ShardedEngine& sh, int node, sim::Time t) {\n"
      "  sh.engine_for_node(node).schedule_at(t, [] {});\n"
      "  sh.shard_engine(0).schedule_after(t, [] {});\n"
      "  sh.global_engine().schedule_at(t, [] {});\n"
      "}\n");
  EXPECT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "S1");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintS1, MailboxApiIsClean) {
  const auto diags = lint_one(
      "src/armci/handoff.cpp",
      "#include \"sim/sharded_engine.hpp\"\n"
      "void f(sim::ShardedEngine& sh, int node, sim::Time t) {\n"
      "  sh.schedule_on_node(node, t, [] {});\n"
      "  sh.post_serial([] {});\n"
      "  sh.schedule_global_at(t, [] {});\n"
      "  sim::Engine& e = sh.engine_for_node(node);\n"  // read-only use
      "  (void)sh.shard_engine(0).now();\n"
      "  (void)e;\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintS1, AnnotationSuppresses) {
  const auto diags = lint_one(
      "src/armci/handoff.cpp",
      "void f(sim::ShardedEngine& sh, sim::Time t) {\n"
      "  // vtopo-lint: allow(cross-shard) -- serial phase, workers "
      "quiescent\n"
      "  sh.global_engine().schedule_at(t, [] {});\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintS1, ExemptInsideShardedEngine) {
  // The engine's own window/mailbox machinery legitimately schedules on
  // shard heaps directly.
  const auto diags = lint_one(
      "src/sim/sharded_engine.cpp",
      "void drain(sim::ShardedEngine& sh, sim::Time t) {\n"
      "  sh.shard_engine(1).schedule_at(t, [] {});\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintA0, MalformedAnnotationReported) {
  const auto diags = lint_one(
      "src/a.cpp",
      "// vtopo-lint: allow(unordered-iter)\n"          // missing reason
      "// vtopo-lint: allow(no-such-rule) -- why\n"     // unknown rule
      // not a directive: only allow() and allow-file() exist
      "// vtopo-lint: transfer(credit-lease-pairing) -- gone\n"
      // a deleted rule's name is unknown, not silently accepted
      "// vtopo-lint: allow(qos-submit) -- why\n");
  EXPECT_EQ(diags.size(), 4u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "A0");
}

TEST(LintFile, AllowFileSuppressesEveryHitOfThatRule) {
  const auto diags = lint_one(
      "bench/t.cpp",
      "// vtopo-lint: allow-file(nondeterminism) -- wall-clock bench\n"
      "#include <chrono>\n"
      "auto t0() { return std::chrono::steady_clock::now(); }\n"
      "auto t1() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintOutput, TextFormat) {
  const auto diags = lint_one("src/a.cpp", "int f() { return rand(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  const std::string text = format_text(diags);
  EXPECT_NE(text.find("src/a.cpp:1:18: [D1]"), std::string::npos);
}

TEST(LintOutput, DiagnosticsSortedByFileThenLine) {
  Linter linter;
  linter.add_file("src/b.cpp", "int f() { return rand(); }\n");
  linter.add_file("src/a.cpp", "void g();\nint f() { return rand(); }\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].file, "src/a.cpp");
  EXPECT_EQ(diags[1].file, "src/b.cpp");
}

TEST(LintMeta, AnnotationNameMapping) {
  EXPECT_EQ(annotation_name("D1"), "nondeterminism");
  EXPECT_EQ(annotation_name("D2"), "unordered-iter");
  EXPECT_EQ(annotation_name("D3"), "pointer-order");
  EXPECT_EQ(annotation_name("C1"), "coro-ref");
  EXPECT_EQ(annotation_name("C2"), "suspension-lifetime");
  EXPECT_EQ(annotation_name("S1"), "cross-shard");
  EXPECT_EQ(annotation_name("R1"), "credit-lease-pairing");
  EXPECT_EQ(annotation_name("L1"), "lock-order");
}

// ---------------------------------------------------------------------
// R1: credit-lease pairing (path-sensitive acquire/release matching).
// ---------------------------------------------------------------------

bool trace_has_note(const Diagnostic& d, const std::string& needle) {
  return std::any_of(d.trace.begin(), d.trace.end(), [&](const TraceStep& s) {
    return s.note.find(needle) != std::string::npos;
  });
}

TEST(LintR1, FiresOnLeaseLeakedByEarlyReturn) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> forward(CreditBank& bank, Req* r) {\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  if (r->bad) {\n"
      "    co_return;\n"
      "  }\n"
      "  bank.release(r->next, r->cls);\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_GT(diags[0].col, 1);
  // The CFG path trace must name the acquire site, the branch the
  // leaking path takes, and the early return that leaks.
  ASSERT_GE(diags[0].trace.size(), 3u);
  EXPECT_TRUE(trace_has_note(diags[0], "acquired here"));
  EXPECT_TRUE(trace_has_note(diags[0], "takes this branch"));
  EXPECT_TRUE(trace_has_note(diags[0], "early return"));
  EXPECT_EQ(diags[0].trace.back().line, 4);
}

TEST(LintR1, FiresOnLeaseLeakedAtFunctionEnd) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> maybe(CreditBank& bank, Req* r) {\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  if (r->ok) {\n"
      "    bank.release(r->next, r->cls);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_TRUE(trace_has_note(diags[0], "leaked at end of 'maybe'"));
}

TEST(LintR1, ReleasedOnAllPathsIsClean) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> forward(CreditBank& bank, Req* r) {\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  if (r->bad) {\n"
      "    bank.release(r->next, r->cls);\n"
      "    co_return;\n"
      "  }\n"
      "  bank.release(r->next, r->cls);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintR1, HopCreditTransferIsClean) {
  // `r->hop_credit_taken = true` moves lease ownership onto the request;
  // the downstream ack path releases it.
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> hop(CreditBank& bank, Req* r) {\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  r->hop_credit_taken = true;\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintR1, CrossFileReleaserCallFires) {
  // forward() never touches release directly; it calls a helper defined
  // in another TU that releases a lease. That is no evidence for this
  // one: a helper may release a different credit (Cht::forward calls
  // release_upstream on the upstream lease before it hands its new
  // lease to the request).
  Linter linter;
  linter.add_file("src/armci/fwd.cpp",
                  "void finish_hop(CreditBank& bank, Req* r);\n"
                  "sim::Co<void> forward(CreditBank& bank, Req* r) {\n"
                  "  co_await bank.acquire(r->next, r->cls);\n"
                  "  finish_hop(bank, r);\n"
                  "}\n");
  linter.add_file("src/armci/ack.cpp",
                  "void finish_hop(CreditBank& bank, Req* r) {\n"
                  "  bank.release(r->next, r->cls);\n"
                  "}\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].file, "src/armci/fwd.cpp");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintR1, RacedResponseEarlyReturnFires) {
  // Runtime::reissue's shape with the raced-response release missing:
  // the hand-off path transfers the lease, the raced branch returns
  // without it. The branch condition calls a `ready` that some other
  // TU defines as releasing; a name match is not a release.
  Linter linter;
  linter.add_file("src/armci/reissue.cpp",
                  "sim::Co<void> reissue(CreditBank& bank, Req* r) {\n"
                  "  co_await bank.acquire(r->hop, r->cls);\n"
                  "  if (r->response_future->ready()) {\n"
                  "    co_return;\n"
                  "  }\n"
                  "  r->hop_credit_taken = true;\n"
                  "}\n");
  linter.add_file("src/armci/slot.cpp",
                  "bool ready(CreditBank& bank, Req* r) {\n"
                  "  bank.release(r->up, r->cls);\n"
                  "  return true;\n"
                  "}\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].file, "src/armci/reissue.cpp");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[0].trace.back().line, 4);
}

TEST(LintR1, AccessorBoundAliasIsTracked) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> f(Runtime* rt_, Req* r) {\n"
      "  auto& bank = rt_->credits(r->next);\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  co_return;\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintR1, DroppedPoolRefFires) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "void issue(Runtime* rt_) {\n"
      "  rt_->request_pool().acquire();\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R1");
  EXPECT_NE(diags[0].message.find("immediately dropped"), std::string::npos);
}

TEST(LintR1, BoundPoolRefIsClean) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "void issue(Runtime* rt_) {\n"
      "  RequestPtr r = rt_->request_pool().acquire();\n"
      "  use(r);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintR1, AllowSuppresses) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> forward(CreditBank& bank, Req* r) {\n"
      "  // vtopo-lint: allow(credit-lease-pairing) -- intentional fixture\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------
// C2: references and by-ref captures across coroutine suspension points.
// ---------------------------------------------------------------------

TEST(LintC2, FiresOnByRefCaptureAcrossCoAwait) {
  const auto diags = lint_one(
      "src/armci/x.cpp",
      "sim::Co<void> f(sim::Engine& eng) {\n"
      "  int local = 3;\n"
      "  eng.post([&local]() { local++; });\n"
      "  co_await sim::Sleep(eng, 5);\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "C2");
  EXPECT_EQ(diags[0].line, 3);
  ASSERT_EQ(diags[0].trace.size(), 2u);
  EXPECT_TRUE(trace_has_note(diags[0], "escapes here"));
  EXPECT_TRUE(trace_has_note(diags[0], "suspends here"));
  EXPECT_EQ(diags[0].trace[1].line, 4);
}

TEST(LintC2, FiresOnElementRefAcrossCoAwait) {
  const auto diags = lint_one(
      "src/coll/x.cpp",
      "sim::Co<void> f(Tree& t, int v) {\n"
      "  const auto& kids = t.children[v];\n"
      "  co_await t.barrier();\n"
      "  use(kids.size());\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "C2");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_TRUE(trace_has_note(diags[0], "reference bound here"));
  EXPECT_TRUE(trace_has_note(diags[0], "suspends here"));
  EXPECT_TRUE(trace_has_note(diags[0], "after resumption"));
}

TEST(LintC2, ValueCaptureIsClean) {
  const auto diags = lint_one(
      "src/armci/x.cpp",
      "sim::Co<void> f(sim::Engine& eng) {\n"
      "  int local = 3;\n"
      "  eng.post([local]() mutable { local++; });\n"
      "  co_await sim::Sleep(eng, 5);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC2, NonCoroutineIsClean) {
  const auto diags = lint_one(
      "src/armci/x.cpp",
      "void f(sim::Engine& eng) {\n"
      "  int local = 3;\n"
      "  eng.post([&local]() { local++; });\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC2, EscapeAfterLastSuspensionIsClean) {
  // The closure cannot run across a suspension that already happened.
  const auto diags = lint_one(
      "src/armci/x.cpp",
      "sim::Co<void> f(sim::Engine& eng) {\n"
      "  co_await sim::Sleep(eng, 5);\n"
      "  int local = 3;\n"
      "  eng.post([&local]() { local++; });\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC2, RefNotUsedAfterSuspensionIsClean) {
  const auto diags = lint_one(
      "src/coll/x.cpp",
      "sim::Co<void> f(Tree& t, int v) {\n"
      "  const auto& kids = t.children[v];\n"
      "  use(kids.size());\n"
      "  co_await t.barrier();\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintC2, AllowSuppresses) {
  const auto diags = lint_one(
      "src/armci/x.cpp",
      "sim::Co<void> f(sim::Engine& eng) {\n"
      "  int local = 3;\n"
      "  // vtopo-lint: allow(suspension-lifetime) -- closure runs inline\n"
      "  eng.post([&local]() { local++; });\n"
      "  co_await sim::Sleep(eng, 5);\n"
      "}\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------
// L1: global lock-acquisition-order cycles.
// ---------------------------------------------------------------------

TEST(LintL1, FiresOnOppositeGuardOrder) {
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "struct S {\n"
      "  std::mutex a_mu;\n"
      "  std::mutex b_mu;\n"
      "  void f() { std::scoped_lock g1(a_mu); std::scoped_lock g2(b_mu); }\n"
      "  void g() { std::scoped_lock g1(b_mu); std::scoped_lock g2(a_mu); }\n"
      "};\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "L1");
  EXPECT_NE(diags[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'a_mu'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'b_mu'"), std::string::npos);
  // The witness trace shows one edge per cycle arc.
  ASSERT_EQ(diags[0].trace.size(), 2u);
  EXPECT_TRUE(trace_has_note(diags[0], "while holding 'a_mu'"));
  EXPECT_TRUE(trace_has_note(diags[0], "while holding 'b_mu'"));
}

TEST(LintL1, ConsistentOrderIsClean) {
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "struct S {\n"
      "  std::mutex a_mu;\n"
      "  std::mutex b_mu;\n"
      "  void f() { std::scoped_lock g1(a_mu); std::scoped_lock g2(b_mu); }\n"
      "  void g() { std::scoped_lock g1(a_mu); std::scoped_lock g2(b_mu); }\n"
      "};\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintL1, FiresOnManualLockUnlockOrder) {
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "std::mutex a_mu;\n"
      "std::mutex b_mu;\n"
      "void f() { a_mu.lock(); b_mu.lock(); b_mu.unlock(); a_mu.unlock(); }\n"
      "void g() { b_mu.lock(); a_mu.lock(); a_mu.unlock(); b_mu.unlock(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "L1");
}

TEST(LintL1, InterproceduralCycleThroughCall) {
  // f holds a_mu and calls h(), which takes b_mu; g takes them in the
  // opposite order. The cycle only exists through the call graph.
  Linter linter;
  linter.add_file("src/armci/a.cpp",
                  "std::mutex a_mu;\n"
                  "std::mutex b_mu;\n"
                  "void h();\n"
                  "void f() { std::scoped_lock g1(a_mu); h(); }\n"
                  "void g() { std::scoped_lock g1(b_mu);\n"
                  "           std::scoped_lock g2(a_mu); }\n");
  linter.add_file("src/armci/b.cpp",
                  "void h() { std::scoped_lock g1(b_mu); }\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "L1");
  EXPECT_TRUE(trace_has_note(diags[0], "via call to 'h'"));
}

TEST(LintL1, SequentialScopesAreClean) {
  // Locks taken one after the other (each released before the next) do
  // not order-constrain each other.
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "std::mutex a_mu;\n"
      "std::mutex b_mu;\n"
      "void f() { { std::scoped_lock g(a_mu); } "
      "{ std::scoped_lock g(b_mu); } }\n"
      "void g() { { std::scoped_lock g(b_mu); } "
      "{ std::scoped_lock g(a_mu); } }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintL1, SimulatedLockTableKeysByFirstArg) {
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "void f(Mutexes& lt) { lt.lock(k1); lt.lock(k2); }\n"
      "void g(Mutexes& lt) { lt.lock(k2); lt.lock(k1); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "L1");
  EXPECT_NE(diags[0].message.find("'k1'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'k2'"), std::string::npos);
}

TEST(LintL1, AllowSuppresses) {
  const auto diags = lint_one(
      "src/armci/locks.cpp",
      "std::mutex a_mu;\n"
      "std::mutex b_mu;\n"
      "// vtopo-lint: allow(lock-order) -- init path, single-threaded\n"
      "void f() { std::scoped_lock g1(a_mu); std::scoped_lock g2(b_mu); }\n"
      "void g() { std::scoped_lock g1(b_mu); std::scoped_lock g2(a_mu); }\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------
// Text output: path traces.
// ---------------------------------------------------------------------

TEST(LintOutput, TextRendersTraceSteps) {
  const auto diags = lint_one(
      "src/armci/fwd.cpp",
      "sim::Co<void> forward(CreditBank& bank, Req* r) {\n"
      "  co_await bank.acquire(r->next, r->cls);\n"
      "  if (r->bad) { co_return; }\n"
      "  bank.release(r->next, r->cls);\n"
      "}\n");
  const std::string text = format_text(diags);
  EXPECT_NE(text.find("acquired here"), std::string::npos);
  EXPECT_NE(text.find("early return"), std::string::npos);
}

TEST(LintA0, UnknownRuleNameIsQuoted) {
  const auto diags = lint_one(
      "src/a.cpp", "// vtopo-lint: allow(no-such-rule) -- why\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "A0");
  EXPECT_NE(diags[0].message.find("'no-such-rule'"), std::string::npos);
}

}  // namespace
}  // namespace vtopo::lint
