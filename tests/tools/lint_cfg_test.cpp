// Unit tests for the vtopo-lint flow engine: per-function CFG
// construction (branch joins, loop back edges, early exits, suspension
// points, lambdas-as-atoms) and the cross-TU call graph (edge
// resolution, recursion-safe reachability).
#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace vtopo::lint {
namespace {

const FunctionInfo& only_fn(const ParsedSource& ps) {
  EXPECT_EQ(ps.functions.size(), 1u);
  return ps.functions.front();
}

int count_kind(const Cfg& cfg, CfgNode::Kind k) {
  return static_cast<int>(
      std::count_if(cfg.nodes.begin(), cfg.nodes.end(),
                    [&](const CfgNode& n) { return n.kind == k; }));
}

/// True when v is reachable from u along CFG edges.
bool reaches(const Cfg& cfg, int u, int v) {
  std::set<int> seen{u};
  std::vector<int> work{u};
  while (!work.empty()) {
    const int n = work.back();
    work.pop_back();
    if (n == v) return true;
    for (const int s : cfg.nodes[static_cast<std::size_t>(n)].succs) {
      if (seen.insert(s).second) work.push_back(s);
    }
  }
  return false;
}

/// The node whose token span starts on `line`, or -1.
int node_on_line(const Cfg& cfg, int line) {
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    if (cfg.nodes[i].line == line && cfg.nodes[i].kind != CfgNode::kEntry &&
        cfg.nodes[i].kind != CfgNode::kEnd) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(CfgExtract, FindsFreeAndMemberFunctions) {
  const auto ps = parse_source(
      "int add(int a, int b) { return a + b; }\n"
      "void Cht::forward(Req* r) { use(r); }\n");
  ASSERT_EQ(ps.functions.size(), 2u);
  EXPECT_EQ(ps.functions[0].name, "add");
  EXPECT_EQ(ps.functions[0].qual, "");
  EXPECT_EQ(ps.functions[1].name, "forward");
  EXPECT_EQ(ps.functions[1].qual, "Cht");
}

TEST(CfgExtract, PreprocessorLinesDoNotBreakBodies) {
  const auto ps = parse_source(
      "void f() {\n"
      "#if defined(VTOPO_VALIDATE)\n"
      "  check();\n"
      "#endif\n"
      "  run();\n"
      "}\n");
  ASSERT_EQ(ps.functions.size(), 1u);
  EXPECT_GT(ps.functions[0].cfg.nodes.size(), 2u);
}

TEST(CfgBuild, StraightLineIsALinearChain) {
  const auto ps = parse_source("void f() { a(); b(); c(); }\n");
  const Cfg& cfg = only_fn(ps).cfg;
  EXPECT_EQ(count_kind(cfg, CfgNode::kEntry), 1);
  EXPECT_EQ(count_kind(cfg, CfgNode::kEnd), 1);
  EXPECT_EQ(count_kind(cfg, CfgNode::kStmt), 3);
  EXPECT_EQ(count_kind(cfg, CfgNode::kBranch), 0);
  EXPECT_TRUE(reaches(cfg, cfg.entry, cfg.exit));
}

TEST(CfgBuild, IfElseBranchesAndJoins) {
  const auto ps = parse_source(
      "void f(bool c) {\n"
      "  if (c) {\n"
      "    a();\n"
      "  } else {\n"
      "    b();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int cond = node_on_line(cfg, 2);
  ASSERT_GE(cond, 0);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(cond)].kind, CfgNode::kBranch);
  // Both arms are successors of the condition and both rejoin at the
  // statement after the if.
  const int then_n = node_on_line(cfg, 3);
  const int else_n = node_on_line(cfg, 5);
  const int join_n = node_on_line(cfg, 7);
  ASSERT_GE(then_n, 0);
  ASSERT_GE(else_n, 0);
  ASSERT_GE(join_n, 0);
  const auto& succs = cfg.nodes[static_cast<std::size_t>(cond)].succs;
  EXPECT_NE(std::find(succs.begin(), succs.end(), then_n), succs.end());
  EXPECT_NE(std::find(succs.begin(), succs.end(), else_n), succs.end());
  EXPECT_TRUE(reaches(cfg, then_n, join_n));
  EXPECT_TRUE(reaches(cfg, else_n, join_n));
}

TEST(CfgBuild, IfWithoutElseHasFallthroughEdge) {
  const auto ps = parse_source(
      "void f(bool c) {\n"
      "  if (c) {\n"
      "    a();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int cond = node_on_line(cfg, 2);
  const int join_n = node_on_line(cfg, 5);
  ASSERT_GE(cond, 0);
  ASSERT_GE(join_n, 0);
  // The false edge must skip the body and land on `after()` directly.
  const auto& succs = cfg.nodes[static_cast<std::size_t>(cond)].succs;
  EXPECT_NE(std::find(succs.begin(), succs.end(), join_n), succs.end());
}

TEST(CfgBuild, WhileLoopHasBackEdge) {
  const auto ps = parse_source(
      "void f(int n) {\n"
      "  while (n > 0) {\n"
      "    work(n);\n"
      "    --n;\n"
      "  }\n"
      "  done();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int cond = node_on_line(cfg, 2);
  const int body = node_on_line(cfg, 3);
  ASSERT_GE(cond, 0);
  ASSERT_GE(body, 0);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(cond)].kind, CfgNode::kBranch);
  // Loop back edge: the body reaches the condition again.
  EXPECT_TRUE(reaches(cfg, body, cond));
  EXPECT_TRUE(reaches(cfg, cond, cfg.exit));
}

TEST(CfgBuild, ForLoopBreakExitsAndContinueLoops) {
  const auto ps = parse_source(
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (skip(i)) continue;\n"
      "    if (stop(i)) break;\n"
      "    work(i);\n"
      "  }\n"
      "  done();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int head = node_on_line(cfg, 2);
  const int done = node_on_line(cfg, 7);
  ASSERT_GE(head, 0);
  ASSERT_GE(done, 0);
  EXPECT_TRUE(reaches(cfg, head, done));
  // continue loops back to the header; break reaches done() without
  // passing work(i).
  const int work = node_on_line(cfg, 5);
  ASSERT_GE(work, 0);
  EXPECT_TRUE(reaches(cfg, work, head));
}

TEST(CfgBuild, EarlyReturnGoesStraightToExit) {
  const auto ps = parse_source(
      "int f(bool c) {\n"
      "  if (c) {\n"
      "    return 1;\n"
      "  }\n"
      "  after();\n"
      "  return 0;\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  EXPECT_EQ(count_kind(cfg, CfgNode::kExit), 2);
  const int ret = node_on_line(cfg, 3);
  const int after = node_on_line(cfg, 5);
  ASSERT_GE(ret, 0);
  ASSERT_GE(after, 0);
  // The early return's only successor is the synthetic end node.
  const auto& succs = cfg.nodes[static_cast<std::size_t>(ret)].succs;
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0], cfg.exit);
  EXPECT_FALSE(reaches(cfg, ret, after));
}

TEST(CfgBuild, SwitchFansOutFromHeader) {
  const auto ps = parse_source(
      "void f(int k) {\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      a();\n"
      "      break;\n"
      "    default:\n"
      "      b();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int head = node_on_line(cfg, 2);
  ASSERT_GE(head, 0);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(head)].kind, CfgNode::kBranch);
  // Header fans out to both case labels and everything rejoins after.
  EXPECT_GE(cfg.nodes[static_cast<std::size_t>(head)].succs.size(), 2u);
  const int after = node_on_line(cfg, 9);
  ASSERT_GE(after, 0);
  EXPECT_TRUE(reaches(cfg, head, after));
}

TEST(CfgBuild, SuspensionPointsAreDistinctNodes) {
  // Each co_await statement must land in its own CFG node so the flow
  // rules can order events relative to individual suspension points.
  const auto ps = parse_source(
      "sim::Co<void> f(Chan& ch) {\n"
      "  co_await ch.send(1);\n"
      "  work();\n"
      "  co_await ch.recv();\n"
      "  co_return;\n"
      "}\n");
  const FunctionInfo& fn = only_fn(ps);
  EXPECT_TRUE(fn.is_coroutine);
  const Cfg& cfg = fn.cfg;
  const int s1 = node_on_line(cfg, 2);
  const int w = node_on_line(cfg, 3);
  const int s2 = node_on_line(cfg, 4);
  ASSERT_GE(s1, 0);
  ASSERT_GE(w, 0);
  ASSERT_GE(s2, 0);
  EXPECT_NE(s1, s2);
  EXPECT_TRUE(reaches(cfg, s1, w));
  EXPECT_TRUE(reaches(cfg, w, s2));
  // co_return is an exit node.
  EXPECT_GE(count_kind(cfg, CfgNode::kExit), 1);
}

TEST(CfgLambda, CapturesAndEscapeAreRecorded) {
  const auto ps = parse_source(
      "void f(Engine& eng) {\n"
      "  int x = 1;\n"
      "  eng.post([&x]() { x++; });\n"
      "  auto held = [x]() { return x; };\n"
      "  held();\n"
      "}\n");
  const FunctionInfo& fn = only_fn(ps);
  ASSERT_EQ(fn.lambdas.size(), 2u);
  EXPECT_TRUE(fn.lambdas[0].by_ref_capture);
  EXPECT_TRUE(fn.lambdas[0].escapes_to_call);
  EXPECT_FALSE(fn.lambdas[1].by_ref_capture);
  EXPECT_FALSE(fn.lambdas[1].escapes_to_call);
  // Token positions inside the first lambda body are flagged.
  EXPECT_TRUE(in_lambda(fn, fn.lambdas[0].body_begin));
}

TEST(CfgLambda, CoAwaitInsideLambdaDoesNotMarkEnclosingCoroutine) {
  const auto ps = parse_source(
      "void f(Engine& eng) {\n"
      "  eng.post([]() -> sim::Co<void> { co_await x(); });\n"
      "}\n");
  ASSERT_FALSE(ps.functions.empty());
  EXPECT_FALSE(ps.functions[0].is_coroutine);
}

TEST(CfgLambda, LambdaReturnDoesNotExitEnclosingFunction) {
  const auto ps = parse_source(
      "void f(Engine& eng) {\n"
      "  eng.post([]() { return; });\n"
      "  after();\n"
      "}\n");
  const Cfg& cfg = only_fn(ps).cfg;
  const int post = node_on_line(cfg, 2);
  const int after = node_on_line(cfg, 3);
  ASSERT_GE(post, 0);
  ASSERT_GE(after, 0);
  // The lambda's `return` is opaque: control still flows to after().
  EXPECT_TRUE(reaches(cfg, post, after));
}

TEST(CallGraphTest, ResolvesEdgesAcrossFiles) {
  const auto a = parse_source(
      "void helper();\n"
      "void top() { helper(); unknown_fn(); }\n");
  const auto b = parse_source("void helper() { leaf(); }\n"
                              "void leaf() {}\n");
  CallGraph g;
  g.add_file(a.toks, a.functions);
  g.add_file(b.toks, b.functions);
  g.finalize();
  EXPECT_TRUE(g.known("top"));
  EXPECT_TRUE(g.known("helper"));
  EXPECT_EQ(g.callees("top").count("helper"), 1u);
  // Unknown callees are dropped, not edges to nowhere.
  EXPECT_EQ(g.callees("top").count("unknown_fn"), 0u);
  const auto reach = g.reachable_from("top");
  EXPECT_EQ(reach.count("leaf"), 1u);
}

TEST(CallGraphTest, PropagationSurvivesRecursion) {
  const auto a = parse_source(
      "void ping(int n) { if (n) pong(n - 1); }\n"
      "void pong(int n) { if (n) ping(n - 1); sink(); }\n"
      "void sink() {}\n"
      "void outside() {}\n");
  CallGraph g;
  g.add_file(a.toks, a.functions);
  g.finalize();
  // Forward closure through the mutual recursion terminates and pulls
  // in both halves plus what they call.
  const auto reach = g.reachable_from("ping");
  EXPECT_EQ(reach.count("pong"), 1u);
  EXPECT_EQ(reach.count("sink"), 1u);
  EXPECT_EQ(reach.count("outside"), 0u);
}

TEST(CallGraphTest, SelfRecursionKeepsEdge) {
  const auto a = parse_source("int fact(int n) { return n * fact(n - 1); }\n");
  CallGraph g;
  g.add_file(a.toks, a.functions);
  g.finalize();
  EXPECT_EQ(g.callees("fact").count("fact"), 1u);
  EXPECT_EQ(g.reachable_from("fact").count("fact"), 1u);
}

}  // namespace
}  // namespace vtopo::lint
