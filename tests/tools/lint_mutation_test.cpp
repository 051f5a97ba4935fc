// Mutation test for vtopo-lint over the real tree. Each mutant seeds one
// bug of the kind a rule exists to catch (a CreditBank lease that never
// comes back, a lock-order cycle, a reference held across a suspension
// point, a dangling coroutine capture, a wall-clock or hash-order or
// address-order input to the simulation) into an in-memory copy of the
// linted tree, and the linter must report exactly one diagnostic: the
// mutant's rule, in the mutated file. Each anchor must occur exactly once
// in its file, so the test fails loudly when the guarded code moves
// instead of silently linting an unmutated tree.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace vtopo::lint {
namespace {

namespace fs = std::filesystem;

/// Every source file under kLintedDirs (the lint_tree selection), keyed
/// by its path relative to the repository root.
std::map<std::string, std::string> read_source_tree() {
  std::map<std::string, std::string> files;
  const fs::path root = VTOPO_SOURCE_DIR;
  for (const char* dir : kLintedDirs) {
    for (const auto& e : fs::recursive_directory_iterator(root / dir)) {
      const std::string ext = e.path().extension().string();
      if (!e.is_regular_file() ||
          (ext != ".hpp" && ext != ".h" && ext != ".cpp" && ext != ".cc")) {
        continue;
      }
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      files.emplace(e.path().lexically_relative(root).generic_string(),
                    ss.str());
    }
  }
  return files;
}

std::size_t occurrences(const std::string& text, const char* needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

/// Lints the tree with the one occurrence of `anchor` in `file` replaced
/// by `replacement` and expects exactly one diagnostic: `rule`, in `file`.
void expect_caught_by(const char* rule, const std::string& file,
                      const char* anchor, const char* replacement) {
  std::map<std::string, std::string> files = read_source_tree();
  const auto it = files.find(file);
  ASSERT_NE(it, files.end()) << file << " is not in the tree";
  std::string& text = it->second;
  ASSERT_EQ(occurrences(text, anchor), 1u)
      << "anchor must occur exactly once in " << file << ":\n"
      << anchor;
  text.replace(text.find(anchor), std::strlen(anchor), replacement);

  Linter linter;
  for (auto& [path, content] : files) linter.add_file(path, std::move(content));
  const std::vector<Diagnostic> diags = linter.run();
  ASSERT_EQ(diags.size(), 1u) << format_text(diags);
  EXPECT_EQ(diags[0].rule, rule) << format_text(diags);
  EXPECT_EQ(diags[0].file, file) << format_text(diags);
}

TEST(LintMutation, R1ReissueRaceDropsRelease) {
  // The raced-response branch hands the lease back before co_return.
  expect_caught_by("R1", "src/armci/runtime.cpp",
                   "bank.release(hop);", "");
}

TEST(LintMutation, R1ReissueEarlyReturnBeforeHandOff) {
  expect_caught_by("R1", "src/armci/runtime.cpp",
                   "  r->upstream_node = origin;\n",
                   "  if (r->attempt > 100) co_return;\n"
                   "  r->upstream_node = origin;\n");
}

TEST(LintMutation, R1ForwardEarlyReturnAfterAcquire) {
  expect_caught_by("R1", "src/armci/cht.cpp",
                   "  co_await bank.acquire(next);\n",
                   "  co_await bank.acquire(next);\n"
                   "  if (r->forwards > 100) co_return;\n");
}

TEST(LintMutation, L1ThreadsTransportOppositeLockOrder) {
  expect_caught_by("L1", "src/armci/backend_threads.cpp",
                   "}  // namespace vtopo::armci",
                   "void ThreadsTransport::seeded_done_then_coll() {\n"
                   "  std::scoped_lock done(done_mu_);\n"
                   "  std::scoped_lock coll(coll_mu_);\n"
                   "}\n"
                   "\n"
                   "void ThreadsTransport::seeded_coll_then_done() {\n"
                   "  std::scoped_lock coll(coll_mu_);\n"
                   "  std::scoped_lock done(done_mu_);\n"
                   "}\n"
                   "\n"
                   "}  // namespace vtopo::armci");
}

TEST(LintMutation, C2ReconfigureHoldsWaiterAcrossSleep) {
  expect_caught_by("C2", "src/armci/runtime.cpp",
                   "  const sim::TimeNs t_quiesced = eng_->now();\n",
                   "  const sim::TimeNs t_quiesced = eng_->now();\n"
                   "  FenceWaiter& first = reconfig_waiters_[0];\n"
                   "  co_await sim::Sleep(*eng_, p.reconfig_poll);\n"
                   "  (void)first.node;\n");
}

TEST(LintMutation, C2ForwardPostsByRefClosureBeforeSleep) {
  expect_caught_by(
      "C2", "src/armci/cht.cpp",
      "  co_await sim::Sleep(rt_->engine(), p.cht_forward_extra);\n",
      "  int hops = 0;\n"
      "  rt_->transport().post(static_cast<int>(next), [&hops] { ++hops; });\n"
      "  co_await sim::Sleep(rt_->engine(), p.cht_forward_extra);\n");
}

TEST(LintMutation, C1ForwardBindsMovedRequestToConstRefParam) {
  // Cht::handle spawns forward(std::move(r)) and returns: a forward
  // parked on a credit would read the request through handle's
  // destroyed frame.
  expect_caught_by("C1", "src/armci/cht.cpp",
                   "sim::Co<void> Cht::forward(RequestPtr r) {",
                   "sim::Co<void> Cht::forward(const RequestPtr& r) {");
}

TEST(LintMutation, C1ReconfigMonitorClosureInvokedInPlace) {
  // By-value captures dangle too: the closure is the temporary, and the
  // frame reads rtp and spec through it after its first Sleep.
  expect_caught_by(
      "C1", "src/workloads/common.hpp",
      "  rt.spawn_task(detail::reconfig_monitor(&rt, *cl.reconfigure));\n",
      "  armci::Runtime* const rtp = &rt;\n"
      "  rt.spawn_task([rtp, spec = *cl.reconfigure]() -> sim::Co<void> {\n"
      "    co_await sim::Sleep(rtp->engine(), sim::ms(spec.at_ms));\n"
      "    co_await rtp->reconfigure(spec.to, spec.mode);\n"
      "  }());\n");
}

TEST(LintMutation, D1ChtPollWindowOnHostClock) {
  // The CHT's idle test reads the host clock instead of simulated time,
  // so whether a request pays the wake-up depends on host speed.
  expect_caught_by(
      "D1", "src/armci/cht.cpp",
      "    if (rt_->engine().now() - last_active_ > p.cht_poll_window) {\n",
      "    const auto host_ns = std::chrono::duration_cast<\n"
      "        std::chrono::nanoseconds>(\n"
      "        std::chrono::steady_clock::now().time_since_epoch()).count();\n"
      "    if (host_ns - last_active_ > p.cht_poll_window) {\n");
}

TEST(LintMutation, D2DependencyGraphEdgesInHashOrder) {
  // Resource ids come from the interning order; rebuilding the edge list
  // by walking the hash table hands each id some other edge.
  expect_caught_by(
      "D2", "src/core/dependency_graph.cpp",
      "    return std::move(edges_);\n",
      "    std::vector<DependencyGraph::Resource> edges;\n"
      "    for (const auto& [key, id] : ids_) {\n"
      "      edges.push_back({static_cast<NodeId>(key / n_),\n"
      "                       static_cast<NodeId>(key % n_)});\n"
      "    }\n"
      "    return edges;\n");
}

TEST(LintMutation, D3QuiescenceCheckWalksBanksByAddress) {
  // The first bank to fail the check, and so the abort, follows the
  // allocator's addresses instead of node order.
  expect_caught_by(
      "D3", "src/armci/runtime.cpp",
      "  for (const auto& bank : credit_banks_) {\n"
      "    bank->check_quiescent(\"credit bank not quiescent after run\");\n",
      "  std::set<const CreditBank*> banks;\n"
      "  for (const auto& b : credit_banks_) banks.insert(b.get());\n"
      "  for (const CreditBank* bank : banks) {\n"
      "    bank->check_quiescent(\"credit bank not quiescent after run\");\n");
}

}  // namespace
}  // namespace vtopo::lint
