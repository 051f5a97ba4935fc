// Flow-sensitive rule families built on the CFG + call-graph engine:
//
//   R1 credit-lease-pairing — path-sensitive acquire/release matching.
//       Every `bank.acquire(...)` on a CreditBank must reach, on every
//       CFG path to function exit, a direct `.release(...)` on a credit
//       bank or the `hop_credit_taken = true` ownership transfer. A call
//       into a helper is not a release: the helper may release a
//       different lease. RequestPool handles are RAII, so for those
//       the rule only flags an acquire whose handle is dropped on the
//       spot.
//       Diagnostics carry a witness path: acquire site -> branches ->
//       the early return (or end of function) that leaks.
//
//   C2 suspension-lifetime — element references (`auto& x = v[i]`-style
//       binds whose initializer subscripts a container) used after a
//       `co_await`, and by-ref-capturing lambdas that escape into a
//       call before the enclosing coroutine suspends. Both are frame/
//       storage lifetime hazards the signature-only C1 cannot see.
//
//   L1 lock-order — a global lock-acquisition-order graph. Nodes are
//       lock identities (std::mutex-family variables, and simulated
//       lock keys from `co_await x.lock(key, ...)`); an edge A->B
//       is recorded whenever B is acquired while A is held, including
//       through calls (callee lock summaries propagate over the call
//       graph). Any cycle is reported once, with the witness edge list.
//
// FlowAnalysis owns the cross-file state: call once per file with that
// file's (preprocessor-stripped) tokens, functions and annotations, then
// run() against the shared diagnostic vector.
#pragma once

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"
#include "lint/lint.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vtopo::lint {

class FlowAnalysis {
 public:
  /// Register one parsed file. The pointed-to containers must outlive
  /// the FlowAnalysis (the Linter keeps them in its per-file contexts).
  void add_file(std::string path, const std::vector<Token>* toks,
                const std::vector<FunctionInfo>* fns, const Annotations* ann);

  /// Run R1 + C2 + L1 over every registered file, appending to `out`
  /// (suppression via each file's annotations, like the token rules).
  void run(std::vector<Diagnostic>& out);

 private:
  struct FileRef {
    std::string path;
    const std::vector<Token>* toks;
    const std::vector<FunctionInfo>* fns;
    const Annotations* ann;
  };

  void collect_names();
  void build_lock_summaries();
  const std::set<std::string>& lock_closure(const std::string& name);
  void rule_r1(const FileRef& f, const FunctionInfo& fn, Sink& sink) const;
  void rule_c2(const FileRef& f, const FunctionInfo& fn, Sink& sink) const;
  void rule_l1_scan(const FileRef& f, const FunctionInfo& fn);
  void rule_l1_report(std::vector<Diagnostic>& out) const;

  std::vector<FileRef> files_;
  CallGraph graph_;
  std::set<std::string> credit_names_;  ///< CreditBank-typed variables
  std::set<std::string> pool_names_;    ///< RequestPool-typed variables
  std::set<std::string> mutex_names_;   ///< std::mutex-family variables
  /// Direct lock acquisitions per function (bare name) for the L1
  /// interprocedural summaries.
  std::map<std::string, std::set<std::string>> direct_locks_;
  /// Transitive closure of direct_locks_ over the call graph, filled on
  /// demand: only calls made while holding a lock need one.
  std::map<std::string, std::set<std::string>> lock_closure_;

  struct LockEdge {
    std::string held;      ///< lock already held
    std::string acquired;  ///< lock taken while holding `held`
    std::string file;
    int line = 0;
    int col = 0;
    std::string note;  ///< e.g. "via call to f" for summary edges
  };
  /// First witness per (held, acquired) pair; deterministic because
  /// files and tokens are scanned in order.
  std::map<std::pair<std::string, std::string>, LockEdge> lock_edges_;
};

}  // namespace vtopo::lint
