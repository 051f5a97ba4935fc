// Cross-TU call graph over extracted functions.
//
// Nodes are keyed by bare function name (lint-grade: no overload or
// namespace resolution — the project style keeps method names unique
// enough that this is precise in practice, and a false merge only makes
// the flow rules more conservative, never less sound). Edges are found
// by scanning each function body for `name (` call shapes against the
// set of known function names. reachable_from() walks the graph so L1's
// "transitively acquires lock X" summaries survive recursion and
// arbitrary call depth.
#pragma once

#include "lint/cfg.hpp"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace vtopo::lint {

struct CallGraphNode {
  std::string name;            ///< bare function name
  std::set<std::string> callees;  ///< bare names of known functions called
};

class CallGraph {
 public:
  /// Register every function of one parsed file. Call once per file,
  /// then finalize() once all files are in.
  void add_file(const std::vector<Token>& toks,
                const std::vector<FunctionInfo>& fns);

  /// Resolve call edges: scans recorded bodies for `name (` shapes
  /// where `name` is a known function. Must be called after the last
  /// add_file() and before queries.
  void finalize();

  [[nodiscard]] bool known(const std::string& name) const {
    return nodes_.count(name) != 0;
  }
  [[nodiscard]] const std::set<std::string>& callees(
      const std::string& name) const;

  /// Forward closure: everything reachable from `name` via call edges,
  /// including `name` itself. Empty set for unknown names.
  [[nodiscard]] std::set<std::string> reachable_from(
      const std::string& name) const;

 private:
  struct PendingBody {
    std::string name;
    // Call-shape candidates harvested at add time: identifiers followed
    // by '(' in the body (excluding keywords), so finalize() does not
    // need to keep token streams alive.
    std::vector<std::string> candidates;
  };
  std::map<std::string, CallGraphNode> nodes_;
  std::vector<PendingBody> pending_;
  bool finalized_ = false;
};

}  // namespace vtopo::lint
