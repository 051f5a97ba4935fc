// vtopo-lint: project-specific determinism, resource-pairing and
// coroutine-safety checks.
//
// The reproduction's headline guarantee is bit-identical determinism:
// figs 5/6/7 are locked behind FNV goldens and the --jobs sweep must be
// byte-identical to a serial run. Nothing in the compiler stops a future
// change from iterating an unordered_map into the event stream, leaking
// a CreditBank lease on an early-return path, or holding a reference
// across a suspension point — so this analyzer does. It is a
// tokenizer/AST-lite checker (no libclang): it blanks comments and
// literals, tokenizes, pattern-matches token shapes, and — for the flow
// rules — builds per-function control-flow graphs and a cross-TU call
// graph (see cfg.hpp / callgraph.hpp / flow_rules.hpp).
//
// Rules (see docs/static_analysis.md for the full catalogue):
//   D1 nondeterminism       — wall clocks, rand(), random_device, getenv
//                             outside src/sim/rng.*
//   D2 unordered-iter       — iteration over unordered_{map,set}
//   D3 pointer-order        — ordering containers/comparators keyed on
//                             pointer values
//   C1 coro-ref             — coroutine signatures that can bind dead
//                             temporaries; capturing coroutine lambdas
//                             invoked where they are created
//   C2 suspension-lifetime  — element references and escaping by-ref
//                             closures that live across a co_await
//                             (flow-sensitive)
//   S1 cross-shard          — scheduling directly on a shard facade
//   R1 credit-lease-pairing — path-sensitive acquire/release matching
//                             for CreditBank leases and RequestPool
//                             handles (static twin of the
//                             VTOPO_VALIDATE conservation checks)
//   L1 lock-order           — global lock-acquisition-order graph with
//                             cycle detection and a witness cycle
//   A0 annotation           — malformed vtopo-lint annotation
//
// Escape hatch, same line or the line directly above the violation:
//   // vtopo-lint: allow(<rule>) -- <reason>
// or once per file (anywhere in the file):
//   // vtopo-lint: allow-file(<rule>) -- <reason>
#pragma once

#include "lint/token.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace vtopo::lint {

/// The directories a whole-tree lint covers, relative to the repository
/// root: the CLI's default paths, which the lint_tree ctest and
/// tools/check_lint.sh rely on, and the tree lint_mutation_test mutates.
inline constexpr const char* kLintedDirs[] = {"src", "bench", "perfbench",
                                              "examples"};

/// One step of a CFG witness path attached to a diagnostic.
struct TraceStep {
  std::string file;
  int line = 0;
  int col = 0;
  std::string note;
};

struct Diagnostic {
  std::string rule;  ///< "D1".."S1", "R1", "C2", "L1", "A0"
  std::string file;
  int line = 0;
  int col = 0;  ///< 1-based; 0 when unknown
  std::string message;
  std::vector<TraceStep> trace;  ///< empty for the token-shape rules
};

/// Per-file diagnostic sink: applies allow()/allow-file() suppression
/// (annotation on the violation line or the line directly above) before
/// recording. Shared by the token-shape rules and the flow rules.
class Sink {
 public:
  Sink(std::string path, const Annotations& ann, std::vector<Diagnostic>& out)
      : path_(std::move(path)), ann_(&ann), out_(&out) {}

  void report(std::string_view rule_id, int line, int col,
              std::string message, std::vector<TraceStep> trace = {});

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  const Annotations* ann_;
  std::vector<Diagnostic>* out_;
};

class Linter {
 public:
  /// Queue a file for analysis. `path` is used for diagnostics and for
  /// the D1 exemption (paths containing "sim/rng." may use any source
  /// of randomness — that is where determinism is implemented).
  void add_file(std::string path, std::string content);

  /// Run all rules over every added file. The token-shape rules get a
  /// 2-round project-wide name collection (declaration in a header,
  /// use in a .cpp); the flow rules additionally get per-function CFGs
  /// and a cross-TU call graph. Diagnostics are sorted by (file, line,
  /// rule) and therefore deterministic.
  [[nodiscard]] std::vector<Diagnostic> run();

 private:
  struct File {
    std::string path;
    std::string content;
  };
  std::vector<File> files_;
};

/// Render diagnostics as compiler-style text lines
/// ("file:line:col: [Dn] …" plus indented trace lines).
[[nodiscard]] std::string format_text(const std::vector<Diagnostic>& diags);

}  // namespace vtopo::lint
