#include "lint/lint.hpp"

#include "lint/cfg.hpp"
#include "lint/flow_rules.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

namespace vtopo::lint {

void Sink::report(std::string_view rule_id, int line, int col,
                  std::string message, std::vector<TraceStep> trace) {
  const std::string_view name = annotation_name(rule_id);
  for (const auto& fa : ann_->file_allows) {
    if (fa == name) return;
  }
  for (const auto& [aline, arule] : ann_->line_allows) {
    if (arule == name && (aline == line || aline == line - 1)) return;
  }
  out_->push_back(Diagnostic{std::string(rule_id), path_, line, col,
                             std::move(message), std::move(trace)});
}

namespace {

// ---------------------------------------------------------------------
// Rule engine plumbing.
// ---------------------------------------------------------------------

struct FileCtx {
  std::string path;
  std::string blanked;   ///< comment/literal-stripped source (owns the
                         ///< storage every legacy Token::text views into)
  std::string stripped;  ///< blanked + preprocessor lines removed (owns
                         ///< the storage the CFG tokens view into)
  std::vector<Token> toks;      ///< legacy stream (macros visible)
  std::vector<Token> cfg_toks;  ///< structural stream (pp-stripped)
  std::vector<FunctionInfo> functions;
  Annotations ann;
  bool rng_exempt = false;  ///< path matches src/sim/rng.* (rule D1)
  bool sharded_exempt = false;  ///< path matches sim/sharded_engine.* (S1)
};

// ---------------------------------------------------------------------
// Rule D1: nondeterminism sources outside sim/rng.
// ---------------------------------------------------------------------

void rule_d1(const FileCtx& f, Sink& sink) {
  if (f.rng_exempt) return;
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const std::string_view id = t[i].text;
    const bool call_next = i + 1 < t.size() && is(t[i + 1], "(");
    if (id == "random_device" || id == "system_clock" ||
        id == "steady_clock" || id == "high_resolution_clock") {
      sink.report("D1", t[i].line, t[i].col,
                  "nondeterminism source '" + std::string(id) +
                      "' outside sim/rng (use sim::Rng / simulated time)");
      continue;
    }
    if (call_next && (id == "rand" || id == "srand" || id == "drand48" ||
                      id == "getenv" || id == "secure_getenv")) {
      sink.report("D1", t[i].line, t[i].col,
                  "nondeterministic call '" + std::string(id) +
                      "()' outside sim/rng (seed via explicit config, "
                      "not environment or libc rand)");
      continue;
    }
    // time(nullptr) / time(0) / time(NULL): wall clock.
    if (call_next && id == "time" && i + 3 < t.size() &&
        (is(t[i + 2], "nullptr") || is(t[i + 2], "0") ||
         is(t[i + 2], "NULL")) &&
        is(t[i + 3], ")")) {
      sink.report("D1", t[i].line, t[i].col,
                  "wall-clock read 'time(...)' outside sim/rng");
    }
  }
}

// ---------------------------------------------------------------------
// Rule D2: iteration over unordered containers.
// ---------------------------------------------------------------------

bool is_unordered_type_name(std::string_view id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

/// Collect names declared with unordered container types in one file:
/// both variables/members ("std::unordered_map<K, V> name") and type
/// aliases ("using Name = std::unordered_map<...>"), whose own declared
/// variables are picked up transitively within the same pass set.
void collect_unordered_names(const std::vector<Token>& t,
                             std::set<std::string, std::less<>>& names,
                             std::set<std::string, std::less<>>& types) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const bool unordered_here =
        is_unordered_type_name(t[i].text) || types.count(t[i].text) != 0;
    if (!unordered_here) continue;
    // "using Alias = [std::]unordered_map<...>" — look behind, skipping
    // namespace qualification.
    std::size_t b = i;
    while (b >= 2 && is(t[b - 1], "::") && t[b - 2].kind == Token::kIdent) {
      b -= 2;
    }
    if (b >= 3 && is(t[b - 1], "=") && t[b - 2].kind == Token::kIdent &&
        is(t[b - 3], "using")) {
      types.insert(std::string(t[b - 2].text));
    }
    std::size_t j = i + 1;
    if (j < t.size() && is(t[j], "<")) {
      j = skip_angles(t, j);
      if (j == knpos) continue;
    } else if (is_unordered_type_name(t[i].text)) {
      continue;  // bare mention (e.g. inside a comment-ish context)
    }
    // Skip declarator decorations, then expect the declared name.
    while (j < t.size() && (is(t[j], "*") || is(t[j], "&") ||
                            is(t[j], "&&") || is(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::kIdent &&
        t[j].text != "operator") {
      // Only count declarations, not e.g. "unordered_map<K,V>{}" temps.
      names.insert(std::string(t[j].text));
    }
  }
}

void rule_d2(const FileCtx& f,
             const std::set<std::string, std::less<>>& unordered_names,
             Sink& sink) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered name:
    //   for ( decl : expr )
    if (is(t[i], "for") && i + 1 < t.size() && is(t[i + 1], "(")) {
      const std::size_t close = skip_parens(t, i + 1);
      if (close == knpos) continue;
      // Find the range-for ':' at paren depth 1 (merged "::" is a
      // distinct token, so a bare ":" is unambiguous).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (is(t[k], "(")) ++depth;
        if (is(t[k], ")")) --depth;
        if (depth == 1 && is(t[k], ":")) {
          colon = k;
          break;
        }
      }
      if (colon == 0) continue;
      for (std::size_t k = colon + 1; k + 1 < close; ++k) {
        if (t[k].kind == Token::kIdent &&
            unordered_names.count(t[k].text) != 0) {
          sink.report(
              "D2", t[k].line, t[k].col,
              "range-for over unordered container '" +
                  std::string(t[k].text) +
                  "': iteration order is not deterministic across "
                  "libraries/runs; iterate a sorted or dense structure");
          break;
        }
      }
      continue;
    }
    // name.begin() / name->cbegin() etc.
    if (t[i].kind == Token::kIdent && unordered_names.count(t[i].text) != 0 &&
        i + 3 < t.size() && (is(t[i + 1], ".") || is(t[i + 1], "->")) &&
        (is(t[i + 2], "begin") || is(t[i + 2], "cbegin") ||
         is(t[i + 2], "rbegin") || is(t[i + 2], "crbegin")) &&
        is(t[i + 3], "(")) {
      sink.report("D2", t[i].line, t[i].col,
                  "iterator walk over unordered container '" +
                      std::string(t[i].text) +
                      "': iteration order is not deterministic");
    }
  }
}

// ---------------------------------------------------------------------
// Rule D3: ordering by pointer value.
// ---------------------------------------------------------------------

void rule_d3(const FileCtx& f, Sink& sink) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !is(t[i + 1], "<")) continue;
    const std::string_view id = t[i].text;
    const bool comparator = id == "less" || id == "greater";
    const bool ordered_container = id == "set" || id == "map" ||
                                   id == "multiset" || id == "multimap";
    if (!comparator && !ordered_container) continue;
    // Heuristic guard: require std:: (or absl:: etc.) qualification so a
    // project template named set<...> is not miscounted.
    if (i < 1 || !is(t[i - 1], "::")) continue;
    const std::size_t end = skip_angles(t, i + 1);
    if (end == knpos) continue;
    // First template argument: tokens until ',' or the final '>' at
    // depth 1.
    int depth = 0;
    std::size_t last = 0;
    bool key_is_pointer = false;
    for (std::size_t k = i + 1; k < end; ++k) {
      if ((depth == 1 && is(t[k], ",")) || k == end - 1) {
        key_is_pointer = last != 0 && is(t[last], "*");
        break;
      }
      if (is(t[k], "<") || is(t[k], "(")) {
        ++depth;
      } else if (is(t[k], ">") || is(t[k], ")")) {
        --depth;
      } else {
        last = k;
      }
    }
    if (key_is_pointer) {
      sink.report(
          "D3", t[i].line, t[i].col,
          "'" + std::string(id) +
              "' keyed on a pointer type orders by address, which varies "
              "run to run; key on a stable id instead");
    }
  }
}

// ---------------------------------------------------------------------
// Rule C1: coroutine-frame lifetime hazards.
// ---------------------------------------------------------------------

/// True when tokens [begin, end) — one function parameter — declare a
/// const-lvalue-ref or rvalue-ref parameter at top level.
bool param_is_hazardous_ref(const std::vector<Token>& t, std::size_t begin,
                            std::size_t end) {
  int depth = 0;
  bool saw_const = false;
  for (std::size_t k = begin; k < end; ++k) {
    if (is(t[k], "<") || is(t[k], "(") || is(t[k], "[")) ++depth;
    if (is(t[k], ">") || is(t[k], ")") || is(t[k], "]")) --depth;
    if (depth != 0) continue;
    if (is(t[k], "const")) saw_const = true;
    if (is(t[k], "&&")) return true;
    if (is(t[k], "&") && saw_const) return true;
  }
  return false;
}

/// Is t[i] the start of a coroutine return type? Matches "Co <" with an
/// optional "sim ::" prefix, and "Detached". Returns the index just past
/// the full type (past the closing '>' for Co<T>), or knpos.
std::size_t match_coro_return_type(const std::vector<Token>& t,
                                   std::size_t i) {
  if (t[i].kind != Token::kIdent) return knpos;
  if (t[i].text == "Detached") return i + 1;
  if (t[i].text != "Co") return knpos;
  if (i + 1 >= t.size() || !is(t[i + 1], "<")) return knpos;
  return skip_angles(t, i + 1);
}

void rule_c1_functions(const FileCtx& f, Sink& sink) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t after_type = match_coro_return_type(t, i);
    if (after_type == knpos) continue;
    // Expect: [ClassName ::]* name ( params )
    std::size_t j = after_type;
    while (j + 1 < t.size() && t[j].kind == Token::kIdent &&
           is(t[j + 1], "::")) {
      j += 2;
    }
    if (j + 1 >= t.size() || t[j].kind != Token::kIdent ||
        !is(t[j + 1], "(")) {
      continue;  // variable of type Co<T>, return statement, etc.
    }
    const std::string fn_name(t[j].text);
    const std::size_t open = j + 1;
    const std::size_t close = skip_parens(t, open);
    if (close == knpos) continue;
    // Split parameters at top-level commas and test each.
    int depth = 0;
    std::size_t param_start = open + 1;
    for (std::size_t k = open; k < close; ++k) {
      if (is(t[k], "<") || is(t[k], "(") || is(t[k], "[")) ++depth;
      if (is(t[k], ">") || is(t[k], ")") || is(t[k], "]")) --depth;
      const bool at_split = (depth == 1 && is(t[k], ",")) || k == close - 1;
      if (!at_split) continue;
      if (param_is_hazardous_ref(t, param_start, k)) {
        sink.report(
            "C1", t[param_start].line, t[param_start].col,
            "coroutine '" + fn_name +
                "' takes a const-ref/rvalue-ref parameter: a temporary "
                "bound to it dies while the frame may still be alive; "
                "pass by value (or a mutable lvalue ref to an object "
                "that outlives the run)");
      }
      param_start = k + 1;
    }
  }
}

/// A capturing coroutine lambda invoked where it is created:
///   [captures](...) -> sim::Co<void> { ... }()
/// Captures live in the closure object, not the coroutine frame, and
/// this closure is a temporary that dies at the end of the
/// full-expression while the frame it started keeps running. Every
/// capture then dangles, by value as much as by reference. A stored
/// closure (Runtime::spawn* keeps it in programs_) or a captureless one
/// is safe.
void rule_c1_lambdas(const FileCtx& f, Sink& sink) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is(t[i], "[")) continue;
    // Lambda-introducer heuristic: '[' not preceded by a value-ish token
    // (identifier, ')', ']', number) — those are subscripts.
    if (i > 0 && (t[i - 1].kind == Token::kIdent ||
                  t[i - 1].kind == Token::kNumber || is(t[i - 1], ")") ||
                  is(t[i - 1], "]"))) {
      continue;
    }
    // Capture list: scan to the matching ']'; an empty one has no
    // closure state to dangle.
    std::size_t close = knpos;
    int depth = 0;
    for (std::size_t k = i; k < t.size() && !is(t[k], ";"); ++k) {
      if (is(t[k], "[")) ++depth;
      if (is(t[k], "]") && --depth == 0) {
        close = k;
        break;
      }
    }
    if (close == knpos || close == i + 1) continue;
    // Must look like a lambda: followed by '(' params, '{' body, or
    // specifiers/trailing-return.
    std::size_t j = close + 1;
    if (j >= t.size() ||
        !(is(t[j], "(") || is(t[j], "{") || is(t[j], "->") ||
          is(t[j], "mutable") || is(t[j], "noexcept"))) {
      continue;
    }
    // Find the body '{', remembering a coroutine trailing return type.
    bool coro = false;
    if (is(t[j], "(")) j = skip_parens(t, j);
    while (j < t.size() && !is(t[j], "{")) {
      if (match_coro_return_type(t, j) != knpos) coro = true;
      if (is(t[j], ";") || is(t[j], ")")) break;  // not a lambda body
      ++j;
    }
    if (j >= t.size() || !is(t[j], "{")) continue;
    const std::size_t body_end = skip_braces(t, j);
    if (body_end >= t.size() || !is(t[body_end], "(")) continue;
    for (std::size_t k = j; k < body_end && !coro; ++k) {
      coro = is(t[k], "co_await") || is(t[k], "co_return") ||
             is(t[k], "co_yield");
    }
    if (!coro) continue;
    sink.report(
        "C1", t[i].line, t[i].col,
        "capturing coroutine lambda invoked where it is created: the "
        "closure is a temporary that dies at the end of the "
        "full-expression while the coroutine frame keeps running, so "
        "every capture dangles, by value or by reference; use a named "
        "coroutine with value parameters");
  }
}

// ---------------------------------------------------------------------
// Rule S1: cross-shard mutation outside the mailbox API.
// ---------------------------------------------------------------------

bool is_shard_facade_accessor(std::string_view id) {
  // Accessors on ShardedEngine that hand back a per-shard sim::Engine.
  // Scheduling directly on one of those from another shard's context
  // bypasses the mailbox/window clamp that makes output shard-count
  // invariant.
  return id == "shard_engine" || id == "engine_for_node" ||
         id == "global_engine" || id == "context_engine";
}

void rule_s1(const FileCtx& f, Sink& sink) {
  if (f.sharded_exempt) return;
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !is_shard_facade_accessor(t[i].text)) {
      continue;
    }
    if (!is(t[i + 1], "(")) continue;
    const std::size_t after = skip_parens(t, i + 1);
    if (after == knpos || after + 2 >= t.size()) continue;
    // shard_engine(s).schedule_at(...) — the facade is returned by
    // reference, so the chain is always '.'.
    if (!is(t[after], ".")) continue;
    const std::string_view method = t[after + 1].text;
    if (t[after + 1].kind != Token::kIdent ||
        (method != "schedule_at" && method != "schedule_after")) {
      continue;
    }
    if (!is(t[after + 2], "(")) continue;
    sink.report(
        "S1", t[i].line, t[i].col,
        "'" + std::string(t[i].text) + "(...)." + std::string(method) +
            "(...)' schedules directly on a shard facade, bypassing the "
            "mailbox/window clamp that keeps output shard-count "
            "invariant; use ShardedEngine::schedule_on_node / "
            "post_serial / schedule_global_at");
  }
}

}  // namespace

void Linter::add_file(std::string path, std::string content) {
  files_.push_back(File{std::move(path), std::move(content)});
}

std::vector<Diagnostic> Linter::run() {
  // Lexing per file: the legacy token stream keeps macro bodies visible
  // for the token-shape rules; the structural stream strips preprocessor
  // lines so the CFG parser sees balanced braces.
  std::vector<FileCtx> ctxs;
  ctxs.reserve(files_.size());
  for (const auto& f : files_) {
    FileCtx ctx;
    ctx.path = f.path;
    ctx.blanked = blank_noncode(f.content, ctx.ann);
    ctx.stripped = strip_preprocessor(ctx.blanked);
    ctx.rng_exempt = f.path.find("sim/rng.") != std::string::npos;
    ctx.sharded_exempt =
        f.path.find("sim/sharded_engine.") != std::string::npos;
    ctxs.push_back(std::move(ctx));
    // Tokenize after the move so Token::text views into storage that
    // lives as long as the context itself.
    ctxs.back().toks = tokenize(ctxs.back().blanked);
    ctxs.back().cfg_toks = tokenize(ctxs.back().stripped);
    ctxs.back().functions = extract_functions(ctxs.back().cfg_toks);
  }

  // Pass A: project-wide unordered names (declaration may live in a
  // header, iteration in a .cpp).
  std::set<std::string, std::less<>> unordered_names;
  std::set<std::string, std::less<>> unordered_types;
  for (int round = 0; round < 2; ++round) {  // 2 rounds: aliases settle
    for (const auto& ctx : ctxs) {
      collect_unordered_names(ctx.toks, unordered_names, unordered_types);
    }
  }

  // Pass B: token-shape rules.
  std::vector<Diagnostic> diags;
  for (const auto& ctx : ctxs) {
    Sink sink(ctx.path, ctx.ann, diags);
    for (const auto& m : ctx.ann.malformed) {
      diags.push_back(Diagnostic{"A0", ctx.path, m.line, m.col, m.message, {}});
    }
    rule_d1(ctx, sink);
    rule_d2(ctx, unordered_names, sink);
    rule_d3(ctx, sink);
    rule_c1_functions(ctx, sink);
    rule_c1_lambdas(ctx, sink);
    rule_s1(ctx, sink);
  }

  // Pass C: flow rules (CFG + call graph) — R1, C2, L1.
  FlowAnalysis flow;
  for (const auto& ctx : ctxs) {
    flow.add_file(ctx.path, &ctx.cfg_toks, &ctx.functions, &ctx.ann);
  }
  flow.run(diags);

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.col < b.col;
            });
  return diags;
}

std::string format_text(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const auto& d : diags) {
    out += d.file + ":" + std::to_string(d.line);
    if (d.col > 0) out += ":" + std::to_string(d.col);
    out += ": [" + d.rule + "] " + d.message;
    if (d.rule != "A0") {
      out += "  (suppress: // vtopo-lint: allow(" +
             std::string(annotation_name(d.rule)) + ") -- <reason>)";
    }
    out += "\n";
    for (const auto& step : d.trace) {
      out += "    " + step.file + ":" + std::to_string(step.line) + ":" +
             std::to_string(step.col) + ": " + step.note + "\n";
    }
  }
  return out;
}

}  // namespace vtopo::lint
