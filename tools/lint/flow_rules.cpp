#include "lint/flow_rules.hpp"

#include <algorithm>
#include <deque>

namespace vtopo::lint {

namespace {

/// What a `.acquire(` / `.release(` chain resolves to.
enum class Res { kNone, kCredit, kPool };

Res classify_accessor(std::string_view name) {
  if (name == "credits") return Res::kCredit;
  if (name == "request_pool") return Res::kPool;
  return Res::kNone;
}

/// For a method ident at `m` ("acquire"/"release") followed by '(',
/// resolve the receiver chain: a credit/pool-typed variable, or an
/// accessor call chain ending in credits()/request_pool().
Res resolve_receiver(const std::vector<Token>& t, std::size_t m,
                     const std::set<std::string>& credit,
                     const std::set<std::string>& pool) {
  if (m < 2 || m + 1 >= t.size() || !is(t[m + 1], "(")) return Res::kNone;
  if (!is(t[m - 1], ".") && !is(t[m - 1], "->")) return Res::kNone;
  const Token& r = t[m - 2];
  if (r.kind == Token::kIdent) {
    const std::string name(r.text);
    if (credit.count(name) != 0) return Res::kCredit;
    if (pool.count(name) != 0) return Res::kPool;
    return Res::kNone;
  }
  if (is(r, ")")) {  // accessor chain: rt_->credits(node).acquire(...)
    int d = 0;
    for (std::size_t j = m - 2;; --j) {
      if (is(t[j], ")")) {
        ++d;
      } else if (is(t[j], "(")) {
        if (--d == 0) {
          if (j >= 1 && t[j - 1].kind == Token::kIdent) {
            return classify_accessor(t[j - 1].text);
          }
          return Res::kNone;
        }
      }
      if (j == 0) break;
    }
  }
  return Res::kNone;
}

/// True when the acquire-chain method at `m` inside statement node `nd`
/// discards its result on the spot: the chain sits at delimiter depth 0
/// of the statement, nothing is assigned, and the statement is not a
/// return/co_return/co_await (those hand the handle onward).
bool dropped_on_the_spot(const std::vector<Token>& t, const CfgNode& nd,
                         std::size_t m) {
  if (nd.tok_begin >= t.size()) return false;
  const Token& first = t[nd.tok_begin];
  if (is(first, "return") || first.text == "co_return" ||
      first.text == "co_await") {
    return false;
  }
  int d = 0;
  for (std::size_t k = nd.tok_begin; k < m && k < t.size(); ++k) {
    if (is(t[k], "(") || is(t[k], "[") || is(t[k], "{")) {
      ++d;
    } else if (is(t[k], ")") || is(t[k], "]") || is(t[k], "}")) {
      --d;
    } else if (d == 0 && is(t[k], "=")) {
      return false;
    }
  }
  return d == 0;
}

bool is_guard_type(std::string_view s) {
  return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
         s == "shared_lock";
}

bool is_mutex_type(std::string_view s) {
  return s == "mutex" || s == "recursive_mutex" || s == "shared_mutex" ||
         s == "timed_mutex";
}

/// Normalized text of the first call argument ("op . target" ->
/// "op.target"): the lock identity for simulated (CHT-hosted) locks.
std::string first_arg_key(const std::vector<Token>& t, std::size_t open) {
  std::string key;
  int d = 0;
  for (std::size_t k = open; k < t.size(); ++k) {
    if (is(t[k], "(") || is(t[k], "[")) {
      if (d > 0) key += t[k].text;
      ++d;
    } else if (is(t[k], ")") || is(t[k], "]")) {
      --d;
      if (d == 0) break;
      key += t[k].text;
    } else if (d == 1 && is(t[k], ",")) {
      break;
    } else if (d > 0) {
      key += t[k].text;
    }
  }
  return key;
}

}  // namespace

void FlowAnalysis::add_file(std::string path, const std::vector<Token>* toks,
                            const std::vector<FunctionInfo>* fns,
                            const Annotations* ann) {
  files_.push_back(FileRef{std::move(path), toks, fns, ann});
}

// ---------------------------------------------------------------------
// Cross-file name collection.
// ---------------------------------------------------------------------

void FlowAnalysis::collect_names() {
  for (const auto& f : files_) {
    const auto& t = *f.toks;
    // Declared-variable harvesting: "<Type> [&*const] name [, name]*".
    auto decl_names = [&](std::size_t i, std::set<std::string>& out) {
      std::size_t j = i + 1;
      while (j < t.size() && (is(t[j], "&") || is(t[j], "*") ||
                              is(t[j], "&&") || is(t[j], "const"))) {
        ++j;
      }
      if (j >= t.size() || t[j].kind != Token::kIdent) return;
      if (j + 1 < t.size() && is(t[j + 1], "::")) return;  // qualified fn
      out.insert(std::string(t[j].text));
      // Comma-chained declarators ("std::mutex a_, b_;"): accept only
      // names whose next token ends a declarator, so parameter lists
      // ("CreditBank& bank, Priority cls") are not over-harvested.
      j += 1;
      while (j + 1 < t.size() && is(t[j], ",") &&
             t[j + 1].kind == Token::kIdent) {
        const std::size_t after = j + 2;
        if (after < t.size() && !is(t[after], ",") && !is(t[after], ";") &&
            !is(t[after], "=") && !is(t[after], "{")) {
          break;
        }
        out.insert(std::string(t[j + 1].text));
        j += 2;
      }
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      const std::string_view id = t[i].text;
      if (id == "CreditBank") {
        decl_names(i, credit_names_);
      } else if (id == "RequestPool") {
        decl_names(i, pool_names_);
      } else if (is_mutex_type(id) && i > 0 && is(t[i - 1], "::")) {
        decl_names(i, mutex_names_);
      } else if (classify_accessor(id) != Res::kNone && i + 1 < t.size() &&
                 is(t[i + 1], "(")) {
        // Accessor-bound aliases: "auto& bank = rt_->credits(n);" makes
        // `bank` credit-typed for the event matcher.
        std::size_t j = i;
        while (j >= 2 && (is(t[j - 1], ".") || is(t[j - 1], "->")) &&
               t[j - 2].kind == Token::kIdent) {
          j -= 2;
        }
        if (j >= 2 && is(t[j - 1], "=") && t[j - 2].kind == Token::kIdent) {
          const std::string nm(t[j - 2].text);
          switch (classify_accessor(id)) {
            case Res::kCredit:
              credit_names_.insert(nm);
              break;
            case Res::kPool:
              pool_names_.insert(nm);
              break;
            default:
              break;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// R1: credit-lease pairing.
// ---------------------------------------------------------------------

void FlowAnalysis::rule_r1(const FileRef& f, const FunctionInfo& fn,
                           Sink& sink) const {
  const auto& t = *f.toks;
  const Cfg& cfg = fn.cfg;
  if (cfg.nodes.empty() || cfg.exit < 0) return;

  struct Event {
    bool acquire = false;  ///< false: clears every held lease
    std::size_t tok = 0;
  };
  const std::size_t num = cfg.nodes.size();
  std::vector<std::vector<Event>> events(num);
  bool any_acquire = false;
  for (std::size_t ni = 0; ni < num; ++ni) {
    const CfgNode& nd = cfg.nodes[ni];
    for (std::size_t i = nd.tok_begin; i < nd.tok_end && i < t.size(); ++i) {
      if (in_lambda(fn, i) || t[i].kind != Token::kIdent) continue;
      const std::string_view id = t[i].text;
      if (id == "acquire") {
        const Res r = resolve_receiver(t, i, credit_names_, pool_names_);
        if (r == Res::kCredit) {
          events[ni].push_back({true, i});
          any_acquire = true;
        } else if (r == Res::kPool && dropped_on_the_spot(t, nd, i)) {
          sink.report("R1", t[i].line, t[i].col,
                      "RequestPool ref acquired and immediately dropped: "
                      "the RAII handle releases before any use; bind it "
                      "to a named handle");
        }
      } else if (id == "release") {
        if (resolve_receiver(t, i, credit_names_, pool_names_) ==
            Res::kCredit) {
          events[ni].push_back({false, i});
        }
      } else if (id == "hop_credit_taken" && i + 2 < t.size() &&
                 is(t[i + 1], "=") && is(t[i + 2], "true")) {
        events[ni].push_back({false, i});  // ownership moves to the request
      }
    }
  }
  if (!any_acquire) return;

  // May-hold dataflow: state = set of acquire-site token indices; union
  // at joins; a leak is any lease still held at the synthetic exit.
  std::vector<std::vector<int>> preds(num);
  for (std::size_t u = 0; u < num; ++u) {
    for (const int v : cfg.nodes[u].succs) {
      preds[static_cast<std::size_t>(v)].push_back(static_cast<int>(u));
    }
  }
  std::vector<std::set<std::size_t>> in_state(num);
  std::vector<std::set<std::size_t>> out_state(num);
  std::map<std::pair<int, std::size_t>, int> prov;  ///< first feeding pred
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t n = 0; n < num; ++n) {
      std::set<std::size_t> in;
      for (const int p : preds[n]) {
        for (const std::size_t id : out_state[static_cast<std::size_t>(p)]) {
          if (in.insert(id).second) {
            prov.emplace(std::make_pair(static_cast<int>(n), id), p);
          }
        }
      }
      std::set<std::size_t> out = in;
      for (const Event& ev : events[n]) {
        if (ev.acquire) {
          out.insert(ev.tok);
        } else {
          out.clear();
        }
      }
      if (in != in_state[n] || out != out_state[n]) {
        in_state[n] = std::move(in);
        out_state[n] = std::move(out);
        changed = true;
      }
    }
  }

  const int end_line =
      fn.body_end > 0 && fn.body_end - 1 < t.size() ? t[fn.body_end - 1].line
                                                    : fn.line;
  for (const std::size_t id : in_state[static_cast<std::size_t>(cfg.exit)]) {
    // Witness path: walk the provenance links back from the exit to the
    // acquiring node, then emit it in forward order.
    std::vector<int> chain{cfg.exit};
    std::set<int> seen{cfg.exit};
    int cur = cfg.exit;
    while (true) {
      const auto it = prov.find({cur, id});
      if (it == prov.end() || seen.count(it->second) != 0) break;
      cur = it->second;
      chain.push_back(cur);
      seen.insert(cur);
    }
    std::reverse(chain.begin(), chain.end());
    std::vector<TraceStep> trace;
    trace.push_back({f.path, t[id].line, t[id].col,
                     "CreditBank lease acquired here"});
    int last_real = -1;
    for (const int n : chain) {
      const CfgNode& nd = cfg.nodes[static_cast<std::size_t>(n)];
      if (nd.kind == CfgNode::kBranch && trace.size() < 7) {
        trace.push_back(
            {f.path, nd.line, nd.col, "leaking path takes this branch"});
      }
      if (n != cfg.exit) last_real = n;
    }
    if (last_real >= 0 &&
        cfg.nodes[static_cast<std::size_t>(last_real)].kind == CfgNode::kExit) {
      const CfgNode& nd = cfg.nodes[static_cast<std::size_t>(last_real)];
      trace.push_back(
          {f.path, nd.line, nd.col, "leaked via early return here"});
    } else {
      trace.push_back({f.path, end_line, 1,
                       "leaked at end of '" + fn.name + "'"});
    }
    sink.report(
        "R1", t[id].line, t[id].col,
        "CreditBank lease acquired here does not reach a release or the "
        "hop_credit_taken ownership transfer on every path to function "
        "exit — leaked credits break the conservation invariant "
        "VTOPO_VALIDATE enforces at runtime",
        std::move(trace));
  }
}

// ---------------------------------------------------------------------
// C2: lifetime across suspension points.
// ---------------------------------------------------------------------

void FlowAnalysis::rule_c2(const FileRef& f, const FunctionInfo& fn,
                           Sink& sink) const {
  if (!fn.is_coroutine) return;
  const auto& t = *f.toks;
  const Cfg& cfg = fn.cfg;
  if (cfg.nodes.empty() || cfg.exit < 0) return;

  struct Item {
    std::size_t tok = 0;  ///< bind site (name token, or lambda '[')
    std::string name;     ///< empty for lambda items
    bool is_lambda = false;
  };
  std::vector<Item> items;
  std::map<std::string, std::size_t> by_name;  ///< name -> item index

  const std::size_t num = cfg.nodes.size();
  std::vector<std::vector<std::size_t>> binds(num);  ///< item idx per node
  for (std::size_t ni = 0; ni < num; ++ni) {
    const CfgNode& nd = cfg.nodes[ni];
    if (nd.kind != CfgNode::kStmt && nd.kind != CfgNode::kBranch) continue;
    // "auto& x = v[i];"-style element reference binds.
    int d = 0;
    for (std::size_t i = nd.tok_begin; i < nd.tok_end && i < t.size(); ++i) {
      if (is(t[i], "(") || is(t[i], "[") || is(t[i], "{")) {
        ++d;
      } else if (is(t[i], ")") || is(t[i], "]") || is(t[i], "}")) {
        --d;
      }
      if (d != 0 || !is(t[i], "=") || in_lambda(fn, i)) continue;
      if (i < 3 || i + 1 >= nd.tok_end) continue;
      if (t[i - 1].kind != Token::kIdent || !is(t[i - 2], "&")) continue;
      const Token& ty = t[i - 3];
      if (!(ty.kind == Token::kIdent || is(ty, ">"))) continue;
      bool subscripted = false;
      int rd = 0;
      for (std::size_t k = i + 1; k < nd.tok_end && k < t.size(); ++k) {
        if (is(t[k], "(") || is(t[k], "{")) ++rd;
        if (is(t[k], ")") || is(t[k], "}")) --rd;
        if (rd == 0 && is(t[k], "[")) {
          subscripted = true;
          break;
        }
      }
      if (!subscripted) continue;
      Item it;
      it.tok = i - 1;
      it.name = std::string(t[i - 1].text);
      items.push_back(it);
      by_name[it.name] = items.size() - 1;
      binds[ni].push_back(items.size() - 1);
    }
  }
  // Escaping by-ref lambdas inside this coroutine.
  for (const auto& l : fn.lambdas) {
    if (!l.by_ref_capture || !l.escapes_to_call) continue;
    // Nested lambdas inside another lambda's body belong to that
    // closure's lifetime, not the coroutine frame's.
    bool nested = false;
    for (const auto& outer : fn.lambdas) {
      if (l.intro > outer.body_begin && l.intro < outer.body_end) {
        nested = true;
        break;
      }
    }
    if (nested) continue;
    Item it;
    it.tok = l.intro;
    it.is_lambda = true;
    items.push_back(it);
    for (std::size_t ni = 0; ni < num; ++ni) {
      const CfgNode& nd = cfg.nodes[ni];
      if (l.intro >= nd.tok_begin && l.intro < nd.tok_end) {
        binds[ni].push_back(items.size() - 1);
        break;
      }
    }
  }
  if (items.empty()) return;

  // Phase per item: 0 = live, 1 = crossed a suspension. Merge takes the
  // max, so the fixpoint is monotone.
  using State = std::map<std::size_t, int>;
  std::vector<std::vector<int>> preds(num);
  for (std::size_t u = 0; u < num; ++u) {
    for (const int v : cfg.nodes[u].succs) {
      preds[static_cast<std::size_t>(v)].push_back(static_cast<int>(u));
    }
  }
  std::map<std::size_t, std::size_t> suspend_site;  ///< item -> co_await tok

  auto process = [&](std::size_t ni, State st) {
    const CfgNode& nd = cfg.nodes[ni];
    for (std::size_t i = nd.tok_begin; i < nd.tok_end && i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      if (t[i].text == "co_await" && !in_lambda(fn, i)) {
        for (auto& [idx, phase] : st) {
          if (phase != 0) continue;
          phase = 1;
          suspend_site.emplace(idx, i);
        }
      }
    }
    // Binds activate at end of node: a co_await inside the binding
    // statement itself completes before the reference exists.
    for (const std::size_t idx : binds[ni]) st[idx] = 0;
    return st;
  };

  std::vector<State> in_state(num);
  std::vector<State> out_state(num);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t n = 0; n < num; ++n) {
      State in;
      for (const int p : preds[n]) {
        for (const auto& [idx, phase] : out_state[static_cast<std::size_t>(p)]) {
          auto [it, fresh] = in.emplace(idx, phase);
          if (!fresh && phase > it->second) it->second = phase;
        }
      }
      State out = process(n, in);
      if (in != in_state[n] || out != out_state[n]) {
        in_state[n] = std::move(in);
        out_state[n] = std::move(out);
        changed = true;
      }
    }
  }
  // Deterministic reporting sweep with the converged states. Each item
  // reports at most once (lambda items via a local once-set).
  std::set<std::size_t> reported_lambdas;
  for (std::size_t n = 0; n < num; ++n) {
    // Re-run with reporting; lambda crossings report on the transition
    // 0 -> 1, which exists in this sweep exactly where it first happened
    // because in-states are converged.
    State st = in_state[n];
    const CfgNode& nd = cfg.nodes[n];
    for (std::size_t i = nd.tok_begin; i < nd.tok_end && i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      if (t[i].text == "co_await" && !in_lambda(fn, i)) {
        for (auto& [idx, phase] : st) {
          if (phase != 0) continue;
          phase = 1;
          if (items[idx].is_lambda && reported_lambdas.insert(idx).second) {
            const Token& intro = t[items[idx].tok];
            sink.report(
                "C2", intro.line, intro.col,
                "by-ref-capturing lambda escapes into a call and the "
                "enclosing coroutine then suspends: captured locals live "
                "in the coroutine frame, and the closure can run across "
                "or after the suspension — capture by value",
                {{f.path, intro.line, intro.col,
                  "closure with by-ref captures escapes here"},
                 {f.path, t[i].line, t[i].col,
                  "enclosing coroutine suspends here"}});
          }
        }
        continue;
      }
      const auto nit = by_name.find(std::string(t[i].text));
      if (nit == by_name.end()) continue;
      const std::size_t idx = nit->second;
      if (i == items[idx].tok) continue;
      const auto sit = st.find(idx);
      if (sit == st.end() || sit->second != 1) continue;
      const auto su_it = suspend_site.find(idx);
      if (su_it == suspend_site.end()) continue;
      const Token& bind = t[items[idx].tok];
      sink.report(
          "C2", bind.line, bind.col,
          "reference '" + items[idx].name +
              "' bound to a container element is used after the "
              "coroutine suspends: the container can mutate across the "
              "suspension, leaving the reference dangling — re-acquire "
              "it after the co_await or copy the value",
          {{f.path, bind.line, bind.col, "reference bound here"},
           {f.path, t[su_it->second].line, t[su_it->second].col,
            "coroutine suspends here (co_await)"},
           {f.path, t[i].line, t[i].col, "used here after resumption"}});
      st.erase(idx);  // one report per item per path prefix
      by_name.erase(nit);  // and one per item overall
    }
    for (const std::size_t idx : binds[n]) st[idx] = 0;
    (void)st;
  }
}

// ---------------------------------------------------------------------
// L1: lock-order graph.
// ---------------------------------------------------------------------

void FlowAnalysis::build_lock_summaries() {
  for (const auto& f : files_) {
    const auto& t = *f.toks;
    for (const auto& fn : *f.fns) {
      auto& out = direct_locks_[fn.name];
      for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size();
           ++i) {
        if (in_lambda(fn, i) || t[i].kind != Token::kIdent) continue;
        if (is_guard_type(t[i].text)) {
          std::size_t j = i + 1;
          if (j < t.size() && is(t[j], "<")) {
            j = skip_angles(t, j);
            if (j == knpos) continue;
          }
          if (j + 1 >= t.size() || t[j].kind != Token::kIdent ||
              !is(t[j + 1], "(")) {
            continue;
          }
          const std::size_t close = skip_parens(t, j + 1);
          if (close == knpos) continue;
          for (std::size_t k = j + 2; k + 1 < close; ++k) {
            if (t[k].kind == Token::kIdent &&
                mutex_names_.count(std::string(t[k].text)) != 0) {
              out.insert(std::string(t[k].text));
            }
          }
        } else if (t[i].text == "lock" && i >= 2 &&
                   (is(t[i - 1], ".") || is(t[i - 1], "->")) &&
                   i + 1 < t.size() && is(t[i + 1], "(")) {
          if (t[i - 2].kind == Token::kIdent &&
              mutex_names_.count(std::string(t[i - 2].text)) != 0) {
            out.insert(std::string(t[i - 2].text));
          } else if (i + 2 < t.size() && !is(t[i + 2], ")")) {
            const std::string key = first_arg_key(t, i + 1);
            if (!key.empty()) out.insert(key);
          }
        }
      }
      if (out.empty()) direct_locks_.erase(fn.name);
    }
  }
}

const std::set<std::string>& FlowAnalysis::lock_closure(
    const std::string& name) {
  const auto [it, fresh] = lock_closure_.try_emplace(name);
  if (fresh) {
    for (const auto& reach : graph_.reachable_from(name)) {
      const auto dit = direct_locks_.find(reach);
      if (dit != direct_locks_.end()) {
        it->second.insert(dit->second.begin(), dit->second.end());
      }
    }
  }
  return it->second;
}

void FlowAnalysis::rule_l1_scan(const FileRef& f, const FunctionInfo& fn) {
  const auto& t = *f.toks;
  struct Held {
    std::string key;
    int depth = 0;  ///< brace depth at acquisition; 0 = manual .lock()
  };
  std::vector<Held> held;
  int depth = 0;

  auto add_edges = [&](const std::string& key, int line, int col,
                       const std::string& note) {
    for (const auto& h : held) {
      if (h.key == key) continue;
      const auto ek = std::make_pair(h.key, key);
      if (lock_edges_.count(ek) == 0) {
        lock_edges_[ek] = LockEdge{h.key, key, f.path, line, col, note};
      }
    }
  };
  auto release_key = [&](const std::string& key) {
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (it->key == key) {
        held.erase(std::next(it).base());
        return;
      }
    }
  };

  for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
    if (in_lambda(fn, i)) continue;
    if (is(t[i], "{")) {
      ++depth;
      continue;
    }
    if (is(t[i], "}")) {
      --depth;
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const Held& h) {
                                  return h.depth > depth && h.depth > 0;
                                }),
                 held.end());
      continue;
    }
    if (t[i].kind != Token::kIdent) continue;
    const std::string_view id = t[i].text;
    if (is_guard_type(id)) {
      std::size_t j = i + 1;
      if (j < t.size() && is(t[j], "<")) {
        j = skip_angles(t, j);
        if (j == knpos) continue;
      }
      if (j + 1 >= t.size() || t[j].kind != Token::kIdent ||
          !is(t[j + 1], "(")) {
        continue;
      }
      const std::size_t close = skip_parens(t, j + 1);
      if (close == knpos) continue;
      for (std::size_t k = j + 2; k + 1 < close; ++k) {
        if (t[k].kind == Token::kIdent &&
            mutex_names_.count(std::string(t[k].text)) != 0) {
          const std::string key(t[k].text);
          add_edges(key, t[k].line, t[k].col, "");
          held.push_back(Held{key, depth});
        }
      }
      i = close - 1;
      continue;
    }
    if ((id == "lock" || id == "unlock") && i >= 2 &&
        (is(t[i - 1], ".") || is(t[i - 1], "->")) && i + 1 < t.size() &&
        is(t[i + 1], "(")) {
      std::string key;
      if (t[i - 2].kind == Token::kIdent &&
          mutex_names_.count(std::string(t[i - 2].text)) != 0) {
        key = std::string(t[i - 2].text);
      } else if (i + 2 < t.size() && !is(t[i + 2], ")")) {
        key = first_arg_key(t, i + 1);  // simulated (CHT-hosted) lock
      }
      if (key.empty()) continue;
      if (id == "lock") {
        add_edges(key, t[i].line, t[i].col, "");
        held.push_back(Held{key, 0});
      } else {
        release_key(key);
      }
      continue;
    }
    // Interprocedural edges: calling into a function whose transitive
    // lock closure is non-empty while holding locks here.
    if (!held.empty() && id != fn.name && i + 1 < t.size() &&
        is(t[i + 1], "(") && !is_guard_type(id)) {
      for (const auto& callee_lock : lock_closure(std::string(id))) {
        add_edges(callee_lock, t[i].line, t[i].col,
                  "via call to '" + std::string(id) + "'");
      }
    }
  }
}

void FlowAnalysis::rule_l1_report(std::vector<Diagnostic>& out) const {
  // Adjacency over the recorded edges.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [key, edge] : lock_edges_) {
    (void)edge;
    adj[key.first].insert(key.second);
  }
  std::set<std::string> reported;  ///< canonical cycle strings
  for (const auto& [key, edge] : lock_edges_) {
    const std::string& u = key.first;
    const std::string& v = key.second;
    // Shortest path v -> u closes a cycle through this edge.
    std::map<std::string, std::string> parent;
    std::deque<std::string> work{v};
    parent[v] = v;
    bool found = v == u;
    while (!work.empty() && !found) {
      const std::string cur = std::move(work.front());
      work.pop_front();
      const auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const auto& nxt : it->second) {
        if (parent.count(nxt) != 0) continue;
        parent[nxt] = cur;
        if (nxt == u) {
          found = true;
          break;
        }
        work.push_back(nxt);
      }
    }
    if (!found) continue;
    std::vector<std::string> cycle;  // u -> v -> ... -> back to u
    cycle.push_back(u);
    if (v != u) {
      std::vector<std::string> tail;
      for (std::string cur = u; cur != v; cur = parent.at(cur)) {
        tail.push_back(parent.at(cur));
      }
      std::reverse(tail.begin(), tail.end());  // v, ..., pred(u)
      cycle.insert(cycle.end(), tail.begin(), tail.end());
    }
    // Canonical form: rotate the smallest lock name to the front.
    const auto mn = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), mn, cycle.end());
    std::string canon;
    for (const auto& c : cycle) {
      canon += c;
      canon += "\x1f";
    }
    if (!reported.insert(canon).second) continue;

    std::string desc;
    std::vector<TraceStep> trace;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      const std::string& a = cycle[k];
      const std::string& b = cycle[(k + 1) % cycle.size()];
      desc += "'" + a + "' -> ";
      const auto eit = lock_edges_.find({a, b});
      if (eit != lock_edges_.end()) {
        const LockEdge& e = eit->second;
        std::string note = "acquires '" + b + "' while holding '" + a + "'";
        if (!e.note.empty()) note += " (" + e.note + ")";
        trace.push_back({e.file, e.line, e.col, std::move(note)});
      }
    }
    desc += "'" + cycle.front() + "'";

    // Report at the first edge of the canonical cycle, suppressible in
    // that file like any other diagnostic.
    const auto first_edge = lock_edges_.find({cycle[0], cycle[1 % cycle.size()]});
    const LockEdge& site =
        first_edge != lock_edges_.end() ? first_edge->second : edge;
    const Annotations* ann = nullptr;
    for (const auto& fr : files_) {
      if (fr.path == site.file) {
        ann = fr.ann;
        break;
      }
    }
    static const Annotations kNoAnn;
    Sink sink(site.file, ann != nullptr ? *ann : kNoAnn, out);
    sink.report("L1", site.line, site.col,
                "lock-order cycle " + desc +
                    ": two contexts can acquire these locks in opposite "
                    "orders and deadlock once CHTs run on real threads; "
                    "pick one global acquisition order",
                std::move(trace));
  }
}

void FlowAnalysis::run(std::vector<Diagnostic>& out) {
  for (const auto& f : files_) graph_.add_file(*f.toks, *f.fns);
  graph_.finalize();
  collect_names();
  build_lock_summaries();
  for (const auto& f : files_) {
    Sink sink(f.path, *f.ann, out);
    for (const auto& fn : *f.fns) {
      rule_r1(f, fn, sink);
      rule_c2(f, fn, sink);
      rule_l1_scan(f, fn);
    }
  }
  rule_l1_report(out);
}

}  // namespace vtopo::lint
