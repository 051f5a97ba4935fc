#include "lint/callgraph.hpp"

#include <deque>

namespace vtopo::lint {

namespace {

bool is_call_keyword(std::string_view s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "co_return" ||
         s == "co_await" || s == "co_yield" || s == "sizeof" ||
         s == "alignof" || s == "alignas" || s == "decltype" || s == "new" ||
         s == "delete" || s == "static_assert" || s == "defined" ||
         s == "noexcept" || s == "throw" || s == "assert";
}

}  // namespace

void CallGraph::add_file(const std::vector<Token>& toks,
                         const std::vector<FunctionInfo>& fns) {
  for (const auto& fn : fns) {
    nodes_[fn.name].name = fn.name;
    PendingBody body;
    body.name = fn.name;
    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (toks[i].kind != Token::kIdent || !is(toks[i + 1], "(")) continue;
      if (is_call_keyword(toks[i].text)) continue;
      body.candidates.emplace_back(toks[i].text);
    }
    pending_.push_back(std::move(body));
  }
}

void CallGraph::finalize() {
  for (auto& body : pending_) {
    auto& node = nodes_[body.name];
    for (auto& cand : body.candidates) {
      if (cand != body.name && nodes_.count(cand) != 0) {
        node.callees.insert(cand);
      } else if (cand == body.name) {
        node.callees.insert(cand);  // direct recursion is a real edge
      }
    }
  }
  pending_.clear();
  finalized_ = true;
}

const std::set<std::string>& CallGraph::callees(const std::string& name) const {
  static const std::set<std::string> kEmpty;
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? kEmpty : it->second.callees;
}

std::set<std::string> CallGraph::reachable_from(const std::string& name) const {
  std::set<std::string> seen;
  if (nodes_.count(name) == 0) return seen;
  std::deque<std::string> work{name};
  seen.insert(name);
  while (!work.empty()) {
    const std::string cur = std::move(work.front());
    work.pop_front();
    for (const auto& callee : callees(cur)) {
      if (seen.insert(callee).second) work.push_back(callee);
    }
  }
  return seen;
}

}  // namespace vtopo::lint
