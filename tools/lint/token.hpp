// Shared lexing layer for vtopo-lint: comment/literal blanking,
// annotation harvesting, tokenization, and balanced-delimiter walking.
//
// Every analysis in the linter — the token-shape rules (D1..S1), the
// control-flow engine (cfg.hpp) and the flow rules built on it
// (flow_rules.hpp) — consumes the same Token stream, so line/column
// attribution is consistent across rule families. The blanked buffer
// preserves byte offsets exactly (comments and literals become spaces),
// which is what makes column numbers exact.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vtopo::lint {

inline constexpr std::size_t knpos = static_cast<std::size_t>(-1);

struct Token {
  enum Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string_view text;  ///< view into the blanked buffer
  int line;
  int col;                ///< 1-based column of the first character
};

/// Annotations harvested from comments while blanking.
struct Annotations {
  /// allow(<rule>): (line, rule-name). Covers its own line and the
  /// line that follows it.
  std::vector<std::pair<int, std::string>> line_allows;
  /// allow-file(<rule>): rule names, whole-file scope.
  std::vector<std::string> file_allows;
  /// Malformed annotations (A0 diagnostics).
  struct Malformed {
    int line = 0;
    int col = 1;
    std::string message;
  };
  std::vector<Malformed> malformed;
};

/// Stable rule-id -> annotation-name mapping ("D2" -> "unordered-iter").
[[nodiscard]] std::string_view annotation_name(std::string_view rule_id);
[[nodiscard]] bool is_known_rule_name(std::string_view name);

/// Copy `src` with comments, string literals and char literals replaced
/// by spaces (newlines and byte offsets preserved), collecting
/// annotations from comments.
[[nodiscard]] std::string blank_noncode(const std::string& src,
                                        Annotations& ann);

/// Copy `blanked` with preprocessor lines (leading '#', including
/// backslash continuations) replaced by spaces. The structural parser
/// in cfg.cpp needs brace/paren balance, which `#if`/`#define` lines
/// would wreck; the token-shape rules keep scanning the unstripped
/// stream so macro bodies stay visible to them.
[[nodiscard]] std::string strip_preprocessor(const std::string& blanked);

[[nodiscard]] std::vector<Token> tokenize(const std::string& code);

[[nodiscard]] inline bool is(const Token& t, std::string_view s) {
  return t.text == s;
}

/// Token index just past a balanced <...> starting at `open` (which must
/// be '<'); knpos when unbalanced. Walks nested <> only — good enough
/// for template argument lists, which is the only place it is used.
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& t,
                                      std::size_t open);
[[nodiscard]] std::size_t skip_parens(const std::vector<Token>& t,
                                      std::size_t open);
[[nodiscard]] std::size_t skip_braces(const std::vector<Token>& t,
                                      std::size_t open);

}  // namespace vtopo::lint
