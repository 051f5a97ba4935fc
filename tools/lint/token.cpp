#include "lint/token.hpp"

#include <cctype>

namespace vtopo::lint {

namespace {

constexpr std::pair<std::string_view, std::string_view> kRuleNames[] = {
    {"D1", "nondeterminism"},
    {"D2", "unordered-iter"},
    {"D3", "pointer-order"},
    {"C1", "coro-ref"},
    {"C2", "suspension-lifetime"},
    {"S1", "cross-shard"},
    // Rule B1 is gone; its name stays so perfbench/'s allow() lines parse.
    {"B1", "backend-seam"},
    {"R1", "credit-lease-pairing"},
    {"L1", "lock-order"},
};

constexpr std::string_view kRuleNameList =
    "nondeterminism, unordered-iter, pointer-order, coro-ref, "
    "suspension-lifetime, cross-shard, backend-seam, "
    "credit-lease-pairing or lock-order";

/// Parse "vtopo-lint:" directives out of one comment's text. `col0` is
/// the 1-based column of the comment's first character (exact for line
/// comments; for block comments later lines are attributed to the
/// comment's starting line/column).
void parse_annotations(std::string_view comment, int line, int col0,
                       Annotations& out) {
  std::size_t pos = 0;
  auto col_at = [&](std::size_t p) {
    return col0 + static_cast<int>(p);
  };
  while ((pos = comment.find("vtopo-lint:", pos)) != std::string_view::npos) {
    std::size_t p = pos + std::string_view("vtopo-lint:").size();
    while (p < comment.size() && comment[p] == ' ') ++p;
    const bool file_scope = comment.compare(p, 11, "allow-file(") == 0;
    const bool line_scope =
        !file_scope && comment.compare(p, 6, "allow(") == 0;
    if (!file_scope && !line_scope) {
      out.malformed.push_back(
          {line, col_at(pos),
           "vtopo-lint directive is not allow(...) or allow-file(...)"});
      pos = p;
      continue;
    }
    p += file_scope ? 11 : 6;
    const std::size_t close = comment.find(')', p);
    if (close == std::string_view::npos) {
      out.malformed.push_back(
          {line, col_at(pos), "unterminated vtopo-lint directive '('"});
      return;
    }
    const std::string rule(comment.substr(p, close - p));
    if (!is_known_rule_name(rule)) {
      out.malformed.push_back(
          {line, col_at(p),
           "unknown vtopo-lint rule name '" + rule + "' (want " +
               std::string(kRuleNameList) + ")"});
      pos = close;
      continue;
    }
    // Require a justification: "-- <reason>".
    std::size_t after = close + 1;
    while (after < comment.size() && comment[after] == ' ') ++after;
    const bool has_reason =
        comment.compare(after, 2, "--") == 0 &&
        comment.find_first_not_of(" -", after) != std::string_view::npos;
    if (!has_reason) {
      out.malformed.push_back(
          {line, col_at(pos),
           "vtopo-lint " +
               std::string(file_scope ? "allow-file(" : "allow(") + rule +
               ") needs a justification: \"-- <reason>\""});
      pos = close;
      continue;
    }
    if (file_scope) {
      out.file_allows.push_back(rule);
    } else {
      out.line_allows.emplace_back(line, rule);
    }
    pos = close;
  }
}

bool ident_char_raw(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::string_view annotation_name(std::string_view rule_id) {
  for (const auto& [id, name] : kRuleNames) {
    if (id == rule_id) return name;
  }
  return "annotation";
}

bool is_known_rule_name(std::string_view name) {
  for (const auto& [id, nm] : kRuleNames) {
    if (nm == name) return true;
  }
  return false;
}

std::string blank_noncode(const std::string& src, Annotations& ann) {
  std::string out(src.size(), ' ');
  int line = 1;
  std::size_t line_start = 0;  ///< offset of the current line's first byte
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto copy_nl = [&](std::size_t at) {
    if (src[at] == '\n') {
      out[at] = '\n';
      ++line;
      line_start = at + 1;
    }
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      copy_nl(i);
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {  // line comment
      const std::size_t start = i;
      const int col0 = static_cast<int>(start - line_start) + 1;
      while (i < n && src[i] != '\n') ++i;
      parse_annotations(std::string_view(src).substr(start, i - start), line,
                        col0, ann);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {  // block comment
      const std::size_t start = i;
      const int start_line = line;
      const int col0 = static_cast<int>(start - line_start) + 1;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        copy_nl(i);
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      parse_annotations(std::string_view(src).substr(start, i - start),
                        start_line, col0, ann);
      continue;
    }
    if (c == '\'' && i > 0 && ident_char_raw(src[i - 1])) {
      // Digit separator (8'000'000) or a ud-literal suffix context, not
      // a character literal.
      out[i] = c;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {  // string / char literal
      // Raw string literal? R"delim( ... )delim"
      if (c == '"' && i > 0 && src[i - 1] == 'R') {
        std::size_t d = i + 1;
        while (d < n && src[d] != '(') ++d;
        const std::string delim = ")" + src.substr(i + 1, d - i - 1) + "\"";
        const std::size_t end = src.find(delim, d);
        const std::size_t stop =
            end == std::string::npos ? n : end + delim.size();
        for (; i < stop; ++i) copy_nl(i);
        continue;
      }
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        copy_nl(i);
        ++i;
      }
      if (i < n) ++i;  // closing quote
      continue;
    }
    out[i] = c;
    ++i;
  }
  return out;
}

std::string strip_preprocessor(const std::string& blanked) {
  std::string out = blanked;
  const std::size_t n = out.size();
  std::size_t i = 0;
  while (i < n) {
    // At start of a line: skip whitespace, look for '#'.
    std::size_t j = i;
    while (j < n && (out[j] == ' ' || out[j] == '\t')) ++j;
    if (j < n && out[j] == '#') {
      // Blank to end of line, following backslash continuations.
      bool cont = true;
      while (cont && j < n) {
        cont = false;
        while (j < n && out[j] != '\n') {
          if (out[j] == '\\') {
            // Continuation if the backslash is the last non-space
            // character on the line.
            std::size_t k = j + 1;
            while (k < n && (out[k] == ' ' || out[k] == '\t')) ++k;
            if (k < n && out[k] == '\n') cont = true;
          }
          out[j] = ' ';
          ++j;
        }
        if (cont && j < n) ++j;  // step over the newline, keep blanking
      }
      i = j;
      continue;
    }
    while (i < n && out[i] != '\n') ++i;
    if (i < n) ++i;
  }
  return out;
}

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> toks;
  toks.reserve(code.size() / 4);
  int line = 1;
  std::size_t line_start = 0;
  std::size_t i = 0;
  const std::size_t n = code.size();
  auto col = [&](std::size_t at) {
    return static_cast<int>(at - line_start) + 1;
  };
  while (i < n) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(code[i])) ++i;
      toks.push_back({Token::kIdent,
                      std::string_view(code).substr(start, i - start), line,
                      col(start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t start = i;
      while (i < n && (ident_char(code[i]) || code[i] == '\'' ||
                       ((code[i] == '+' || code[i] == '-') &&
                        (code[i - 1] == 'e' || code[i - 1] == 'E')))) {
        ++i;
      }
      toks.push_back({Token::kNumber,
                      std::string_view(code).substr(start, i - start), line,
                      col(start)});
      continue;
    }
    // Merge "::" and "->" so scope/member chains are easy to walk;
    // everything else stays single-char (so ">>" closes two templates).
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      toks.push_back({Token::kPunct, std::string_view(code).substr(i, 2),
                      line, col(i)});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      toks.push_back({Token::kPunct, std::string_view(code).substr(i, 2),
                      line, col(i)});
      i += 2;
      continue;
    }
    if (c == '&' && i + 1 < n && code[i + 1] == '&') {
      toks.push_back({Token::kPunct, std::string_view(code).substr(i, 2),
                      line, col(i)});
      i += 2;
      continue;
    }
    toks.push_back({Token::kPunct, std::string_view(code).substr(i, 1), line,
                    col(i)});
    ++i;
  }
  return toks;
}

std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is(t[i], "<")) ++depth;
    if (is(t[i], ">")) {
      if (--depth == 0) return i + 1;
    }
    // A ';' or '{' inside what we thought was a template argument list
    // means it was a comparison after all; bail out.
    if (is(t[i], ";") || is(t[i], "{")) return knpos;
  }
  return knpos;
}

std::size_t skip_parens(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is(t[i], "(")) ++depth;
    if (is(t[i], ")")) {
      if (--depth == 0) return i + 1;
    }
  }
  return knpos;
}

std::size_t skip_braces(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is(t[i], "{")) ++depth;
    if (is(t[i], "}")) {
      if (--depth == 0) return i + 1;
    }
  }
  return knpos;
}

}  // namespace vtopo::lint
