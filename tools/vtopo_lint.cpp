// vtopo-lint CLI: walk source trees and report rule violations.
//
//   vtopo_lint [--root DIR] [path...]
//
// Paths (default: kLintedDirs, "src bench perfbench examples") are files
// or directories, resolved relative to --root (default: current
// directory). Directories are walked recursively for .hpp/.h/.cpp/.cc
// files in sorted order, so output is deterministic.
//
// Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace fs = std::filesystem;

namespace {

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vtopo_lint: --root needs a value\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: vtopo_lint [--root DIR] [path...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "vtopo_lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    paths.assign(std::begin(vtopo::lint::kLintedDirs),
                 std::end(vtopo::lint::kLintedDirs));
  }

  std::vector<fs::path> found;
  for (const auto& p : paths) {
    const fs::path full = root / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && is_source_file(it->path())) {
          found.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      found.push_back(full);
    } else {
      std::fprintf(stderr, "vtopo_lint: no such file or directory: %s\n",
                   full.string().c_str());
      return 2;
    }
  }
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());

  vtopo::lint::Linter linter;
  for (const auto& f : found) {
    std::string content;
    if (!read_file(f, content)) {
      std::fprintf(stderr, "vtopo_lint: cannot read %s\n", f.string().c_str());
      return 2;
    }
    linter.add_file(f.lexically_normal().generic_string(), std::move(content));
  }
  const std::vector<vtopo::lint::Diagnostic> diags = linter.run();

  std::fputs(vtopo::lint::format_text(diags).c_str(), stdout);
  if (diags.empty()) {
    std::printf("vtopo_lint: %zu files clean\n", found.size());
  } else {
    std::printf("vtopo_lint: %zu violation(s) in %zu files\n", diags.size(),
                found.size());
  }
  return diags.empty() ? 0 : 1;
}
