#!/usr/bin/env bash
# Build the vtopo-lint analyzer and run it over src/, bench/, perfbench/
# and examples/ (the CLI default) — nonzero exit on any unannotated
# violation. Mirrors check_sanitize.sh: configure the default preset,
# build only what is needed, run.
#
# Usage: tools/check_lint.sh [path...]
#   tools/check_lint.sh            # lint the default directories
#   tools/check_lint.sh src/armci  # lint one subtree
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)" --target vtopo_lint

./build/tools/vtopo_lint --root . "$@"
