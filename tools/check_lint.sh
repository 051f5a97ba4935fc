#!/usr/bin/env bash
# Build the vtopo-lint analyzer and run it over src/ and bench/ —
# nonzero exit on any unannotated violation. Mirrors check_sanitize.sh:
# configure the default preset, build only what is needed, run.
#
# Usage: tools/check_lint.sh [path...]
#   tools/check_lint.sh            # lint src/ and bench/
#   tools/check_lint.sh src/armci  # lint one subtree
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)" --target vtopo_lint

./build/tools/vtopo_lint --root . "$@"
