#!/usr/bin/env bash
# Builds the tree with CMAKE_BUILD_TYPE=Sanitize (ASan + UBSan, with
# float-cast-overflow, which GCC's UBSan leaves out; see the top-level
# CMakeLists.txt) and runs the tier-1 ctest suite under it. Exercises the
# compiled-monitor VM — raw stack-pointer arithmetic, packed operands,
# multi-word instructions — and every double-to-integer conversion under
# full checking.
#
# Usage: tools/run_sanitized_tests.sh [build-dir]   (default: build-sanitize)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-sanitize}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Sanitize
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error so a sanitizer report fails the test that triggered it.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "${build_dir}" --output-on-failure
