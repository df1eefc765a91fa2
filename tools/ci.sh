#!/usr/bin/env bash
# Full CI pipeline:
#   1. Release build + tier-1 ctest suite. Every ctest run (stages 1, 2
#      and 9) also runs the six examples/ programs as `example_*` tests,
#      and tools_test's analyzer fixture table (`artemisc check --json`
#      over every shipped example spec and every examples/specs/bad/
#      fixture, each under the deployment axes that trigger its headline
#      ART0xx code).
#   2. Sanitize build (ASan + UBSan) + tier-1 ctest suite, via
#      tools/run_sanitized_tests.sh.
#   3. Golden-trace gate: `artemisc trace` of the health app under 6-minute
#      charging must be byte-identical to tests/golden/trace/health_6min.jsonl
#      (checked with `artemisc trace diff`); likewise `artemisc forensics
#      dump` must reproduce tests/golden/flight/health_6min.jsonl and, with
#      a wrapping 128-byte ring under 1-minute charging,
#      tests/golden/flight/health_1min_128.jsonl, and
#      `artemisc forensics audit` must report zero mismatches. A forensics
#      run that hot-swaps mid-flight (`--spec2`) must stitch the swap-epoch
#      record into the timeline and still audit clean across the swap.
#   4. Docs link check: every relative .md link in README.md, DESIGN.md,
#      EXPERIMENTS.md, and docs/ must resolve to an existing file.
#   5. Sweep determinism smoke: `artemisc sweep` over a small grid must
#      produce byte-identical JSON for --jobs 1 and --jobs 4, with exit 0;
#      a statically infeasible deployment must be refused with exit 2
#      before any point runs.
#   6. Fleet determinism smoke: `artemisc fleet` over a small device fleet
#      must produce byte-identical JSON for --shards 1 and --shards 4, with
#      exit 0 (the batch-VM differential fuzz runs in stage 1/2/9 via
#      compiled_monitor_test; fleet_test covers shard/tile determinism);
#      the same infeasible deployment must be refused with exit 2.
#   7. Benchmark smoke: perfbench/ (the repo's benchmark, its own CMake
#      package over src/) must build against the engine's public API, pass
#      `run.py --self-test`, and each workload's smoke-size traced run must
#      pass its digest and parity checks — so a refactor that breaks the
#      API perfbench compiles against fails here, not in the benchmark.
#   8. clang-tidy (bugprone-*/performance-*/concurrency-*, .clang-tidy at
#      the repo root) over src/ and tools/; skipped with a notice when
#      clang-tidy is not installed.
#   9. ThreadSanitizer build + tier-1 ctest suite, via
#      tools/run_tsan_tests.sh (races in the sweep engine's thread pool,
#      the compiled-spec cache, and the fleet engine's shard workers —
#      fleet_test runs its sharded configurations under TSan here).
#
# Usage: tools/ci.sh [release-build-dir [sanitize-build-dir [tsan-build-dir]]]
#        (defaults: build-ci, build-sanitize, build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
release_dir="${1:-${repo_root}/build-ci}"
sanitize_dir="${2:-${repo_root}/build-sanitize}"
tsan_dir="${3:-${repo_root}/build-tsan}"

echo "== [1/9] Release build + tests =="
cmake -B "${release_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${release_dir}" -j "$(nproc)"
ctest --test-dir "${release_dir}" --output-on-failure

echo "== [2/9] Sanitized build + tests =="
"${repo_root}/tools/run_sanitized_tests.sh" "${sanitize_dir}"

artemisc="${release_dir}/tools/artemisc"
specs="${repo_root}/examples/specs"

echo "== [3/9] Golden-trace regression =="
# The exported observability stream is deterministic: a fresh run of the
# canonical scenario must reproduce the checked-in golden byte-for-byte.
trace_tmp="$(mktemp /tmp/artemis_trace.XXXXXX.jsonl)"
trap 'rm -f "${trace_tmp}"' EXIT
"${artemisc}" trace --app health --schedule 6min --format jsonl --out "${trace_tmp}" \
  2> /dev/null
if ! "${artemisc}" trace diff "${repo_root}/tests/golden/trace/health_6min.jsonl" \
    "${trace_tmp}"; then
  echo "CI FAIL: health 6min trace diverged from tests/golden/trace/health_6min.jsonl" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 trace_golden_test)" >&2
  exit 1
fi
echo "ok: health 6min trace matches the golden"

# The flight recorder's dump is equally deterministic, and the recovered
# black box must cross-validate against the obs-bus capture of the run.
flight_tmp="$(mktemp /tmp/artemis_flight.XXXXXX.jsonl)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}"' EXIT
"${artemisc}" forensics dump --app health --schedule 6min --out "${flight_tmp}" \
  2> /dev/null
if ! diff -u "${repo_root}/tests/golden/flight/health_6min.jsonl" "${flight_tmp}"; then
  echo "CI FAIL: health 6min flight dump diverged from tests/golden/flight/health_6min.jsonl" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 flight_golden_test)" >&2
  exit 1
fi
echo "ok: health 6min flight dump matches the golden"
# A 128-byte ring under 1-minute charging wraps many times across reboots:
# its decoded times check the whole chain of eviction time bases.
"${artemisc}" forensics dump --app health --schedule 1min --flight-bytes 128 \
  --out "${flight_tmp}" 2> /dev/null
if ! diff -u "${repo_root}/tests/golden/flight/health_1min_128.jsonl" "${flight_tmp}"; then
  echo "CI FAIL: health 1min/128 B flight dump diverged from tests/golden/flight/health_1min_128.jsonl" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 flight_golden_test)" >&2
  exit 1
fi
echo "ok: health 1min/128 B flight dump matches the golden"
if ! "${artemisc}" forensics audit --app health --schedule 6min > /dev/null 2>&1; then
  echo "CI FAIL: flight log does not audit clean against the obs-bus trace" >&2
  exit 1
fi
echo "ok: health 6min flight log audits clean"

# Hot-swap stitch (docs/hotswap.md): a run that hot-swaps monitor images
# mid-flight must leave a sealed swap-epoch record that the timeline
# renders (the cross-version history has no gap at the commit point), and
# the same ring must still audit clean against the obs-bus capture of the
# run. Both commands exit nonzero if the swap never applied.
swap_timeline="$("${artemisc}" forensics timeline --app health \
  --spec "${specs}/health.prop" --spec2 "${specs}/health.prop" \
  --swap-at 2min --schedule 6min --flight-bytes 512 2> /dev/null)"
if ! grep -q "image-epoch=2" <<< "${swap_timeline}"; then
  echo "CI FAIL: forensics timeline does not stitch the swap epoch (no image-epoch line)" >&2
  exit 1
fi
echo "ok: forensics timeline stitches the swap-epoch record"
if ! "${artemisc}" forensics audit --app health --spec "${specs}/health.prop" \
    --spec2 "${specs}/health.prop" --swap-at 2min --schedule 6min \
    --flight-bytes 512 > /dev/null 2>&1; then
  echo "CI FAIL: flight log does not audit clean across a swap epoch" >&2
  exit 1
fi
echo "ok: flight log audits clean across the swap epoch"

echo "== [4/9] Docs link check =="
# Every relative .md link in the top-level docs and docs/ must resolve.
# Matches [text](path.md) and [text](path.md#anchor); external http(s)
# links are skipped.
link_errors=0
for doc in "${repo_root}/README.md" "${repo_root}/DESIGN.md" "${repo_root}/EXPERIMENTS.md" \
    "${repo_root}"/docs/*.md; do
  [[ -f "${doc}" ]] || continue
  while IFS= read -r link; do
    target="${link%%#*}"
    case "${target}" in
      http://*|https://*) continue ;;
    esac
    if [[ ! -e "$(dirname "${doc}")/${target}" ]]; then
      echo "CI FAIL: broken link in ${doc#"${repo_root}"/}: ${link}" >&2
      link_errors=$((link_errors + 1))
    fi
  done < <(grep -o '\[[^]]*\](\([^)]*\.md[^)]*\))' "${doc}" 2>/dev/null \
           | sed 's/.*(\(.*\))/\1/')
done
if [[ "${link_errors}" -ne 0 ]]; then
  echo "CI FAIL: ${link_errors} broken doc link(s)" >&2
  exit 1
fi
echo "ok: all relative .md links resolve"

echo "== [5/9] Sweep determinism smoke =="
# The parallel sweep engine's export must not depend on the worker count.
sweep_j1="$(mktemp /tmp/artemis_sweep_j1.XXXXXX.json)"
sweep_j4="$(mktemp /tmp/artemis_sweep_j4.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}"' EXIT
"${artemisc}" sweep "${repo_root}/examples/sweeps/smoke.json" \
  --jobs 1 --format json --out "${sweep_j1}"
"${artemisc}" sweep "${repo_root}/examples/sweeps/smoke.json" \
  --jobs 4 --format json --out "${sweep_j4}"
if ! diff -q "${sweep_j1}" "${sweep_j4}" > /dev/null; then
  echo "CI FAIL: sweep JSON differs between --jobs 1 and --jobs 4" >&2
  diff "${sweep_j1}" "${sweep_j4}" >&2 || true
  exit 1
fi
echo "ok: sweep JSON is byte-identical for --jobs 1 and --jobs 4"

# A statically infeasible deployment must be refused before any point runs,
# identically for any job count: exit 2 (usage-level refusal), not a grid
# of failing rows.
rc=0
"${artemisc}" sweep --app health --spec "${specs}/bad/infeasible_budget.prop" \
  --budgets 9000 --format json > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "CI FAIL: infeasible sweep deployment should be refused with exit 2 (got ${rc})" >&2
  exit 1
fi
echo "ok: infeasible sweep deployment refused with exit 2"

echo "== [6/9] Fleet determinism smoke =="
# The sharded fleet engine's export must not depend on the shard count.
fleet_s1="$(mktemp /tmp/artemis_fleet_s1.XXXXXX.json)"
fleet_s4="$(mktemp /tmp/artemis_fleet_s4.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}" \
  "${fleet_s1}" "${fleet_s4}"' EXIT
"${artemisc}" fleet --app health --devices 200 --iterations 1 \
  --charges continuous,6min --shards 1 --format json --out "${fleet_s1}"
"${artemisc}" fleet --app health --devices 200 --iterations 1 \
  --charges continuous,6min --shards 4 --format json --out "${fleet_s4}"
if ! diff -q "${fleet_s1}" "${fleet_s4}" > /dev/null; then
  echo "CI FAIL: fleet JSON differs between --shards 1 and --shards 4" >&2
  diff "${fleet_s1}" "${fleet_s4}" >&2 || true
  exit 1
fi
echo "ok: fleet JSON is byte-identical for --shards 1 and --shards 4"

# Fleet parity: the same infeasible deployment is refused up front.
rc=0
"${artemisc}" fleet --app health --spec "${specs}/bad/infeasible_budget.prop" \
  --devices 4 --iterations 1 --budgets 9000 --format json > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "CI FAIL: infeasible fleet deployment should be refused with exit 2 (got ${rc})" >&2
  exit 1
fi
echo "ok: infeasible fleet deployment refused with exit 2"

echo "== [7/9] Benchmark smoke =="
(cd "${repo_root}" && python3 perfbench/run.py --self-test)
for workload in fleet-outage fleet-fresh sweep-grid; do
  result="$(cd "${repo_root}" && python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 1 --trace 1 --size smoke | tail -n 1)"
  if ! grep -q '"correct": true' <<< "${result}"; then
    echo "CI FAIL: perfbench ${workload} smoke run failed its digest or parity checks" >&2
    exit 1
  fi
  echo "ok: perfbench ${workload} smoke run passes its digest and parity checks"
done

echo "== [8/9] clang-tidy static analysis =="
if command -v clang-tidy > /dev/null 2>&1; then
  # Reuse the release build's compile commands; .clang-tidy at the repo
  # root scopes the checks (bugprone-*, performance-*, concurrency-*).
  cmake -B "${release_dir}" -S "${repo_root}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    > /dev/null
  tidy_fail=0
  while IFS= read -r source; do
    if ! clang-tidy -p "${release_dir}" --quiet "${repo_root}/${source}" 2> /dev/null; then
      echo "CI FAIL: clang-tidy findings in ${source}" >&2
      tidy_fail=1
    fi
  done < <(git -C "${repo_root}" ls-files 'src/*.cc' 'tools/*.cc')
  if [[ "${tidy_fail}" -ne 0 ]]; then
    exit 1
  fi
  echo "ok: clang-tidy is clean over src/ and tools/"
else
  echo "skip: clang-tidy not installed (stage runs where the toolchain provides it)"
fi

echo "== [9/9] ThreadSanitizer build + tests =="
"${repo_root}/tools/run_tsan_tests.sh" "${tsan_dir}"

echo "CI: all stages passed"
