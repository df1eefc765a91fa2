#!/usr/bin/env bash
# Full CI pipeline:
#   1. Release build + tier-1 ctest suite. Every ctest run (stages 1, 2
#      and 9) also diffs the stdout of the six examples/ programs
#      (`example_*`) and of the paper tables, figures and ablations
#      (`bench_*`: fig12-16, table2, the four ablations,
#      background_checkpoint and flight_overhead) against
#      tests/golden/examples/ and tests/golden/bench/, runs
#      tools_test's analyzer fixture table (`artemisc check --json`
#      over every shipped example spec and every examples/specs/bad/
#      fixture, each under the deployment axes that trigger its headline
#      ART0xx code), renders the five sweep grids of stage 5 in process
#      and diffs them against tests/golden/sweep/ (sweep_test's
#      SweepGoldenTest) and the batch fleet goldens of stage 6
#      (fleet_test's FleetGoldenTest), and runs the allocation-budget suite
#      (tests/alloc_budget_test.cc: heap allocations per device of
#      perfbench's fleet-fresh, fleet-outage and sweep-grid shapes).
#   2. Sanitize build (ASan + UBSan, float-cast-overflow included) +
#      tier-1 ctest suite, via tools/run_sanitized_tests.sh.
#   3. Golden-trace gate: `artemisc trace` of the health app under 6-minute
#      charging must be byte-identical to tests/golden/trace/health_6min.jsonl
#      (checked with `artemisc trace diff`), and its Perfetto export to
#      tests/golden/trace/health_6min.perfetto.json; likewise `artemisc
#      forensics dump` must reproduce tests/golden/flight/health_6min.jsonl
#      and, with a wrapping 128-byte ring under 1-minute charging,
#      tests/golden/flight/health_1min_128.jsonl, and `artemisc forensics
#      audit` must report zero mismatches. A forensics run that hot-swaps
#      mid-flight (`--spec2`) must dump tests/golden/flight/
#      health_6min_swap.jsonl (its swap-epoch record included), stitch the
#      swap-epoch record into the timeline and still audit clean across the
#      swap.
#   4. Docs check: every relative .md link in README.md, DESIGN.md,
#      EXPERIMENTS.md, and docs/ must resolve to an existing file, and every
#      documented artemisc invocation (those docs, this script and the
#      verify skill) may use only flags its subcommand's usage entry lists.
#   5. Sweep determinism smoke: `artemisc sweep` over a small grid must
#      produce byte-identical JSON for --jobs 1 and --jobs 4, with exit 0;
#      the greenhouse and ar apps over both systems, all backends, three
#      charges and a full flight recorder must equal
#      tests/golden/sweep/<app>.json at --jobs 1 and 4, and so must two
#      health grids whose points fold into shared device runs
#      (tests/golden/sweep/health_fold.json: four timekeepers, two budgets,
#      --stats; tests/golden/sweep/health_swap.json: a hot-swap grid); a
#      grid with an unparsable spec must exit 1 and render its error row as
#      tests/golden/sweep/health_errors.json at --jobs 1 and 4; a
#      statically infeasible deployment must be refused with exit 2 before
#      any point runs; and perfbench's 48,000-point sweep-grid shape, run
#      through `artemisc sweep --jobs 2`, must peak below 72 MiB resident.
#   6. Fleet determinism smoke: `artemisc fleet` over a small device fleet
#      must produce byte-identical JSON for --shards 1 and --shards 4, with
#      exit 0 (the batch-VM differential fuzz runs in stage 1/2/9 via
#      compiled_monitor_test; fleet_test covers shard/tile determinism);
#      a scalar-monitor fleet under 1- and 6-minute outages must equal
#      tests/golden/fleet/health_scalar_<backend>.json for each backend
#      (interpreted, compiled, builtin) at --shards 1 and --shards 4; a
#      batch fleet over 16-device tiles must equal
#      tests/golden/fleet/health_batch.json at --shards 1 and 4, and so must
#      a batch and a scalar fleet with --stats (every optional block:
#      batch, class_traffic, traffic, obs) equal
#      tests/golden/fleet/health_{batch,scalar}_stats.json, and batch --stats
#      fleets under three charges equal tests/golden/fleet/
#      {greenhouse,ar,health_dead_state}_batch_stats.json (the last runs
#      examples/specs/bad/dead_state.prop with --no-analyze); the same
#      infeasible deployment must be refused with exit 2.
#   7. Benchmark smoke: perfbench/ (the repo's benchmark, its own CMake
#      package over src/) must build against the engine's public API, pass
#      `run.py --self-test`, and each workload's smoke-size traced run must
#      pass its digest and parity checks. The tier-1 suite of stages 1, 2
#      and 9 already builds the same harness sources against the engine
#      (tests/CMakeLists.txt, `perfbench_harness`) and runs its self-test
#      (`perfbench_self_test`), so a refactor that breaks an API perfbench
#      compiles against fails there; this stage adds perfbench's own
#      Release package, run.py and the traced smoke runs.
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
"${artemisc}" trace --app health --schedule 6min --format perfetto --out "${trace_tmp}" \
  2> /dev/null
if ! diff -q "${repo_root}/tests/golden/trace/health_6min.perfetto.json" "${trace_tmp}" \
    > /dev/null; then
  echo "CI FAIL: health 6min Perfetto export diverged from" \
    "tests/golden/trace/health_6min.perfetto.json" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 trace_golden_test)" >&2
  exit 1
fi
echo "ok: health 6min Perfetto export matches the golden"

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

# A run that hot-swaps its monitor image dumps the only swap-epoch record
# (old_hash, new_hash, image_epoch) that a golden covers. The spec paths
# stay relative, as in the command that generated the golden.
(cd "${repo_root}" && "${artemisc}" forensics dump --app health --schedule 6min \
  --spec examples/specs/health.prop --spec2 examples/specs/health.prop --swap-at 2min \
  --out "${flight_tmp}" 2> /dev/null)
if ! diff -u "${repo_root}/tests/golden/flight/health_6min_swap.jsonl" "${flight_tmp}"; then
  echo "CI FAIL: health 6min swap flight dump diverged from" \
    "tests/golden/flight/health_6min_swap.jsonl" >&2
  exit 1
fi
echo "ok: health 6min swap flight dump matches the golden"

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

echo "== [4/9] Docs link and CLI flag check =="
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

# Every documented `artemisc <subcommand> ...` invocation may use only flags
# that subcommand takes, as listed by its entry in the generated usage text
# (`artemisc` with no arguments). Backslash continuations and synopsis lines
# that start with `[` are joined first; an invocation ends at a backtick,
# `#` comment or `;`.
python3 - "${artemisc}" "${repo_root}" <<'PY'
import pathlib, re, subprocess, sys

artemisc, root = sys.argv[1], pathlib.Path(sys.argv[2])
takes, name = {}, None
for line in subprocess.run([artemisc], capture_output=True, text=True).stderr.splitlines():
    if re.match(r"  \S", line):
        name = re.match(r"  ([^<\[]*?)\s*(?:[<\[]|$)", line).group(1)
        takes[name] = set()
    elif not line.startswith("   "):
        name = None
    if name is not None:
        takes[name] |= set(re.findall(r"\[(--[\w-]+)", line))
names = sorted(takes, key=len, reverse=True)
docs = [root / "README.md", root / "DESIGN.md", root / "EXPERIMENTS.md",
        *sorted((root / "docs").glob("*.md")), root / "tools/ci.sh",
        root / ".claude/skills/verify/SKILL.md"]
errors = 0
for doc in filter(pathlib.Path.exists, docs):
    text = re.sub(r"\\\n\s*", " ", doc.read_text())
    text = re.sub(r"\n[ \t]+(?=\[)", " ", text)
    for call in re.findall(r"artemisc[}\"]*[ \t]+([a-z][^\n`#;]*)", text):
        sub = next((n for n in names if call == n or call.startswith(n + " ")), None)
        for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", call) if sub else []:
            if flag not in takes[sub]:
                print(f"CI FAIL: {doc.relative_to(root)}: artemisc {sub} does not take {flag}",
                      file=sys.stderr)
                errors += 1
sys.exit(1 if errors else 0)
PY
echo "ok: every documented artemisc invocation uses only flags its subcommand takes"

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

# Every point of every app runs on that app's one shared template graph: the
# non-health apps, through both monitor systems, all three backends, outages
# and a full flight recorder, must equal their checked-in goldens.
for app in greenhouse ar; do
  for jobs in 1 4; do
    "${artemisc}" sweep --app "${app}" --systems artemis,mayfly \
      --backends builtin,interpreted,compiled --charges continuous,1min,6min \
      --seeds 1,2,3 --flight full --jobs "${jobs}" --format json --out "${sweep_j1}"
    if ! diff -u "${repo_root}/tests/golden/sweep/${app}.json" "${sweep_j1}"; then
      echo "CI FAIL: ${app} sweep (--jobs ${jobs}) diverged from tests/golden/sweep/${app}.json" >&2
      exit 1
    fi
  done
  echo "ok: ${app} sweep matches the golden for --jobs 1 and 4"
done

# Points that differ only in coordinates their device never reads share one
# run (docs/sweep.md, "Device classes"): Mayfly's backends, continuous
# power's budgets, an outage-free run's timekeepers. Folded grids must still
# equal their goldens, rendered with one device per point. The spec paths
# stay relative, because a row's spec label is the path as given.
for jobs in 1 4; do
  (cd "${repo_root}" && "${artemisc}" sweep --app health --systems artemis,mayfly \
    --backends builtin,interpreted,compiled --charges continuous,1min,6min \
    --timekeepers default,ideal,rtc:0.01,remanence:30s:0.1 --budgets 19500,100000000 \
    --seeds 1,2 --flight full --stats --jobs "${jobs}" --format json --out "${sweep_j1}")
  if ! diff -u "${repo_root}/tests/golden/sweep/health_fold.json" "${sweep_j1}"; then
    echo "CI FAIL: health fold sweep (--jobs ${jobs}) diverged from tests/golden/sweep/health_fold.json" >&2
    exit 1
  fi
  (cd "${repo_root}" && "${artemisc}" sweep --app health --systems artemis --backends compiled \
    --charges continuous,6min --timekeepers default,rtc:0.01 --seeds 1,2 \
    --spec examples/specs/health.prop --spec2 examples/specs/health.prop --swap-at 2min \
    --flight full --jobs "${jobs}" --format json --out "${sweep_j1}")
  if ! diff -u "${repo_root}/tests/golden/sweep/health_swap.json" "${sweep_j1}"; then
    echo "CI FAIL: health swap sweep (--jobs ${jobs}) diverged from tests/golden/sweep/health_swap.json" >&2
    exit 1
  fi
done
echo "ok: folded health sweeps match their goldens for --jobs 1 and 4"

# An unparsable spec is an error row, not a refusal: the grid still runs,
# renders the row's error field, and exits 1.
for jobs in 1 4; do
  rc=0
  (cd "${repo_root}" && "${artemisc}" sweep tests/golden/sweep/health_errors.grid.json \
    --jobs "${jobs}" --format json --out "${sweep_j1}") 2> /dev/null || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "CI FAIL: sweep with an error row should exit 1 (got ${rc}, --jobs ${jobs})" >&2
    exit 1
  fi
  if ! diff -u "${repo_root}/tests/golden/sweep/health_errors.json" "${sweep_j1}"; then
    echo "CI FAIL: error-row sweep (--jobs ${jobs}) diverged from" \
      "tests/golden/sweep/health_errors.json" >&2
    exit 1
  fi
done
echo "ok: error-row sweep matches the golden for --jobs 1 and 4"

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

# Memory guard: a sweep holds one row per point and nothing else per point,
# and sizes its JSON once (docs/sweep.md, "Scaling"). perfbench's sweep-grid
# shape, 48,000 points and a 22.7 MB document, must peak below 72 MiB; it
# peaked at 135.5 MiB when every row embedded a stats aggregator and the
# engine held the expanded grid. /usr/bin/time is not always installed, so
# python3 reads the child's peak resident set (ru_maxrss, KiB on Linux).
grid_seeds="$(seq -s, 3001 4000)"
peak_kib="$(python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' "${artemisc}" sweep --app health --systems artemis,mayfly \
  --backends builtin,interpreted,compiled --charges continuous,1min,6min,10min \
  --timekeepers default,rtc:0.01 --flight full --seeds "${grid_seeds}" \
  --jobs 2 --format json --out "${sweep_j1}")"
if (( peak_kib > 72 * 1024 )); then
  echo "CI FAIL: the 48,000-point sweep peaked at $((peak_kib / 1024)) MiB (limit 72 MiB)" >&2
  exit 1
fi
echo "ok: the 48,000-point sweep peaked at $((peak_kib / 1024)) MiB (limit 72 MiB)"

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

# Batch mode over many tiles: with --tile 16 each lane's capture buffer is
# reused across tiles, and every shard ends on a partial tile.
for shards in 1 4; do
  "${artemisc}" fleet --app health --devices 200 --iterations 1 \
    --charges continuous,6min --tile 16 --shards "${shards}" --format json \
    --out "${fleet_s1}"
  if ! diff -u "${repo_root}/tests/golden/fleet/health_batch.json" "${fleet_s1}"; then
    echo "CI FAIL: batch fleet (--tile 16, --shards ${shards}) diverged from" \
      "tests/golden/fleet/health_batch.json" >&2
    exit 1
  fi
done
echo "ok: batch fleet over 16-device tiles matches the golden for --shards 1 and 4"

# Every optional block of artemis-fleet/1: a batch fleet with --stats renders
# batch, class_traffic, traffic and obs; a scalar fleet with --stats renders
# obs only.
for shards in 1 4; do
  "${artemisc}" fleet --app health --monitor batch --stats --devices 64 --tile 16 \
    --shards "${shards}" --format json --out "${fleet_s1}"
  if ! diff -u "${repo_root}/tests/golden/fleet/health_batch_stats.json" "${fleet_s1}"; then
    echo "CI FAIL: batch --stats fleet (--shards ${shards}) diverged from" \
      "tests/golden/fleet/health_batch_stats.json" >&2
    exit 1
  fi
  "${artemisc}" fleet --app health --monitor scalar --backend compiled --stats --devices 8 \
    --charges 1min,6min --minutes 60 --shards "${shards}" --format json --out "${fleet_s1}"
  if ! diff -u "${repo_root}/tests/golden/fleet/health_scalar_stats.json" "${fleet_s1}"; then
    echo "CI FAIL: scalar --stats fleet (--shards ${shards}) diverged from" \
      "tests/golden/fleet/health_scalar_stats.json" >&2
    exit 1
  fi
done
echo "ok: --stats batch and scalar fleets match their goldens for --shards 1 and 4"

# Batch --stats fleets of the other two apps under three charges, and of a
# spec whose dispatch holds a kCommit entry (examples/specs/bad/
# dead_state.prop, past the gate with --no-analyze; run from the repo root,
# so the relative spec path is the rendered label).
for shards in 1 4; do
  for config in "greenhouse_batch_stats:--app greenhouse" "ar_batch_stats:--app ar" \
      "health_dead_state_batch_stats:--app health --spec examples/specs/bad/dead_state.prop --no-analyze"; do
    golden="${config%%:*}"
    # The flags after the colon are unquoted on purpose: they word-split.
    (cd "${repo_root}" && "${artemisc}" fleet ${config#*:} --monitor batch --stats \
      --devices 64 --tile 16 --charges continuous,1min,6min --shards "${shards}" \
      --format json --out "${fleet_s1}")
    if ! diff -u "${repo_root}/tests/golden/fleet/${golden}.json" "${fleet_s1}"; then
      echo "CI FAIL: batch --stats fleet (${golden}, --shards ${shards}) diverged from" \
        "tests/golden/fleet/${golden}.json" >&2
      exit 1
    fi
  done
done
echo "ok: greenhouse, ar and dead-state batch --stats fleets match their goldens for --shards 1 and 4"

# Scalar monitors under outages: every device drives MonitorSet's machine
# loop through power failures with each backend's step cost (interpreted 46,
# compiled 18, builtin 14 cycles) and that backend's reacting machines. The
# result must not depend on the shard count and must equal the checked-in
# golden.
fleet_scalar="$(mktemp /tmp/artemis_fleet_scalar.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}" \
  "${fleet_s1}" "${fleet_s4}" "${fleet_scalar}"' EXIT
for backend in interpreted compiled builtin; do
  for shards in 1 4; do
    "${artemisc}" fleet --app health --monitor scalar --backend "${backend}" --devices 200 \
      --minutes 480 --charges 1min,6min --shards "${shards}" --format json \
      --out "${fleet_scalar}"
    if ! diff -u "${repo_root}/tests/golden/fleet/health_scalar_${backend}.json" \
        "${fleet_scalar}"; then
      echo "CI FAIL: scalar ${backend} fleet (--shards ${shards}) diverged from" \
        "tests/golden/fleet/health_scalar_${backend}.json" >&2
      exit 1
    fi
  done
  echo "ok: scalar ${backend} fleet under outages matches the golden for --shards 1 and 4"
done

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
