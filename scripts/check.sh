#!/usr/bin/env bash
# Runs the full correctness gauntlet (DESIGN.md section 4c):
#
#   1. configure + build the default preset,
#   2. run trac_lint over src/,
#   3. run trac_analyze over the examples/queries corpus and trac_verify
#      over the examples/plans corpus (clean corpus
#      must stay EXACT_MINIMUM and match its goldens; the seeded-bad
#      corpus must match its degraded-verdict goldens), including the
#      --absint goldens, and leave machine-readable findings in
#      findings/ for CI to archive,
#   4. run trac_top against its golden dashboard (deterministic clock),
#      a bench --json smoke run that leaves BENCH_*.json records in
#      bench-json/ for CI to archive (the parallel-relevance record must
#      carry its merge/fanout split), and three short perfbench runs that
#      must report "correct": true and "failed": 0,
#   5. run the whole ctest suite (which re-runs the linters and their
#      self-tests as test cases),
#   6. with --tidy, run clang-tidy (.clang-tidy profile) over src/ —
#      a hard failure when clang-tidy is not installed (the tidy CI job
#      gates on it; use --tidy-only to run just this step),
#   7. build the `debug` preset (TRAC_DEBUG_INVARIANTS) and run the
#      whole ctest suite under it: a release build verifies no plan, so
#      this is where every report in every suite gets verified,
#   8. if clang++ is available, build the `tsa` preset so Clang's
#      thread-safety analysis runs with -Werror=thread-safety.
#
# Exits non-zero on the first failure. Run from anywhere.
set -euo pipefail

run_tidy=0
tidy_only=0
for arg in "$@"; do
  case "$arg" in
    --tidy) run_tidy=1 ;;
    --tidy-only) run_tidy=1; tidy_only=1 ;;
    *) echo "usage: $0 [--tidy|--tidy-only]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

run_tidy_pass() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "error: --tidy requested but clang-tidy is not installed" >&2
    exit 1
  fi
  echo "==> clang-tidy src/ (.clang-tidy profile)"
  mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
  clang-tidy -p build --quiet "${tidy_sources[@]}"
}

if [[ "$tidy_only" -eq 1 ]]; then
  # The tidy pass needs only the configure step (compile_commands.json).
  cmake --preset default
  run_tidy_pass
  echo "==> tidy pass passed"
  exit 0
fi

echo "==> configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j"$(nproc)"

echo "==> trac_lint src/"
./build/tools/trac_lint src

echo "==> trac_analyze examples/queries/"
./build/tools/trac_analyze --schema examples/queries/schema.sql \
  --golden examples/queries/golden --require-exact examples/queries/q*.sql
./build/tools/trac_analyze --schema examples/queries/schema.sql \
  --golden examples/queries/golden/bad examples/queries/bad/bad_*.sql

echo "==> trac_verify examples/plans/ + examples/queries/"
./build/tools/trac_verify --schema examples/plans/schema.sql \
  --golden examples/plans/golden --dump-ir examples/queries/q*.sql
./build/tools/trac_verify --golden examples/plans/golden/bad \
  --dump-ir --expect-findings examples/plans/bad/bad_*.ir

echo "==> trac_verify --absint (abstract-interpretation goldens)"
./build/tools/trac_verify --schema examples/plans/schema.sql \
  --golden examples/plans/golden/absint --dump-absint \
  examples/queries/q*.sql
./build/tools/trac_verify --golden examples/plans/golden/bad/absint \
  --dump-ir --absint --expect-findings examples/plans/bad/absint/bad_*.ir

# The optimizer's decision trail over the clean corpus must stay empty
# (no corpus query is aggregate-only, so no order-changing rule fires).
./build/tools/trac_verify --schema examples/plans/schema.sql \
  --dump-rewrites examples/queries/q*.sql | grep -q "rewrites: none"
# Machine-readable findings over both seeded-bad corpora; CI uploads
# the file as an artifact.
mkdir -p findings
./build/tools/trac_verify --json --absint --expect-findings \
  examples/plans/bad/bad_*.ir examples/plans/bad/absint/bad_*.ir \
  > findings/trac_verify_findings.json

echo "==> trac_profile examples/profiles/ (profiled-session goldens)"
# Clean corpus: every profiled session must byte-match its golden
# (deterministic fixed-step clock) and stay free of TRAC-P001; the
# seeded misestimate fixture must pin its advisory TRAC-P002. The JSON
# run leaves the machine-readable profile record in findings/ for CI.
./build/tools/trac_profile --schema examples/profiles/schema.sql \
  --golden examples/profiles/golden examples/queries/q*.sql
./build/tools/trac_profile --expect-findings \
  --golden examples/profiles/golden/bad examples/profiles/bad/bad_*.ir
./build/tools/trac_profile --json --schema examples/profiles/schema.sql \
  examples/queries/q*.sql examples/profiles/bad/bad_*.ir \
  > findings/trac_profile_sessions.json
[[ -s findings/trac_profile_sessions.json ]] || {
  echo "missing profile record findings/trac_profile_sessions.json" >&2
  exit 1
}

echo "==> profiler-overhead smoke (on vs. off, 5% budget)"
# DESIGN.md section 5.1's overhead contract: a profiled report batch
# must stay within 5% of an unprofiled one. Min-of-N at 20k rows so the
# fixed per-session tail is amortized over realistic query times; the
# gate reads the median of the bench's independent rounds, because one
# round's minima move several percent on a shared host.
TRAC_BENCH_ROWS=20000 ./build/bench/bench_profile_overhead \
  --iters=30 --max-delta-pct=5

echo "==> trac_top examples/telemetry/ (golden dashboard)"
./build/tools/trac_top --golden examples/telemetry/trac_top.txt

echo "==> trac_scenario examples/scenarios/ (golden hostile-grid replays)"
./build/tools/trac_scenario \
  --replay examples/scenarios/correlated-rack-failure.scenario \
  --golden examples/scenarios/golden/correlated-rack-failure.txt
./build/tools/trac_scenario \
  --replay examples/scenarios/backlog-storm.scenario \
  --golden examples/scenarios/golden/backlog-storm.txt

echo "==> bench --json smoke (small rows; records land in bench-json/)"
mkdir -p bench-json
(
  cd bench-json
  TRAC_BENCH_ROWS=2000 ../build/bench/bench_parallel_relevance \
    --threads=2 --json >/dev/null
  TRAC_BENCH_ROWS=2000 ../build/bench/bench_fpr_table --json >/dev/null
  TRAC_BENCH_ROWS=2000 ../build/bench/bench_optimizer --json >/dev/null
)
for f in bench-json/BENCH_parallel_relevance.json \
         bench-json/BENCH_fpr_table.json \
         bench-json/BENCH_optimizer.json; do
  [[ -s "$f" ]] || { echo "missing bench record $f" >&2; exit 1; }
done
# The parallel-relevance record splits wall past the longest strand into
# the set merge and true fan-out; the old merged field must not return.
python3 -c 'import json, sys
r = json.load(open(sys.argv[1]))["results"]
missing = [k for k in ("Naive/2/merge", "Naive/2/fanout") if k not in r]
stale = [k for k in r if k.endswith("/fanout_overhead")]
if missing or stale:
    sys.exit("BENCH_parallel_relevance.json: missing %s, stale %s"
             % (missing, stale))' bench-json/BENCH_parallel_relevance.json

echo "==> perfbench smoke (the benchmark's replay of the library API)"
# perfbench compiles its own replay of a report against the public
# library calls (PlanQuery, LowerReportSession, VerifyIrStatus, ...).
# A traced selective run, a traced scan run (which replays the Naive
# registry walk and Q4's two-part fan-out) and an untraced live-grid run
# must each end in a JSON line with "correct": true and "failed": 0.
for args in "--workload selective-20k --seed 1 --seconds 2 --trace 1" \
            "--workload scan-20k --seed 1 --seconds 2 --trace 1" \
            "--workload grid-live-2k --seed 1 --seconds 2 --trace 0"; do
  # shellcheck disable=SC2086  # $args is a flag list.
  line="$(python3 perfbench/run.py $args | tail -n 1)"
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
    "$line" || { echo "perfbench $args: $line" >&2; exit 1; }
done

echo "==> ctest (default preset)"
ctest --preset default -j"$(nproc)" --output-on-failure

echo "==> hostile-grid scenario suite + snapshot stress under TSan"
# The scenario property test under ThreadSanitizer, with every generated
# grid forced to the full thousand-source scale and a reduced script
# count (TSan is ~10x slower; 12 hostile scripts at max scale beats 200
# at mixed scale for race coverage). A failing script is shrunk and
# dumped into scenario-repro/ as a replayable .scenario file — CI
# uploads that directory as an artifact. The snapshot-isolation stress
# test rides along: it races writers against snapshot readers and
# recency reports, and lockstep first registrations of the same sources
# against readers that require one registry row per source.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target scenario_scenario_property_test scenario_scenario_test \
  --target telemetry_fault_telemetry_test monitor_failure_test \
  --target property_profile_property_test \
  --target concurrency_snapshot_isolation_stress_test
mkdir -p scenario-repro
TRAC_SCENARIO_SCRIPTS=12 \
TRAC_SCENARIO_MIN_SOURCES=1000 \
TRAC_SCENARIO_SOURCES=1000 \
TRAC_SCENARIO_REPRO_DIR="$PWD/scenario-repro" \
ctest --preset tsan -R \
  'scenario_scenario_property_test|scenario_scenario_test|telemetry_fault_telemetry_test|monitor_failure_test|property_profile_property_test|concurrency_snapshot_isolation_stress_test' \
  --output-on-failure

echo "==> absint unit + property suites under UBSan"
# The abstract interpreter's interval arithmetic is exactly the kind of
# code UB hides in (saturating adds/muls near the uint64 edge); run its
# suites with -fno-sanitize-recover so any overflow fails loudly.
cmake --preset ubsan
cmake --build --preset ubsan -j"$(nproc)" \
  --target absint_absint_test property_absint_property_test \
  --target verify_verifier_determinism_test
ctest --preset ubsan -R \
  'absint_absint_test|property_absint_property_test|verify_verifier_determinism_test' \
  --output-on-failure

echo "==> whole ctest suite with TRAC_DEBUG_INVARIANTS (debug preset)"
# A release build plans once and verifies nothing. This build is where
# every report lowers and verifies its session IR, where each executed
# plan is also verified alone (ExecutePlan), where each attempted
# rewrite is checked to leave the lowered IR unchanged, and where every
# TRAC_DCHECK aborts instead of returning a Status.
cmake --preset debug
cmake --build --preset debug -j"$(nproc)"
ctest --preset debug -j"$(nproc)" --output-on-failure

if [[ "$run_tidy" -eq 1 ]]; then
  run_tidy_pass
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "==> thread-safety analysis build (tsa preset, clang++)"
  cmake --preset tsa
  cmake --build --preset tsa -j"$(nproc)"
else
  echo "==> clang++ not found; skipping the thread-safety analysis build"
fi

echo "==> all checks passed"
