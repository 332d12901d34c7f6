#!/usr/bin/env bash
# Single local entry point for everything CI runs.
#
# Usage: ci/check.sh [--fast]
#
#   (no flag)  full CI: hermeticity, format, lints, conformance, release
#              build, workspace tests, results/ freshness, bench smoke +
#              perf gates, benchmark/ smoke, metrics smoke — what the
#              release CI job runs.
#   --fast     inner-loop subset: format, lints, conformance, and the debug
#              workspace test suite (lock sanitizer armed). No release
#              build, no benches; finishes in under two minutes warm.
#
# The whole suite is offline by design: every dependency is a path dep into
# this repository (enforced by hotc-lint's hermetic-deps rule, which tier-1
# runs through tests/lint_clean.rs), so `--offline` both proves
# the hermeticity claim and keeps the script runnable on an air-gapped box.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "usage: ci/check.sh [--fast]" >&2; exit 2 ;;
    esac
done

run() {
    echo
    echo "==> $*"
    "$@"
}

# 1. Hermeticity: the dependency graph resolves without any network access.
run cargo metadata --offline --format-version 1 >/dev/null

# 2. Format and lints.
run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings

# 3. Repo-specific conformance analyzer: determinism and concurrency rules
#    clippy cannot express (wall-clock, raw locks, hash-order iteration,
#    unwrap on the request path, atomic-ordering conformance, hermetic
#    manifests, `pub` items no other package names). Deny by default;
#    escapes need `// lint:allow(rule, reason)`. The JSON report is the CI
#    artifact; a dirty report exits nonzero here.
echo
echo "==> cargo run --offline -q -p hotc-lint -- --json > lint-report.json"
cargo run --offline -q -p hotc-lint -- --json > lint-report.json

# 3b. One replay loop: production code runs `run_trace_core` in
#     crates/bench/src/driver.rs and nothing else. (a) Only simclock itself
#     and the `reference` oracle modules may put events on a
#     `simclock::Simulation`; (b) the reference driver may be named only by
#     `reference` modules, benches and tests; (c) arrivals are produced only
#     by the cursors in crates/workloads/src/trace.rs — the Vec<Arrival>
#     generator modules collect them and build none of their own; (d) the
#     retired twins (pool façade, parallel runner entry, free-standing
#     histogram, gateway-side last-app trackers, the shared clock, the retry
#     driver, the pool's second storage past the slot array and its fixed
#     table shapes, the keep-alive baselines' second pool and providers and
#     HotC's prediction switch, all now scaling policies of the one pool)
#     stay retired — a list that stops growing here: what
#     PR 20 deleted has no entry, because step 3's `dead-pub` rule plus
#     rustc's `dead_code` under step 2's `-D warnings` fail on any `pub` item
#     nothing outside its crate names and any crate-private one nothing
#     uses, whatever it is called.
echo
echo "==> one-replay-loop guard"
if grep -rnE 'Simulation|schedule_(at|in)\b' crates/*/src src examples --include='*.rs' \
    | grep -vE '^crates/simclock/|/reference\.rs:'; then
    echo "event scheduling outside crates/simclock and the reference modules (see above)" >&2
    exit 1
fi
if grep -rnE '(hotc_bench|crate)::reference|reference::run_workload' crates src examples --include='*.rs' \
    | grep -vE '/reference\.rs:|/benches/|/tests/|:[0-9]+:[[:space:]]*//'; then
    echo "the reference driver is named outside reference modules, benches and tests (see above)" >&2
    exit 1
fi
for module in patterns azure youtube; do
    if sed '/#\[cfg(test)\]/,$d' "crates/workloads/src/$module.rs" \
        | grep -nE 'Arrival[[:space:]]*\{'; then
        echo "crates/workloads/src/$module.rs builds an Arrival outside trace.rs (see above)" >&2
        exit 1
    fi
done
if grep -rnE 'ContainerPool|run_scenario_parallel|SharedHistogram|AppTracker|ShardedTracker|note_app|SharedClock|handle_with_retries|overflow_avail|overflow_in_use|overflow_transit|settle_overflow|SlowClaim|claim_slow|claim_in_use_scan|release_slow|KEY_TABLE_CHUNKS|RINDEX_CHUNKS|WarmShelf|FixedKeepAlive|PeriodicWarmup|HybridKeepAlive|disable_prediction' crates src tests examples; then
    echo "a retired duplicate is back (see above)" >&2
    exit 1
fi

# 4. Workspace test suite. Debug profile arms the lock-order sanitizer
#    (the metrics registry's request-path scope). In --fast mode this is
#    the last step.
run cargo test -q --workspace --offline

if [ "$FAST" = 1 ]; then
    echo
    echo "Fast checks passed."
    exit 0
fi

# 6. Tier-1: release build + root test suite, offline (release compiles the
#    sanitizer out; the perf numbers below come from this profile).
#    --workspace so the metrics smoke below gets its hotc-sim binary from
#    this build rather than from whatever was in target/ already.
run cargo build --workspace --release --offline
run cargo test -q --offline

# 6b. The committed figures are what the code produces: regenerate all of
#     them and compare byte for byte with results/.
FIGS_OUT="$(mktemp -d)"
trap 'rm -rf "$FIGS_OUT"' EXIT
run sh -c "./target/release/repro all --out '$FIGS_OUT' >/dev/null"
run diff -r "$FIGS_OUT" results

# 7. Perf smoke: every bench suite in --smoke mode, accumulating one
#    JSON-Lines record per suite into BENCH_ci.json (the CI perf artifact),
#    then the perf-gate checker evaluates ci/gates.json against it —
#    suite/record presence, max-mean thresholds, and scaling ratios all
#    live in that file, not in shell.
export BENCH_OUT_DIR="$PWD"
rm -f "$BENCH_OUT_DIR/BENCH_ci.json"
# --benches keeps cargo from also running the crate's libtest unit-test
# target, which would reject the custom --smoke flag.
run cargo bench --offline -p hotc-bench --benches -- --smoke
run cargo run --offline -q -p hotc-bench --bin gate -- "$BENCH_OUT_DIR/BENCH_ci.json" ci/gates.json

# 7b. The benchmark package (its own workspace, path deps into crates/)
#     still builds against this tree and every workload still reproduces
#     `run_scenario`'s snapshot: its own tests, then all five workloads in
#     all three passes at 1/10 size. API drift in crates/ otherwise shows
#     up only when the merge pipeline runs BENCHMARK.json. Reads benchmark/,
#     writes only the ignored benchmark/target and benchmark/out. Neither
#     build passes --locked, so cargo would rewrite benchmark/Cargo.lock
#     silently when a crates-side manifest changes; compare it afterwards.
LOCK_COPY="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY"' EXIT
cp benchmark/Cargo.lock "$LOCK_COPY"
run sh -c '(cd benchmark && cargo test --release --offline)'
BENCHMARK_OUT="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY" "$BENCHMARK_OUT"' EXIT
if ! run sh -c "benchmark/run.sh --smoke --seconds 0 > '$BENCHMARK_OUT'" \
    || grep -q '"correct":false' "$BENCHMARK_OUT"; then
    echo "benchmark smoke: non-zero exit or a workload failed its correctness checks:" >&2
    grep -E '^FAILED|"correct":false' "$BENCHMARK_OUT" | cut -c1-200 >&2
    exit 1
fi
echo "benchmark smoke OK"
if ! cmp -s "$LOCK_COPY" benchmark/Cargo.lock; then
    echo "the benchmark build rewrote benchmark/Cargo.lock: a crates-side change may" >&2
    echo "not touch it (ROADMAP house rule 1 - queue it for the benchmark PR)" >&2
    exit 1
fi

# 7c. Traced-allocation budget, print-only: the traced pass fails any
#     workload whose mirrored loop allocates > 1 % off `run_scenario`'s
#     count, a ratio over all allocations, so a change that only trims
#     allocations can cross it without touching the loop. Show the slack
#     per workload at --smoke size before it runs out, and the counted
#     pass's allocated bytes per request beside it.
echo
echo "==> traced-allocation drift |traced - allocs| / allocs (--smoke; the traced pass fails at 1 %)"
TRACE_REF="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY" "$BENCHMARK_OUT" "$TRACE_REF"' EXIT
for workload in warm_steady evict_churn always_cold tick_sweep cluster_affinity; do
    benchmark/target/release/hotc-benchmark-counted --pass counted --workload "$workload" \
        --seed 1 --trace 1 --smoke --reference "$TRACE_REF" | tail -n 1 \
        | sed -E 's/.*"allocs":([0-9]+).*"bytes":([0-9]+).*"requests":([0-9]+).*"traced_allocs":([0-9]+).*/\1 \4 \2 \3/' \
        | awk -v w="$workload" '{ d = $2 - $1; if (d < 0) d = -d;
            printf "    %-17s allocs %9d  traced %9d  drift %.2f %%  %7.2f B/req\n", w, $1, $2, 100 * d / $1, $3 / $4 }'
done

# 8. Telemetry smoke: run the demo scenario with --metrics-out and assert the
#    snapshot is well-formed with nonzero cold-start stage counts; then with
#    --verbose, and assert it prints one per-request line per request served
#    and, after them, exactly the plain run's summary table.
METRICS_OUT="$(mktemp)"
DEMO_OUT="$(mktemp)"
VERBOSE_OUT="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY" "$BENCHMARK_OUT" "$TRACE_REF" "$METRICS_OUT" "$DEMO_OUT" "$VERBOSE_OUT"' EXIT
run sh -c "./target/release/hotc-sim --demo | ./target/release/hotc-sim - --metrics-out '$METRICS_OUT' > '$DEMO_OUT'"
run sh -c "./target/release/hotc-sim --demo | ./target/release/hotc-sim - --verbose > '$VERBOSE_OUT'"
# The summary row follows the table's dashed rule; its first column is the
# request count (432 for the demo).
DEMO_REQUESTS="$(awk '/^-+$/ { getline; print $1; exit }' "$DEMO_OUT")"
VERBOSE_LINES="$(grep -cE '^r[0-9]+ \|' "$VERBOSE_OUT" || true)"
if [ "$VERBOSE_LINES" != "$DEMO_REQUESTS" ]; then
    echo "--verbose printed $VERBOSE_LINES per-request lines for $DEMO_REQUESTS requests" >&2
    exit 1
fi
sed -n '/^== scenario summary ==$/,$p' "$VERBOSE_OUT" | cmp -s - "$DEMO_OUT" \
    || { echo "--verbose summary table differs from the plain run's" >&2; exit 1; }
echo "verbose demo OK ($VERBOSE_LINES per-request lines)"
echo
echo "==> metrics snapshot smoke ($METRICS_OUT):"
test -s "$METRICS_OUT"
# Counters present and nonzero (the demo workload always cold-starts some).
grep -q '"gateway/requests": [1-9]' "$METRICS_OUT" \
    || { echo "metrics snapshot missing nonzero gateway/requests" >&2; exit 1; }
grep -q '"gateway/cold_starts": [1-9]' "$METRICS_OUT" \
    || { echo "metrics snapshot missing nonzero gateway/cold_starts" >&2; exit 1; }
# Scope `all` and histogram `gateway/e2e` exist by the snapshot's rule (derived
# from the fn/ scopes), not because some gateway declared them.
grep -q '^    "all": {' "$METRICS_OUT" \
    || { echo "metrics snapshot missing stage scope 'all'" >&2; exit 1; }
grep -q '^    "gateway/e2e": {' "$METRICS_OUT" \
    || { echo "metrics snapshot missing histogram 'gateway/e2e'" >&2; exit 1; }
# Cold-start stages recorded (zero-count stages are omitted from the JSON,
# so presence implies a nonzero count). image_pull is rightly absent: the
# demo engine stores images locally, so pull cost is zero.
for stage in runtime_init network_setup resource_alloc code_load app_init exec; do
    grep -q "\"$stage\"" "$METRICS_OUT" \
        || { echo "metrics snapshot missing stage '$stage'" >&2; exit 1; }
done
# Every emitted stage histogram carries a nonzero count.
if grep -q '"count": 0' "$METRICS_OUT"; then
    echo "metrics snapshot contains a zero-count stage histogram" >&2; exit 1
fi
echo "metrics snapshot OK"

# 9. Streaming replay smoke: synthesize and replay a 1e6-request / 10k-key
#    day through the CLI's pull-based trace path (never materialized) and
#    assert every request was served. Takes about a minute in release.
REPLAY_OUT="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY" "$BENCHMARK_OUT" "$TRACE_REF" "$METRICS_OUT" "$REPLAY_OUT"' EXIT
run sh -c "./target/release/hotc-sim scenarios/synth_1m.hotc > '$REPLAY_OUT'"
# The summary table's first column is the request count.
grep -Eq '(^|[^0-9])1000000([^0-9]|$)' "$REPLAY_OUT" \
    || { echo "synth_1m replay did not serve 1000000 requests" >&2; exit 1; }
echo "streaming replay smoke OK"

# 10. Parallel replay smoke: the same 1e6-request day, key-partitioned
#     across 4 replay workers, must also serve every request. (Byte-level
#     equivalence with the sequential path is covered by the
#     parallel_equivalence test suite; this asserts the shipped binary's
#     flag path end to end at scale.)
PAR_OUT="$(mktemp)"
trap 'rm -rf "$FIGS_OUT" "$LOCK_COPY" "$BENCHMARK_OUT" "$TRACE_REF" "$METRICS_OUT" "$REPLAY_OUT" "$PAR_OUT"' EXIT
run sh -c "./target/release/hotc-sim scenarios/synth_1m.hotc --replay-threads 4 > '$PAR_OUT'"
grep -Eq '(^|[^0-9])1000000([^0-9]|$)' "$PAR_OUT" \
    || { echo "parallel synth_1m replay did not serve 1000000 requests" >&2; exit 1; }
echo "parallel replay smoke OK"

echo
echo "All checks passed."
