#!/bin/sh
# Repo health check: vet, build, full tests, vet and tests of the
# nested perfbench module (root ./... skips it, so an API change it
# depends on would otherwise surface only as a failed benchmark run),
# the race detector over the instrumented packages (wq, exec, obs, svm),
# the simulator engine (sim, which hands pin and machine state between
# context goroutines), the compiler (whose ring-storage schedule test
# compiles every registry app's graph) plus the app registry's
# concurrent-runs test and the parallel experiment runner, the fault
# matrix with a multi-step app's recovery report and a run that degrades
# to the sequential executor, a smoke of the run-ledger schema
# and the regression gate (a clean re-run must pass, a synthetically
# slowed run must fail), a smoke of the critical-path profiler and the
# what-if cross-check (identity exact, kernel speedup within the gate
# tolerance), a smoke of the fast-path coverage profiler (known bail
# reason named, nonzero DRAM attribution), the streamd job-service
# lifecycle selftest (cache hit byte-identity, mid-run SSE progress,
# /metricz scrape, the /sloz report, a live /debug/pprof goroutine
# profile, the post-drain goroutine-leak gate, SIGTERM drain, valid
# ledger and event log, the streamtrace -events round-trip and the
# -trend ledger rollup) plus a shortened -race soak, and a smoke run
# of the wall-clock benchmark harness.
set -eu
cd "$(dirname "$0")/.."

# Every binary and output of this run lives in one private directory,
# removed on exit whether the check passes or fails.
WORK="$(mktemp -d "${TMPDIR:-/tmp}/streamgpp-check.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== perfbench module: go vet + go test (incl. golden sim cycles) =="
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== go test -race (wq, exec, obs, svm, compiler, sim, apps) =="
go test -race ./internal/wq/ ./internal/exec/ ./internal/obs/ ./internal/svm/ ./internal/compiler/ ./internal/sim/ ./internal/apps/

echo "== go test -race (parallel experiment runner) =="
go test -race -run 'TestFastPathAndParallelRunsAreByteIdentical' ./internal/bench/

echo "== go test -race (streamd soak, shortened) =="
# The full 520-job soak runs in the plain 'go test ./...' pass above;
# -short scales it to 160 jobs so the race-instrumented run stays in
# the tens of seconds while saturation and mid-soak drain remain
# structural.
go test -race -short -run 'TestSoak' ./internal/streamd/

echo "== fuzz smoke (bitvec, wq, sim fast path, TLB, cache, prefetcher, svm bulk ops) =="
go test -run='^$' -fuzz=FuzzVec -fuzztime=5s ./internal/bitvec/
go test -run='^$' -fuzz=FuzzDependencyOrder -fuzztime=5s ./internal/wq/
go test -run='^$' -fuzz=FuzzAccessBulk -fuzztime=5s ./internal/sim/
go test -run='^$' -fuzz=FuzzTLB -fuzztime=5s ./internal/sim/
go test -run='^$' -fuzz=FuzzCache -fuzztime=5s ./internal/sim/
go test -run='^$' -fuzz=FuzzPrefetcher -fuzztime=5s ./internal/sim/
go test -run='^$' -fuzz=FuzzBulkOps -fuzztime=5s ./internal/svm/

echo "== build the CLIs the smokes drive =="
go build -o "$WORK/streamtrace" ./cmd/streamtrace
go build -o "$WORK/streambench" ./cmd/streambench
go build -o "$WORK/streamd" ./cmd/streamd

echo "== fault-matrix smoke =="
# Each fault kind against one experiment at a fixed seed; every run
# must either recover or fail with a structured RunError (exit 1 with
# a diagnosis), never panic. Run twice and byte-compare: the seeded
# schedule must replay identically.
for kind in latency_spike dropped_wakeup dropped_dep_clear enqueue_full kernel_fault poisoned_strip; do
    echo "-- $kind --"
    "$WORK/streamtrace" -app gatscat -n 50000 -fault "$kind:0.2" -faultseed 7 >"$WORK/fault_a.txt" 2>&1 \
        || grep -q "exec:" "$WORK/fault_a.txt" \
        || { echo "fault run ($kind) died without a RunError"; cat "$WORK/fault_a.txt"; exit 1; }
    if grep -q "panic" "$WORK/fault_a.txt"; then
        echo "fault run ($kind) panicked"; cat "$WORK/fault_a.txt"; exit 1
    fi
    "$WORK/streamtrace" -app gatscat -n 50000 -fault "$kind:0.2" -faultseed 7 >"$WORK/fault_b.txt" 2>&1 \
        || grep -q "exec:" "$WORK/fault_b.txt" \
        || { echo "fault replay ($kind) died without a RunError"; cat "$WORK/fault_b.txt"; exit 1; }
    cmp "$WORK/fault_a.txt" "$WORK/fault_b.txt" \
        || { echo "fault replay ($kind) not byte-identical"; exit 1; }
done
# A multi-step app: streamCDP's three time steps must each fold their
# recovery into the reported total, so a run whose fault trace is
# non-empty never reports "no faults".
echo "-- cdp kernel_fault --"
"$WORK/streamtrace" -app cdp -fault kernel_fault:0.3 -faultseed 3 >"$WORK/fault_a.txt" 2>&1 \
    || { echo "cdp fault run failed"; cat "$WORK/fault_a.txt"; exit 1; }
"$WORK/streamtrace" -app cdp -fault kernel_fault:0.3 -faultseed 3 >"$WORK/fault_b.txt" 2>&1 \
    || { echo "cdp fault replay failed"; cat "$WORK/fault_b.txt"; exit 1; }
cmp "$WORK/fault_a.txt" "$WORK/fault_b.txt" \
    || { echo "cdp fault replay not byte-identical"; exit 1; }
grep -q "trace (replay with" "$WORK/fault_a.txt" \
    || { echo "cdp fault run injected no faults"; cat "$WORK/fault_a.txt"; exit 1; }
if grep -q "no faults" "$WORK/fault_a.txt"; then
    echo "cdp fault run reports no faults beside a non-empty fault trace"; cat "$WORK/fault_a.txt"; exit 1
fi
# The sequential executor, driven on purpose: at this rate and seed a
# strip exhausts its retries in the two-context attempt, and the run
# degrades to the single-context schedule, which completes (retrying
# one more fault itself).
echo "-- gatscat degraded to 1-ctx --"
"$WORK/streamtrace" -app gatscat -n 20000 -fault kernel_fault:0.4 -faultseed 5 >"$WORK/fault_a.txt" 2>&1 \
    || { echo "degrading fault run failed"; cat "$WORK/fault_a.txt"; exit 1; }
"$WORK/streamtrace" -app gatscat -n 20000 -fault kernel_fault:0.4 -faultseed 5 >"$WORK/fault_b.txt" 2>&1 \
    || { echo "degrading fault replay failed"; cat "$WORK/fault_b.txt"; exit 1; }
cmp "$WORK/fault_a.txt" "$WORK/fault_b.txt" \
    || { echo "degrading fault replay not byte-identical"; exit 1; }
grep -q "degraded to 1-ctx" "$WORK/fault_a.txt" \
    || { echo "fault run did not degrade to 1-ctx"; cat "$WORK/fault_a.txt"; exit 1; }
echo "== run-ledger schema + regression gate smoke =="
GATE_BASE="$WORK/gate-base.jsonl"
# -repeat 5 so the median sheds the first runs' warm-up inflation: on
# a shared machine the timed runs within one invocation can decay
# 1.5x as background load settles, and a 3-sample median still
# carries that.
"$WORK/streambench" -exp quickstart -quick -repeat 5 -ledger "$GATE_BASE" >/dev/null
"$WORK/streambench" -validate "$GATE_BASE"
# An unmodified re-run must pass the gate...
"$WORK/streambench" -exp quickstart -quick -repeat 5 -compare "$GATE_BASE" >/dev/null \
    || { echo "regression gate flagged an unmodified re-run"; exit 1; }
# ...a synthetically slowed run must fail it. The multiplier is 3x,
# not just past the gate's +18% cap: cross-invocation wall-clock
# drift on a shared machine reaches ~1.6x (measured), which masked a
# 1.2x synthetic slowdown and made this smoke flaky. The gate itself
# is exercised with realistic margins by internal/obs/regress_test.go;
# this smoke only proves the CLI wiring fires end to end.
if "$WORK/streambench" -exp quickstart -quick -repeat 5 -slowdown 3 -compare "$GATE_BASE" >/dev/null 2>&1; then
    echo "regression gate failed to flag a 3x slowdown"; exit 1
fi
# ...and streamtrace's ledger entries share the same schema.
"$WORK/streamtrace" -app quickstart -n 50000 -ledger "$GATE_BASE" >/dev/null
"$WORK/streambench" -validate "$GATE_BASE"

echo "== critical-path + what-if smoke =="
# The profiler must attribute the quickstart makespan...
"$WORK/streamtrace" -app quickstart -n 50000 -critpath >"$WORK/critpath.txt"
grep -q "Critical path (stream run):" "$WORK/critpath.txt" \
    || { echo "streamtrace -critpath printed no path"; cat "$WORK/critpath.txt"; exit 1; }
grep -q "calibration: predicted" "$WORK/critpath.txt" \
    || { echo "streamtrace -critpath printed no advisor calibration"; cat "$WORK/critpath.txt"; exit 1; }
# ...and the what-if cross-check must hold: the identity scenario is
# exact (delta printed as exactly +0.00% on both sides) and the
# kernel-speedup and single-context predictions agree with the
# simulator re-runs within the regression-gate tolerance (streambench
# exits 3 on disagreement).
"$WORK/streambench" -whatif "ident,kernel=1.25,1ctx" -quick -ledger "$GATE_BASE" >"$WORK/whatif.txt" \
    || { echo "what-if cross-check failed (analytical vs empirical disagree)"; cat "$WORK/whatif.txt"; exit 1; }
grep "ident" "$WORK/whatif.txt" | grep -q "+0.00%" \
    || { echo "identity scenario not exact"; cat "$WORK/whatif.txt"; exit 1; }
grep "kernel=1.25" "$WORK/whatif.txt" | grep -q "PASS" \
    || { echo "kernel=1.25 scenario did not pass the gate"; cat "$WORK/whatif.txt"; exit 1; }
"$WORK/streambench" -validate "$GATE_BASE"

echo "== fast-path coverage smoke =="
# The coverage profiler must explain the SPAS run: report a fast-path
# coverage percentage, name a dominant bail reason from the taxonomy
# (SPAS's indexed accesses make one inevitable), and attribute nonzero
# DRAM traffic with a roofline summary.
"$WORK/streamtrace" -app spas -coverage >"$WORK/coverage.txt"
grep -q "fast path served" "$WORK/coverage.txt" \
    || { echo "streamtrace -coverage printed no coverage line"; cat "$WORK/coverage.txt"; exit 1; }
grep -q "dominant bail: " "$WORK/coverage.txt" \
    || { echo "streamtrace -coverage named no dominant bail reason"; cat "$WORK/coverage.txt"; exit 1; }
grep -Eq "indexed|no_pin" "$WORK/coverage.txt" \
    || { echo "streamtrace -coverage missing known bail-reason keys"; cat "$WORK/coverage.txt"; exit 1; }
grep -E "DRAM" "$WORK/coverage.txt" | grep -Eq "[1-9][0-9]*" \
    || { echo "streamtrace -coverage attributed no DRAM bytes"; cat "$WORK/coverage.txt"; exit 1; }
grep -q "roofline" "$WORK/coverage.txt" \
    || { echo "streamtrace -coverage printed no roofline summary"; cat "$WORK/coverage.txt"; exit 1; }

echo "== streamd lifecycle smoke =="
# The selftest drives the full job-service lifecycle over real HTTP:
# submit the quickstart job twice and assert the second response is a
# cache hit with byte-identical output, stream a larger job over SSE
# and assert at least one mid-run progress frame preceded its done
# event, scrape /metricz, SIGTERM the process with a job in flight,
# and assert the drain finished it, rejected new work (503), and left
# a valid repairable ledger plus a complete lifecycle event log. Exit
# 0 means every assertion held.
STREAMD_LEDGER="$WORK/streamd-selftest.jsonl"
"$WORK/streamd" -selftest -ledger "$STREAMD_LEDGER" >"$WORK/streamd_selftest.txt" 2>&1 \
    || { echo "streamd selftest failed"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "cache hit verified" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest verified no cache hit"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "mid-run progress frames over SSE" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest streamed no mid-run progress"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "metricz scrape ok (streamd_jobs_accepted" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest metricz scrape failed"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "ledger valid" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest left no valid ledger"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "event log valid" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest left no valid event log"; cat "$WORK/streamd_selftest.txt"; exit 1; }
# The self-observability plane must have come up inside the same run:
# the SLO report served with its objectives, a real goroutine profile
# fetched over /debug/pprof, and the post-drain goroutine-leak gate
# held (the selftest exits nonzero if the count never settles).
grep -q "selftest sloz ok" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest served no SLO report"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "selftest pprof profile fetched" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest fetched no pprof profile"; cat "$WORK/streamd_selftest.txt"; exit 1; }
grep -q "goroutine-leak gate ok" "$WORK/streamd_selftest.txt" \
    || { echo "streamd selftest goroutine-leak gate did not run"; cat "$WORK/streamd_selftest.txt"; exit 1; }
# The persisted event JSONL must round-trip through the streamtrace
# pretty-printer: a table with the lifecycle edges and no torn tail.
"$WORK/streamtrace" -events "$STREAMD_LEDGER.events" >"$WORK/streamd_events.txt" 2>&1 \
    || { echo "streamtrace -events failed on the selftest log"; cat "$WORK/streamd_events.txt"; exit 1; }
grep -q "terminal" "$WORK/streamd_events.txt" \
    || { echo "event log pretty-print shows no terminal edge"; cat "$WORK/streamd_events.txt"; exit 1; }
grep -q "events over" "$WORK/streamd_events.txt" \
    || { echo "event log pretty-print incomplete"; cat "$WORK/streamd_events.txt"; exit 1; }
if grep -q "torn final line" "$WORK/streamd_events.txt"; then
    echo "selftest event log has a torn tail"; cat "$WORK/streamd_events.txt"; exit 1
fi
# The same ledger must roll up into a trend report (too few runs per
# experiment here to flag anomalies — the smoke proves the wiring).
"$WORK/streamtrace" -trend "$STREAMD_LEDGER" >"$WORK/streamd_trend.txt" 2>&1 \
    || { echo "streamtrace -trend failed on the selftest ledger"; cat "$WORK/streamd_trend.txt"; exit 1; }
grep -q "wall_ns" "$WORK/streamd_trend.txt" \
    || { echo "trend report shows no wall_ns series"; cat "$WORK/streamd_trend.txt"; exit 1; }

echo "== scripts/bench.sh smoke =="
sh scripts/bench.sh smoke

echo "OK"
