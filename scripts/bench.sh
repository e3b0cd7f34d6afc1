#!/bin/sh
# Measures the simulator's wall-clock performance on the fig5/fig9/fig11
# benchmarks, with the bulk fast path on and off (same binary, selected
# via STREAMGPP_FASTPATH), and writes BENCH_wallclock.json: per
# benchmark, the best ns/op of each mode, the simulated cycles per
# iteration, the simulated-cycles-per-second throughput, and the
# fast-path speedup — the median over rounds of the round's
# reference/fast ns/op ratio, each round running the two modes back
# to back.
#
# If STREAMGPP_BASELINE_BIN names a `go test -c` binary built from an
# older tree (e.g. via `git worktree add /tmp/base <ref>`), it is run
# interleaved with the current one and each record additionally gets
# baseline_ns_per_op and speedup_vs_baseline — wall-clock before/after
# across commits, with machine noise hitting all modes alike.
#
# A full run also appends one run-ledger line per benchmark (the JSONL
# schema of internal/obs/ledger.go, keyed by `git describe`) to
# BENCH_history.jsonl, so wall-clock history accumulates across commits
# and `streambench -compare`/`-validate` can consume it. Each history
# line carries coverage.fastpath_pct and fastpath_speedup metrics plus
# the simulator process's runtime.heap_inuse_bytes and
# runtime.gc_pause_p99_ns (from the benchmarks' runtime collector
# sample), so `streamtrace -trend` can flag memory or GC regressions
# alongside wall-clock ones, and a full run exits 3 if any
# benchmark's median paired speedup is below 0.95 (the fast path >5%
# slower than the reference path in the same binary). Smoke runs leave
# the history untouched and skip the gate.
#
# Usage:
#   scripts/bench.sh          # the measured set (about 7 minutes)
#   scripts/bench.sh smoke    # one tiny benchmark, for check.sh
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="BENCH_wallclock.json"
case "$MODE" in
smoke | --smoke)
	BENCHES='BenchmarkFig9LDSTCompLow'
	TIME=1x
	COUNT=1
	# A smoke run only proves the harness works; don't clobber the
	# checked-in measurement.
	OUT="${TMPDIR:-/tmp}/BENCH_wallclock.smoke.json"
	;;
*)
	BENCHES='BenchmarkFig5Bandwidth BenchmarkFig9LDSTCompLow BenchmarkFig9GATSCATLow BenchmarkFig9PRODCONLow BenchmarkFig11aFEMEulerLin BenchmarkFig11bCDP4n8192 BenchmarkFig11cNeo BenchmarkFig11dSPASLarge'
	TIME=3x
	COUNT=5
	;;
esac
# Key the history rows now: rewriting the tracked BENCH_wallclock.json
# below would otherwise mark every run "-dirty".
COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
BIN="$(mktemp "${TMPDIR:-/tmp}/streamgpp-bench.XXXXXX")"
ON="$(mktemp "${TMPDIR:-/tmp}/streamgpp-on.XXXXXX")"
OFF="$(mktemp "${TMPDIR:-/tmp}/streamgpp-off.XXXXXX")"
BASE="$(mktemp "${TMPDIR:-/tmp}/streamgpp-base.XXXXXX")"
trap 'rm -f "$BIN" "$ON" "$OFF" "$BASE"' EXIT

go test -c -o "$BIN" .

# COUNT rounds; within a round each benchmark runs in every mode back
# to back (fast first in odd rounds, reference first in even ones), so
# the host's slow drift hits both sides of a pair alike and the paired
# ratio cancels it.
: >"$ON"
: >"$OFF"
: >"$BASE"
run() { "$@" -test.run '^$' -test.bench "^$b\$" -test.benchtime "$TIME"; }
i=0
while [ "$i" -lt "$COUNT" ]; do
	for b in $BENCHES; do
		if [ $((i % 2)) -eq 0 ]; then
			run "$BIN" >>"$ON"
			run env STREAMGPP_FASTPATH=off "$BIN" >>"$OFF"
		else
			run env STREAMGPP_FASTPATH=off "$BIN" >>"$OFF"
			run "$BIN" >>"$ON"
		fi
		if [ -n "${STREAMGPP_BASELINE_BIN:-}" ]; then
			run "$STREAMGPP_BASELINE_BIN" >>"$BASE"
		fi
	done
	i=$((i + 1))
done

awk -v onfile="$ON" -v offfile="$OFF" -v basefile="$BASE" '
function ingest(file, best, cyc, cov, rounds, nround,    n, i, name, ns, c, cv, hp, gp, line, f) {
	while ((getline line <file) > 0) {
		n = split(line, f, /[ \t]+/)
		if (f[1] !~ /^Benchmark/) continue
		name = f[1]
		sub(/-[0-9]+$/, "", name)
		ns = -1; c = -1; cv = -1; hp = -1; gp = -1
		for (i = 3; i <= n; i++) {
			if (f[i] == "ns/op") ns = f[i-1]
			if (f[i] == "sim-cycles") c = f[i-1]
			if (f[i] == "fastpath-cov-pct") cv = f[i-1]
			if (f[i] == "heap-inuse-bytes") hp = f[i-1]
			if (f[i] == "gc-pause-p99-ns") gp = f[i-1]
		}
		if (ns < 0) continue
		if (!(name in best) || ns < best[name]) best[name] = ns
		rounds[name, ++nround[name]] = ns
		if (c >= 0) cyc[name] = c
		if (cv >= 0) cov[name] = cv
		# Runtime samples only matter for the fast-path binary under
		# measurement; keep the last sample per benchmark.
		if (file == onfile) {
			if (hp >= 0) heap[name] = hp
			if (gp >= 0) gcp99[name] = gp
		}
		order[++norder] = name
	}
	close(file)
}
# median of the per-round reference/fast ratios (rounds pair by order)
function pairedSpeedup(name,    n, i, j, v, r) {
	n = 0
	for (i = 1; i <= onn[name] && i <= offn[name]; i++)
		if (onr[name, i] > 0) r[++n] = offr[name, i] / onr[name, i]
	for (i = 2; i <= n; i++) {
		v = r[i]
		for (j = i - 1; j >= 1 && r[j] > v; j--) r[j + 1] = r[j]
		r[j + 1] = v
	}
	if (n == 0) return -1
	return n % 2 ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
}
BEGIN {
	norder = 0
	ingest(onfile, on, cycles, covpct, onr, onn)
	ingest(offfile, off, cycles, covoff, offr, offn)
	ingest(basefile, base, basecycles, covbase, baser, basen)
	printf "[\n"
	first = 1
	for (i = 1; i <= norder; i++) {
		name = order[i]
		if (name in done) continue
		done[name] = 1
		if (!first) printf ",\n"
		first = 0
		printf "  {\"benchmark\": \"%s\"", name
		printf ", \"fast_ns_per_op\": %.0f", on[name]
		printf ", \"reference_ns_per_op\": %.0f", off[name]
		if ((spd = pairedSpeedup(name)) > 0)
			printf ", \"fastpath_speedup\": %.2f", spd
		if (name in cycles) {
			printf ", \"sim_cycles\": %.0f", cycles[name]
			if (on[name] > 0)
				printf ", \"sim_cycles_per_sec\": %.0f", cycles[name] * 1e9 / on[name]
		}
		if (name in covpct)
			printf ", \"fastpath_coverage_pct\": %.2f", covpct[name]
		if (name in heap)
			printf ", \"heap_inuse_bytes\": %.0f", heap[name]
		if (name in gcp99)
			printf ", \"gc_pause_p99_ns\": %.0f", gcp99[name]
		if (name in base) {
			printf ", \"baseline_ns_per_op\": %.0f", base[name]
			if (on[name] > 0)
				printf ", \"speedup_vs_baseline\": %.2f", base[name] / on[name]
		}
		printf "}"
	}
	printf "\n]\n"
}' >"$OUT"

echo "wrote $OUT:"
cat "$OUT"

if [ "$MODE" != "smoke" ] && [ "$MODE" != "--smoke" ]; then
	HIST="BENCH_history.jsonl"
	NOW="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	awk -v commit="$COMMIT" -v now="$NOW" '
	/"benchmark"/ {
		name = ""; ns = ""; cyc = ""; cps = ""; cov = ""; spd = ""; hp = ""; gp = ""
		if (match($0, /"benchmark": "[^"]+"/)) name = substr($0, RSTART + 14, RLENGTH - 15)
		if (match($0, /"fast_ns_per_op": [0-9]+/)) ns = substr($0, RSTART + 18, RLENGTH - 18)
		if (match($0, /"sim_cycles": [0-9]+/)) cyc = substr($0, RSTART + 14, RLENGTH - 14)
		if (match($0, /"sim_cycles_per_sec": [0-9]+/)) cps = substr($0, RSTART + 22, RLENGTH - 22)
		if (match($0, /"fastpath_coverage_pct": [0-9.]+/)) cov = substr($0, RSTART + 25, RLENGTH - 25)
		if (match($0, /"fastpath_speedup": [0-9.]+/)) spd = substr($0, RSTART + 20, RLENGTH - 20)
		if (match($0, /"heap_inuse_bytes": [0-9]+/)) hp = substr($0, RSTART + 20, RLENGTH - 20)
		if (match($0, /"gc_pause_p99_ns": [0-9]+/)) gp = substr($0, RSTART + 19, RLENGTH - 19)
		if (name == "" || ns == "") next
		printf "{\"schema\":2,\"time\":\"%s\",\"experiment\":\"%s\",\"commit\":\"%s\",\"fast_path\":true,\"wall_ns\":%s", now, name, commit, ns
		if (cyc != "") printf ",\"sim_cycles\":%s", cyc
		if (cps != "") printf ",\"sim_cycles_per_sec\":%s", cps
		metrics = ""
		if (cov != "") metrics = "\"coverage.fastpath_pct\":" cov
		if (spd != "") metrics = metrics (metrics == "" ? "" : ",") "\"fastpath_speedup\":" spd
		if (hp != "") metrics = metrics (metrics == "" ? "" : ",") "\"runtime.heap_inuse_bytes\":" hp
		if (gp != "") metrics = metrics (metrics == "" ? "" : ",") "\"runtime.gc_pause_p99_ns\":" gp
		if (metrics != "") printf ",\"metrics\":{%s}", metrics
		printf ",\"source\":\"bench.sh\"}\n"
	}' "$OUT" >>"$HIST"
	echo "appended $(grep -c "\"time\":\"$NOW\"" "$HIST") entries to $HIST (commit $COMMIT)"

	# Gate: the fast path must not lose to the reference path in its own
	# binary. fastpath_speedup is the median of per-round paired ratios
	# (each round runs both modes back to back), so one noisy round
	# cannot trip or mask it; a median deficit >5% fails loudly (exit 3,
	# the regression-gate exit code) naming the offenders.
	LOSERS="$(awk '
	/"benchmark"/ {
		name = ""; spd = ""
		if (match($0, /"benchmark": "[^"]+"/)) name = substr($0, RSTART + 14, RLENGTH - 15)
		if (match($0, /"fastpath_speedup": [0-9.]+/)) spd = substr($0, RSTART + 20, RLENGTH - 20)
		if (name != "" && spd != "" && spd + 0 < 0.95)
			printf "%s (%.2fx)\n", name, spd
	}' "$OUT")"
	if [ -n "$LOSERS" ]; then
		echo "FAIL: fast path >5% slower than reference on:" >&2
		echo "$LOSERS" >&2
		exit 3
	fi
fi
