#!/usr/bin/env bash
# Performance gate: runs the benchmark in bench/ on a parent revision and on
# the working tree, alternating between the two on the same host, and fails
# when the change's median of any end-to-end metric on any workload is worse
# than the parent's by more than that metric's bound in BENCHMARK.json.
#
#   scripts/bench-gate.sh <parent-rev>
#
# It needs git, go and jq. The parent is checked out with `git worktree add`
# into a temporary directory that is removed on exit. Each run's output is
# appended to .bench_gate/<side>.log and its last line, the benchmark's JSON
# result, to .bench_gate/<side>.jsonl, where side is parent or change.
#
# It prints one line per workload and metric: both medians, the relative
# change and the verdict. Exit status: 0 pass; 1 a median is worse than its
# bound, or a run failed a correctness check or printed no result; 2 usage.
set -euo pipefail

# Each of the PAIRS pairs runs both sides once, and the side that goes first
# alternates. Every run gives each workload RUN_SECONDS of timed reps.
readonly PAIRS=10 RUN_SECONDS=2

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench-gate.sh <parent-rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
	echo "bench-gate: unknown revision $1" >&2
	exit 2
}

tmp=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$parent"

out="$root/.bench_gate"
rm -rf "$out"
mkdir -p "$out"

# run SIDE DIR runs the benchmark once in DIR and keeps its output.
run() {
	local side=$1 dir=$2 status=0
	(cd "$dir" && bash bench/run.sh --workload all --seed 1 --seconds "$RUN_SECONDS") >"$tmp/run.log" 2>&1 || status=$?
	cat "$tmp/run.log" >>"$out/$side.log"
	if ! tail -n 1 "$tmp/run.log" | jq -ce 'select(has("failed"))' >>"$out/$side.jsonl"; then
		echo "bench-gate: $side run exited $status with no result line; see $out/$side.log" >&2
		exit 1
	fi
}

for i in $(seq 1 "$PAIRS"); do
	echo "bench-gate: pair $i of $PAIRS" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
done

# One row for the failed reps summed over every run on each side, then one
# per workload and metric in BENCHMARK.json: the medians over every run on
# each side, the relative change and the verdict. When the parent's median
# is 0 the change's must be 0 too.
jq -nr \
	--slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile parent "$out/parent.jsonl" \
	--slurpfile change "$out/change.jsonl" '
	def median: sort | if length == 0 then null
		elif length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def medians($runs; $key): [$runs[].metrics[$key].value | numbers] | median;
	def row($key; $p; $c; $rel; $verdict):
		"\($key)\t\($p)\t\($c)\t\(if $rel == null then "-" else "\($rel * 10000 | round / 100)%" end)\t\($verdict)";
	($parent | map(.failed) | add) as $pf | ($change | map(.failed) | add) as $cf |
	row("failed reps"; $pf; $cf; null; if $pf + $cf > 0 then "FAIL" else "ok" end),
	($spec[0] as $s | $s.workloads[].name as $w | $s.end_to_end[] |
		"\($w).\(.name)" as $key |
		medians($parent; $key) as $p | medians($change; $key) as $c |
		(if $p == null or $c == null or $p == 0 then null else ($c - $p) / $p end) as $rel |
		row($key; $p; $c; $rel;
			if $c == null then "FAIL"
			elif $p == null then "new"
			elif $p == 0 then (if $c == 0 then "ok" else "FAIL" end)
			elif (.better == "lower" and $rel > .bound) or (.better == "higher" and -$rel > .bound) then "FAIL"
			else "ok" end))
' >"$out/verdict.tsv"

printf 'bench-gate: medians of %d runs per side, parent %s\n' "$PAIRS" "$parent"
printf '%-30s %22s %22s %9s  %s\n' metric parent change change verdict
while IFS=$'\t' read -r key p c rel verdict; do
	printf '%-30s %22s %22s %9s  %s\n' "$key" "$p" "$c" "$rel" "$verdict"
done <"$out/verdict.tsv"
if cut -f5 "$out/verdict.tsv" | grep -qx FAIL; then
	echo "bench-gate: FAIL"
	exit 1
fi
echo "bench-gate: ok"
