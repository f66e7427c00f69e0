#!/usr/bin/env bash
# Paired benchmark runs: this checkout (the change) against <ref> (the
# parent), for one BENCHMARK.json workload.
#
#   scripts/pairbench.sh <ref> <workload> <pairs> [seed]
#   scripts/pairbench.sh HEAD~1 sharded-replicated-10k 10
#
# <ref> is exported with `git archive` into a scratch directory (under
# $TMPDIR, removed on exit); the change runs in place, uncommitted edits
# included. Both sides run their own `benchmark/run.sh --workload
# <workload> --trace 0` with the benchmark's run length and its default
# seed (or [seed], for the run on a seed the change was not written
# against), each building into its own .bench_build/. Pair i runs the ref
# first when i is odd and the change first when i is even, so drift on
# the machine lands on both sides. One untimed warm-up run per side
# fills the build caches first.
#
# After the warm-up it compares the code layout of the two sides: the
# text symbols (`go tool nm -n`) of the matchd and fpbench binaries the
# warm-up built into each side's .bench_build/, the same binaries every
# timed run executes. Identical text prints "text identical"; otherwise
# it prints, per side, the address mod 64 of the match kernel's and the
# index vote's hot functions, since a hot loop that moves across a
# cache-line or fetch boundary can shift a timing by itself.
#
# Output: the layout lines, every run's end-to-end metrics, then per metric each side's
# median and quartiles, the change's median relative to the ref's, the
# ref's interquartile range relative to its median (the spread a
# difference has to exceed), and how many pairs each side won (ties
# count for neither). Metric names, directions and bounds are read from
# BENCHMARK.json. A run that exits non-zero (a wrong answer, a failed
# request, a lost write) stops the script with that run's output.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,8p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=${4:+--seed $4}
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$ref^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/pairbench.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git archive "$commit" | tar -x -C "$work/ref"

# name, better and bound of each end-to-end metric, one per line.
metrics=$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/  { on = 0 }
	on && /"name"/   { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json)

# run <side> <dir>: one benchmark run; prints its result line.
run() {
	local out
	# $seed is unquoted on purpose: empty, or the two words "--seed N".
	if ! out=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --trace 0 $seed 2>&1); then
		printf '%s\n' "$out" >&2
		echo "pairbench: $1 run failed" >&2
		exit 1
	fi
	printf '%s\n' "$out" | tail -n 1
}

# value <result line> <metric>
value() {
	printf '%s' "$1" | grep -o "\"$2\":{\"value\":[^,}]*" | sed 's/.*://'
}

record() { # <pair> <side> <order> <result line>
	local line="$1 $2 $3"
	while read -r name _; do
		line+=" $(value "$4" "$name")"
	done <<<"$metrics"
	line+=" $(printf '%s' "$4" | grep -o '"attempted":[0-9]*' | sed 's/.*://')"
	line+=" $(printf '%s' "$4" | grep -o '"failed":[0-9]*' | sed 's/.*://')"
	echo "$line" | tee -a "$work/runs"
}

echo "pairbench: ref $ref ($(git rev-parse --short "$commit")) vs working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted'), workload $workload${4:+, seed $4}, $pairs pairs, $(nproc) CPUs"
echo "warm-up (untimed): ref, change"
run ref "$work/ref" >/dev/null
run change "$root" >/dev/null
# Layout of the two sides' binaries; see the header.
hot='match.(*Session).bind match.(*Session).MatchBound match.(*Session).run match.(*Session).vote match.(*Session).scorePairing index.(*Index).CandidatesAppend'
text() { go tool nm -n "$1" | awk '$2 == "T" || $2 == "t"'; }
mod64() { # <nm listing> <symbol>: its address mod 64, or "-" if absent
	local a
	a=$(awk -v s="fpinterop/internal/$2" '$3 == s { print $1 }' "$1")
	if [ -n "$a" ]; then echo $((0x$a % 64)); else echo -; fi
}
for bin in matchd fpbench; do
	text "$work/ref/.bench_build/$bin" >"$work/$bin.ref.nm"
	text "$root/.bench_build/$bin" >"$work/$bin.change.nm"
	if cmp -s "$work/$bin.ref.nm" "$work/$bin.change.nm"; then
		echo "layout: $bin text identical ($(wc -l <"$work/$bin.ref.nm") symbols)"
		continue
	fi
	echo "layout: $bin text differs ($(diff "$work/$bin.ref.nm" "$work/$bin.change.nm" | grep -c '^[<>]') symbol lines); address mod 64, ref / change:"
	for sym in $hot; do
		echo "  $sym: $(mod64 "$work/$bin.ref.nm" "$sym") / $(mod64 "$work/$bin.change.nm" "$sym")"
	done
done
echo "pair side order $(cut -d' ' -f1 <<<"$metrics" | tr '\n' ' ')attempted failed"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		record "$i" ref 1st "$(run ref "$work/ref")"
		record "$i" change 2nd "$(run change "$root")"
	else
		record "$i" change 1st "$(run change "$root")"
		record "$i" ref 2nd "$(run ref "$work/ref")"
	fi
done

echo
col=4
while read -r name better bound; do
	awk -v col="$col" -v name="$name" -v better="$better" -v bound="$bound" '
		function q(a, n, p,    h, lo) { # quantile by linear interpolation
			h = (n - 1) * p; lo = int(h)
			return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
		}
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
		}
		$2 == "ref"    { r[$1] = $col; n = $1 > n ? $1 : n }
		$2 == "change" { c[$1] = $col }
		END {
			for (i = 1; i <= n; i++) {
				d = (better == "lower") ? r[i] - c[i] : c[i] - r[i]
				if (d > 0) cw++; else if (d < 0) rw++; else ties++
			}
			sorted(r, rs, n); sorted(c, cs, n)
			rm = q(rs, n, .5); cm = q(cs, n, .5); iqr = q(rs, n, .75) - q(rs, n, .25)
			worse = (better == "lower") ? cm - rm : rm - cm
			verdict = "within bound"
			if (rm != 0 && iqr / rm > bound) verdict = "unresolved: ref spread exceeds the bound"
			else if (rm != 0 && worse / rm > bound) verdict = "WORSE beyond bound"
			printf "%s (%s is better, bound %s)\n", name, better, bound
			printf "  ref    median %.4g  quartiles [%.4g, %.4g]\n", rm, q(rs, n, .25), q(rs, n, .75)
			printf "  change median %.4g  quartiles [%.4g, %.4g]\n", cm, q(cs, n, .25), q(cs, n, .75)
			if (rm != 0) printf "  change/ref %+.1f%%   ref IQR/median %.1f%%   ", 100 * (cm - rm) / rm, 100 * iqr / rm
			printf "wins: change %d, ref %d, ties %d   %s\n", cw, rw, ties, verdict
		}' "$work/runs"
	col=$((col + 1))
done <<<"$metrics"
awk -v a="$col" '
	{ att[$2] += $a; fail[$2] += $(a + 1) }
	END { for (s in att) printf "%s: %d of %d operations failed\n", s, fail[s], att[s] }' "$work/runs"
