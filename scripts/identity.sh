#!/usr/bin/env bash
# identity.sh — byte-identity check of every deterministic output unit.
#
#   scripts/identity.sh check  [rcbench flags...]   compare with the manifest
#   scripts/identity.sh update [rcbench flags...]   rewrite the manifest
#
# Each unit is one command run on its own: every `rcbench -exp X -quick`
# of `-exp all` except table1 (its cost column is wall-clock), fig13,
# fig14lrp and scale with -quick, live and livechaos with -quick -check
# minus live's wall-clock overhead line, and the two rcchaos sweeps. The
# manifest (testdata/identity.txt) holds one line per unit: name, line
# count and SHA-256 of its stdout. A failing check names every unit
# whose output moved. Extra flags (e.g. -parallel 1) go to every rcbench
# run; the output must not depend on them.
#
# The digests are recorded on amd64 with the default GOAMD64=v1. Other
# targets may fuse multiply-adds and move floating-point bits, so the
# check is skipped there rather than widened.
set -euo pipefail

GO=${GO:-go}
mode=${1:-check}
shift || true
case $mode in
check | update) ;;
*)
	echo "usage: $0 check|update [rcbench flags...]" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
manifest=testdata/identity.txt

arch=$($GO env GOARCH)
level=$($GO env GOAMD64)
if [ "$arch" != amd64 ] || [ "$level" != v1 ]; then
	echo "identity: skipped on GOARCH=$arch GOAMD64=$level (digests are recorded on amd64, GOAMD64=v1)"
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$GO build -o "$tmp/" ./cmd/rcbench ./cmd/rcchaos

# The -exp all experiments minus table1, in declaration order.
all=(baseline overhead fig11 fig12 fig14 vservers resilience faults
	ablate-pruning ablate-filter ablate-api ablate-lrp ablate-policy
	smp cachewar diskbound tail apache overload alerting rebalance chaos)

# unit NAME CMD... runs one unit and appends its manifest line.
unit() {
	local name=$1
	shift
	if ! "$@" >"$tmp/out" 2>"$tmp/err"; then
		echo "identity: $name failed:" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
	if [ "$name" = rcbench.live ]; then
		grep -v '^live: governed-path overhead' "$tmp/out" >"$tmp/masked" || true
		mv "$tmp/masked" "$tmp/out"
	fi
	local lines sum
	lines=$(wc -l <"$tmp/out")
	sum=$(sha256sum "$tmp/out" | cut -d' ' -f1)
	echo "$name $lines $sum" >>"$tmp/manifest"
}

start=$SECONDS
: >"$tmp/manifest"
for e in "${all[@]}" fig13 fig14lrp scale; do
	unit "rcbench.$e" "$tmp/rcbench" -exp "$e" -quick "$@"
done
for e in live livechaos; do
	unit "rcbench.$e" "$tmp/rcbench" -exp "$e" -quick -check "$@"
done
unit rcchaos.sim "$tmp/rcchaos" -run 20 -seed 1 -v
unit rcchaos.live "$tmp/rcchaos" -live -run 60 -seed 1 -v

if [ "$mode" = update ]; then
	cp "$tmp/manifest" "$manifest"
	echo "identity: wrote $manifest ($(wc -l <"$manifest") units, $((SECONDS - start)) s)"
	exit 0
fi
if ! moved=$(diff "$manifest" "$tmp/manifest"); then
	echo "identity: output moved in these units:"
	comm -3 <(sort "$manifest") <(sort "$tmp/manifest") | awk '{print "  " $1}' | sort -u
	echo "$moved"
	exit 1
fi
echo "identity: $(wc -l <"$manifest") units byte-identical ($((SECONDS - start)) s)"
