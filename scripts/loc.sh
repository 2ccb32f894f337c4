#!/bin/sh
# Non-test, non-testdata Go lines per package — the figure ROADMAP aim 2
# tracks ("net non-test line count per package"). Physical lines, comments
# and blanks included: a package does not get smaller by losing its
# comments. With package directories as arguments it prints those and
# their sum; without, every package in the tree. A package of test files
# only (experiments/ itself, unlike experiments/baseline and
# experiments/tpkg) has no row.
set -eu

cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
	! -path './.bench_build/*' -exec dirname {} \; | sort -u | sed 's|^\./||')

total=0
for pkg in "$@"; do
	[ -d "$pkg" ] || { printf '%7s  %s\n' 0 "$pkg"; continue; }
	n=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%7d  %s\n' "$n" "$pkg"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
