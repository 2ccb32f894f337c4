#!/bin/sh
# Tier-1 gate: everything a PR must pass before merge (see ROADMAP.md).
set -eux

cd "$(dirname "$0")/.."

# Formatting: the tree must be gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...

# mwslint: the project's confidentiality- and concurrency-invariant
# analyzers (see DESIGN.md "Static analysis"). Any unsuppressed finding
# fails the build, and so does a suppression count above the checked-in
# baseline — silencing a finding is a reviewed change, not a drive-by.
# The run is timed because the taint and lock analyzers iterate
# whole-program fixpoints: soft budget 30s, warn (don't fail) when
# exceeded; -timings breaks the wall time down per analyzer.
mwslint_start=$(date +%s)
go run ./cmd/mwslint -timings -baseline scripts/lint_baseline.json ./...
mwslint_elapsed=$(( $(date +%s) - mwslint_start ))
echo "mwslint: ${mwslint_elapsed}s (soft budget 30s)"
if [ "$mwslint_elapsed" -gt 30 ]; then
	echo "warning: mwslint exceeded its 30s soft budget" >&2
fi

go test -race ./...

# Non-test Go lines per package: the figure ROADMAP aim 2 tracks. Printed,
# not gated — a PR that grows a package says why in its description.
scripts/loc.sh

# Opt-in hot-path benchmark: MWSBENCH=1 runs the end-to-end load
# generator (phase 0 offline microbenchmarks included) and writes
# BENCH_PR10.json — phase 0 now exercises the fixed-limb Montgomery
# field core (the committed reference run is the bf80 preset: cold
# deposit preparation 77.9 → 402.5 msgs/s over the math/big backend it
# replaced). Off by default — it adds minutes on the bf80 preset.
if [ "${MWSBENCH:-0}" = "1" ]; then
	go run ./cmd/mwsbench -preset "${MWSBENCH_PRESET:-test}" -meters 10 \
		-messages 120 -nonce-epoch 64 -compare-storage \
		-json BENCH_PR10.json
fi
