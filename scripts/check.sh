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

# Production closure (ROADMAP aim 2): every package under internal/ is
# linked by a daemon, an example or the benchmark, and nothing under
# experiments/ is — code that exists only to reproduce the paper lives
# there, code that exists only to measure lives in bench/.
closure=$(go list -deps ./cmd/... ./examples/... ./bench)
orphans=$(go list ./internal/... | grep -vxF "$closure" || true)
leaks=$(echo "$closure" | grep '^mwskit/experiments' || true)
if [ -n "$orphans$leaks" ]; then
	echo "outside the production closure: ${orphans:-none}; experiments linked into it: ${leaks:-none}" >&2
	exit 1
fi

# Each binary links only its role (DESIGN.md §2 has the reason for every
# row). A binary's closure here is its first-party packages plus what they
# import directly: the standard library reaches crypto/des by itself
# (crypto/x509's legacy PEM, crypto/tls's 3DES suites), our code must not.
# device and rclient are the only packages that ever hold a plaintext, so
# their absence from mwsd and pkgd is the paper's "the warehouse never
# decrypts" on the link graph.
deny() {
	bin=$1
	shift
	linked=$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{"\n"}}{{join .Imports "\n"}}{{end}}' "./cmd/$bin")
	for pkg in "$@"; do
		if echo "$linked" | grep -qxE "(mwskit/internal/)?$pkg"; then
			echo "cmd/$bin links $pkg: outside its role (DESIGN.md §2, per-binary deny list)" >&2
			exit 1
		fi
	done
}
deny mwsd crypto/des device rclient keyserver
deny pkgd crypto/des device rclient policy userdb mws policyrule
deny smartdev crypto/des storage wal mws keyserver
deny rcclient crypto/des device mws storage wal keyserver policy macauth ibs peks

# The scheme layer never does integer arithmetic on a secret (DESIGN.md
# §14): a secret scalar is an ec.Scalar from the bytes it was made from
# down to the ladder, so outside the arithmetic core — whose math/big is
# public parameters: p, q, h, the final exponents, public multipliers —
# no first-party non-test code imports math/big, the parameter generator
# and experiments/ aside.
bigs=$(go list -f '{{range .Imports}}{{if eq . "math/big"}}{{$.ImportPath}}{{end}}{{end}}' ./... |
	grep -vxE 'mwskit/(internal/(ff|ec|pairing)|cmd/paramgen|experiments/.*)' || true)
if [ -n "$bigs" ]; then
	echo "imports math/big outside internal/ff, internal/ec and internal/pairing: $bigs" >&2
	exit 1
fi

# One telemetry package (ROADMAP aim 2): internal/metrics stays folded into
# internal/obsv, and obsv imports nothing of ours — that is what lets ff,
# ec, pairing and wal hook into it without an import cycle. internal/codec,
# the one length-prefixed codec under wire, storage and ticket, is a leaf
# of the same kind.
if go list ./... | grep -qx 'mwskit/internal/metrics'; then
	echo "mwskit/internal/metrics is back: telemetry types live in internal/obsv" >&2
	exit 1
fi
for leaf in obsv codec; do
	leaf_deps=$(go list -deps ./internal/$leaf | grep '^mwskit/' | grep -vx "mwskit/internal/$leaf" || true)
	if [ -n "$leaf_deps" ]; then
		echo "internal/$leaf must import only the standard library, found: $leaf_deps" >&2
		exit 1
	fi
done

# One client call path (DESIGN.md §7): every exchange is declared once in
# internal/wire's op table and performed through wire.Call, so outside that
# package no non-test file builds a request frame by hand.
if git grep -nE '\.Do\((wire\.)?Frame\{' -- internal cmd examples ':!*_test.go' ':!internal/wire'; then
	echo "build request frames with wire.Call(ctx, client, op, req), not Client.Do" >&2
	exit 1
fi

go test -race ./...

# The examples are closure roots — an internal/ package may be kept alive
# by one alone — so each is run, not just built; a scenario that breaks
# exits non-zero.
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

# One iteration of every paper experiment, so an E-benchmark that drifts
# from the API it measures fails here and not only in CI's bench-smoke.
go test -run='^$' -bench=. -benchtime=1x ./experiments/...

# Non-test Go lines per package: the figure ROADMAP aim 2 tracks. Printed,
# not gated — a PR that grows a package says why in its description.
scripts/loc.sh

# The same count over what each binary links (its first-party closure, its
# own main package included): the figure DESIGN.md §2 quotes per binary.
for bin in mwsd pkgd smartdev rcclient; do
	go list -deps "./cmd/$bin" | sed -n 's|^mwskit/||p' | xargs scripts/loc.sh |
		awk -v bin="$bin" 'END { printf "%7d  linked by cmd/%s\n", $1, bin }'
done
