#!/bin/sh
# Shard smoke: boot mwsd on 8 storage partitions against a live pkgd,
# deposit across more attributes than shards, retrieve, SIGKILL the
# warehouse mid-flight state, restart it, and prove every acknowledged
# deposit survived recovery. One deposit carries a PEKS keyword tag: mwsd
# fetches the PKG's public parameters at startup (-pkg), so a keyword search
# must find exactly that message, and an absent keyword none, before and
# after the kill. Finishes with a /metrics scrape asserting
# the per-shard telemetry series are live (saved to $SCRAPE_OUT, default
# shard-metrics-scrape.txt, for CI artifact upload).
#
# Every command passes -shards 8, the first admin step included: the
# shard count is fixed when the directory is created.
set -eux

cd "$(dirname "$0")/.."

MWS_ADDR=127.0.0.1:7791
PKG_ADDR=127.0.0.1:7792
DEBUG_ADDR=127.0.0.1:7793
SCRAPE_OUT=${SCRAPE_OUT:-shard-metrics-scrape.txt}
ATTRS="ELECTRIC-SMOKE-00 ELECTRIC-SMOKE-01 WATER-SMOKE-02 WATER-SMOKE-03 \
GAS-SMOKE-04 GAS-SMOKE-05 HEAT-SMOKE-06 HEAT-SMOKE-07 ELECTRIC-SMOKE-08 \
WATER-SMOKE-09"

W=$(mktemp -d)
MWSD_PID=""
PKGD_PID=""
cleanup() {
	[ -n "$MWSD_PID" ] && kill "$MWSD_PID" 2>/dev/null || true
	[ -n "$PKGD_PID" ] && kill "$PKGD_PID" 2>/dev/null || true
	rm -rf "$W"
}
trap cleanup EXIT

go build -o "$W/mwsd" ./cmd/mwsd
go build -o "$W/pkgd" ./cmd/pkgd
go build -o "$W/smartdev" ./cmd/smartdev
go build -o "$W/rcclient" ./cmd/rcclient

MWSD="$W/mwsd -dir $W/mws-data -shards 8 -shared-key-file $W/mws-pkg.key -addr $MWS_ADDR -pkg $PKG_ADDR"

# Provision: one device, one retrieving client granted every attribute.
MAC_KEY=$($MWSD register-device meter-001 | tail -1)
printf 'smoke-pw\n' > "$W/pw.txt"
(cd "$W" && ./rcclient keygen -rsa-key rc.key -pubkey rc.pem)
$MWSD -password-file "$W/pw.txt" -pubkey "$W/rc.pem" register-client c-smoke
for a in $ATTRS; do
	$MWSD grant c-smoke "$a"
done

"$W/pkgd" -dir "$W/pkg-data" -shared-key-file "$W/mws-pkg.key" \
	-addr $PKG_ADDR -preset test &
PKGD_PID=$!

start_mwsd() {
	$MWSD -debug-addr $DEBUG_ADDR serve &
	MWSD_PID=$!
	for _ in $(seq 1 50); do
		curl -sf "http://$DEBUG_ADDR/healthz" >/dev/null 2>&1 && return 0
		sleep 0.2
	done
	echo "mwsd did not come up" >&2
	return 1
}

retrieve_count() {
	(cd "$W" && ./rcclient -id c-smoke -password-file pw.txt -rsa-key rc.key \
		-mws $MWS_ADDR -pkg $PKG_ADDR) | grep -c '^#'
}

search() {
	(cd "$W" && ./rcclient -id c-smoke -password-file pw.txt -rsa-key rc.key \
		-mws $MWS_ADDR -pkg $PKG_ADDR -search "$1")
}

# "outage" tags exactly the one message that says so; a keyword nothing was
# tagged with matches nothing.
search_check() {
	HITS=$(search outage | grep '^#' || true)
	[ "$(echo "$HITS" | wc -l)" -eq 1 ] && echo "$HITS" | grep -q 'feeder-12 outage' ||
		{ echo "$1 search for outage: got '$HITS'" >&2; exit 1; }
	search blackout | grep -qx 'no messages' ||
		{ echo "$1 search for an absent keyword returned messages" >&2; exit 1; }
}

# Round 1: deposits across more attributes than shards. The first
# deposit retries while pkgd
# finishes booting (no health endpoint on the PKG).
start_mwsd
N=0
for a in $ATTRS; do
	ok=""
	for _ in $(seq 1 25); do
		if "$W/smartdev" -id meter-001 -mac-key "$MAC_KEY" -mws $MWS_ADDR \
			-pkg $PKG_ADDR -attr "$a" -message "reading=$N"; then
			ok=1
			break
		fi
		sleep 0.2
	done
	[ -n "$ok" ] || { echo "deposit to $a failed" >&2; exit 1; }
	N=$((N + 1))
done
"$W/smartdev" -id meter-001 -mac-key "$MAC_KEY" -mws $MWS_ADDR -pkg $PKG_ADDR \
	-attr ELECTRIC-SMOKE-00 -message "feeder-12 outage" -keywords outage
N=$((N + 1))
GOT=$(retrieve_count)
[ "$GOT" -eq "$N" ] || { echo "pre-kill retrieve: got $GOT want $N" >&2; exit 1; }
search_check pre-kill

# Kill the warehouse without ceremony; every acknowledged deposit must
# already be on disk (SyncAlways + per-shard group commit).
kill -9 "$MWSD_PID"
wait "$MWSD_PID" 2>/dev/null || true
MWSD_PID=""

# Round 2: recover, verify nothing acked was lost, and keep working.
start_mwsd
GOT=$(retrieve_count)
[ "$GOT" -eq "$N" ] || { echo "post-kill retrieve: got $GOT want $N" >&2; exit 1; }
search_check post-kill
"$W/smartdev" -id meter-001 -mac-key "$MAC_KEY" -mws $MWS_ADDR \
	-pkg $PKG_ADDR -attr ELECTRIC-SMOKE-00 -message "reading=post-restart"
GOT=$(retrieve_count)
[ "$GOT" -eq $((N + 1)) ] || { echo "post-restart retrieve: got $GOT want $((N + 1))" >&2; exit 1; }

# The per-shard series must be live on /metrics, with real appends
# spread beyond a single shard.
curl -sf "http://$DEBUG_ADDR/metrics" > "$SCRAPE_OUT"
grep -q 'storage_shard_appends_total{shard="' "$SCRAPE_OUT"
grep -q 'storage_shard_messages{shard="' "$SCRAPE_OUT"
SHARDS_HIT=$(grep -c 'storage_shard_messages{shard="' "$SCRAPE_OUT")
[ "$SHARDS_HIT" -eq 8 ] || { echo "expected 8 shard series, saw $SHARDS_HIT" >&2; exit 1; }

echo "shard smoke OK: $((N + 1)) deposits across 8 shards survived SIGKILL; scrape in $SCRAPE_OUT"
