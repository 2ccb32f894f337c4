package mws

import (
	"strconv"

	"mwskit/internal/obsv"
)

// Label registers the legitimate series dimensions: operation names,
// shard numbers, metadata about secrets and digests all pass.
func Label(reg *obsv.Registry, shard int, masterKey []byte) {
	reg.Counter("appends", obsv.L("shard", strconv.Itoa(shard))).Inc()                           // clean: a shard number
	reg.Counter("keys", obsv.Label{Key: "key_bytes", Value: strconv.Itoa(len(masterKey))}).Inc() // clean: metadata about a secret
	reg.Gauge("loaded", obsv.L("key_digest", fingerprint(masterKey))).Set(1)                     // clean: digest, not the secret
}

// LabelBad carries the seeded violations: a label value is telemetry
// text exactly as a span attribute is.
func LabelBad(reg *obsv.Registry, masterKey []byte, password string, v vault) {
	reg.Counter("logins", obsv.L("pw", password)).Inc()                                    // want "password looks like key material flowing into a metric label"
	reg.Counter("keys", obsv.L("key", string(masterKey))).Inc()                            // want "masterKey looks like key material flowing into a metric label"
	reg.Gauge("sessions", obsv.Label{Key: "sk", Value: string(v.sessionKey)}).Set(1)       // want "sessionKey looks like key material flowing into a metric label"
	reg.Gauge("sessions", obsv.Label{"sk", string(v.sessionKey)}, obsv.L("n", "1")).Set(2) // want "sessionKey looks like key material flowing into a metric label"
}
