package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	_ "mwskit/experiments/papercipher" // registers DES-CBC-HMAC for TestPaperCipherEndToEnd
	"mwskit/internal/attr"
	"mwskit/internal/device"
	"mwskit/internal/pkgparams"
	"mwskit/internal/rclient"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// newTestDeployment builds a started deployment on the fast test preset.
func newTestDeployment(t *testing.T) *Deployment {
	t.Helper()
	dep, err := NewDeployment(DeploymentConfig{
		Dir:    t.TempDir(),
		Preset: "test",
		Sync:   wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	return dep
}

func dialBoth(t *testing.T, dep *Deployment) (mwsConn, pkgConn *wire.Client) {
	t.Helper()
	m, err := dep.DialMWS()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	p, err := dep.DialPKG()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return m, p
}

func newTestDevice(t *testing.T, dep *Deployment, id string) *device.Device {
	t.Helper()
	key, err := dep.MWS.RegisterDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dep.NewDevice(id, key)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure4ProtocolInteractions (experiment E5) runs the full protocol
// of Figure 4 over real TCP: SD–MWS deposit, MWS–RC retrieval with token
// issuance, RC–PKG key extraction, and client-side decryption.
func TestFigure4ProtocolInteractions(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	// Phase 0 — registration (out-of-band in the paper).
	sd := newTestDevice(t, dep, "smart-meter-0042")
	rc, err := dep.EnrollClient("c-services", []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("c-services", "ELECTRIC-APTCOMPLEX-SV-CA"); err != nil {
		t.Fatal(err)
	}

	// Phase 1 — SD–MWS: deposit an encrypted reading.
	reading := []byte(`{"meter":"smart-meter-0042","kwh":42.7,"ts":1278000000}`)
	seq, err := sd.Deposit(mwsConn, "ELECTRIC-APTCOMPLEX-SV-CA", reading)
	if err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if dep.MWS.MessageCount() != 1 {
		t.Fatal("message not warehoused")
	}

	// Phase 2+3 — MWS–RC and RC–PKG: retrieve, extract, decrypt.
	msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		t.Fatalf("retrieve+decrypt: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if msgs[0].Seq != seq || msgs[0].DeviceID != "smart-meter-0042" {
		t.Fatalf("message metadata wrong: %+v", msgs[0])
	}
	if !bytes.Equal(msgs[0].Payload, reading) {
		t.Fatal("decrypted payload differs from the deposited reading")
	}
}

// TestFigure2KeyRetrieval (experiment E3) checks the key-retrieval flow of
// Figure 2 step by step, asserting the intermediate artifacts.
func TestFigure2KeyRetrieval(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	sd := newTestDevice(t, dep, "meter")
	rc, err := dep.EnrollClient("utility", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("utility", "ELECTRIC-Z"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "ELECTRIC-Z", []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Step 1: retrieve returns ciphertext + token, NOT plaintext.
	ret, err := rc.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != 1 {
		t.Fatalf("%d items", len(ret.Items))
	}
	if bytes.Contains(ret.Items[0].Ciphertext, []byte("payload")) {
		t.Fatal("MWS delivered plaintext")
	}
	// The item references the attribute only via AID.
	if ret.Items[0].AID == 0 {
		t.Fatal("missing AID")
	}

	// Step 2: PKG issues the private key for (AID, nonce).
	keys, items, err := rc.FetchKeys(pkgConn, ret)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || len(keys) != 1 {
		t.Fatalf("keys=%d items=%d", len(keys), len(items))
	}

	// Step 3: decrypt locally.
	for _, sk := range keys {
		m, err := rc.Decrypt(&ret.Items[0], sk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Payload, []byte("payload")) {
			t.Fatal("decryption mismatch")
		}
	}
}

// TestFigure1Scenario (experiment E2) reproduces the utility-company
// scenario: C-Services reads all meters, Electric & Gas reads electric +
// gas, Water & Resources reads water only.
func TestFigure1Scenario(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	const (
		attrElectric = attr.Attribute("ELECTRIC-APTCOMPLEX-SV-CA")
		attrWater    = attr.Attribute("WATER-APTCOMPLEX-SV-CA")
		attrGas      = attr.Attribute("GAS-APTCOMPLEX-SV-CA")
	)

	// Three meters in the apartment complex.
	electric := newTestDevice(t, dep, "electric-meter")
	water := newTestDevice(t, dep, "water-meter")
	gas := newTestDevice(t, dep, "gas-meter")

	// Three companies with the paper's access matrix.
	cServices, err := dep.EnrollClient("C-Services", []byte("pw-c"))
	if err != nil {
		t.Fatal(err)
	}
	eAndG, err := dep.EnrollClient("Electric-and-Gas-Co", []byte("pw-eg"))
	if err != nil {
		t.Fatal(err)
	}
	wAndR, err := dep.EnrollClient("Water-and-Resources-Co", []byte("pw-wr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []attr.Attribute{attrElectric, attrWater, attrGas} {
		if _, err := dep.Grant("C-Services", a); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []attr.Attribute{attrElectric, attrGas} {
		if _, err := dep.Grant("Electric-and-Gas-Co", a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dep.Grant("Water-and-Resources-Co", attrWater); err != nil {
		t.Fatal(err)
	}

	// Each meter deposits two readings.
	for i := 0; i < 2; i++ {
		if _, err := electric.Deposit(mwsConn, attrElectric, []byte(fmt.Sprintf("kwh=%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := water.Deposit(mwsConn, attrWater, []byte(fmt.Sprintf("m3=%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := gas.Deposit(mwsConn, attrGas, []byte(fmt.Sprintf("therm=%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	check := func(rc *rclient.Client, wantCount int, wantDevices map[string]bool) {
		t.Helper()
		msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", rc.ID(), err)
		}
		if len(msgs) != wantCount {
			t.Fatalf("%s: got %d messages, want %d", rc.ID(), len(msgs), wantCount)
		}
		for _, m := range msgs {
			if !wantDevices[m.DeviceID] {
				t.Fatalf("%s: received message from unauthorized device %s", rc.ID(), m.DeviceID)
			}
		}
	}
	check(cServices, 6, map[string]bool{"electric-meter": true, "water-meter": true, "gas-meter": true})
	check(eAndG, 4, map[string]bool{"electric-meter": true, "gas-meter": true})
	check(wAndR, 2, map[string]bool{"water-meter": true})
}

// TestFigure3Architecture (experiment E4) asserts the architectural
// separation of Figure 3: each component is reachable and enforces its
// role — and in particular the MWS itself cannot decrypt what it stores.
func TestFigure3Architecture(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	sd := newTestDevice(t, dep, "meter")
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	secret := []byte("the MWS must never read this")
	if _, err := sd.Deposit(mwsConn, "A1", secret); err != nil {
		t.Fatal(err)
	}

	// SDA stored it; MD holds ciphertext only (§III i).
	if dep.MWS.MessageCount() != 1 {
		t.Fatal("SDA/MD path broken")
	}
	stored := dep.MWS.PolicyTable()
	if len(stored) != 1 {
		t.Fatal("PD path broken")
	}
	// Scan raw warehoused bytes for the plaintext.
	resp, err := rc.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(resp.Items[0].Ciphertext, secret) {
		t.Fatal("message database holds plaintext")
	}
	// Gatekeeper + TG: token present; PKG extract completes; full read OK.
	msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, secret) {
		t.Fatal("end-to-end path broken")
	}
	// PKG serves params (SD bootstrap path).
	params, err := pkgparams.Fetch(context.Background(), pkgConn)
	if err != nil {
		t.Fatal(err)
	}
	if !params.PPub.Equal(dep.Params().PPub) {
		t.Fatal("PKG served wrong parameters")
	}
}

// TestRevocationEndToEnd (experiment E7) verifies requirement §III(iii):
// after revocation an RC can no longer access *future* messages, with no
// change to any smart device.
func TestRevocationEndToEnd(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	sd := newTestDevice(t, dep, "meter")
	rc, err := dep.EnrollClient("C-Services", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("C-Services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}

	// Before revocation: message flows.
	if _, err := sd.Deposit(mwsConn, "ELECTRIC-X", []byte("before")); err != nil {
		t.Fatal(err)
	}
	msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("pre-revocation: %v, %d msgs", err, len(msgs))
	}

	// Revoke. The device is untouched and keeps depositing.
	if err := dep.Revoke("C-Services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "ELECTRIC-X", []byte("after")); err != nil {
		t.Fatal(err)
	}

	// After revocation: the RC sees nothing new.
	time.Sleep(10 * time.Millisecond) // distinct authenticator timestamp
	msgs2, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs2) != 0 {
		t.Fatalf("revoked RC still received %d messages", len(msgs2))
	}
}

// TestStaleTicketCannotExtractNewNonces drives the deeper revocation
// property: even an RC that hoards its last valid ticket cannot decrypt
// future messages, because every message carries a fresh nonce whose AID
// resolution the hoarded ticket does provide — but the MWS never hands the
// revoked RC the new message envelopes in the first place, and old
// private keys are useless against new nonces. The client's key cache
// changes none of this: once the first page has been decrypted its key
// is cached, yet the fresh nonce misses the cache and goes to the PKG.
func TestStaleTicketCannotExtractNewNonces(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	sd := newTestDevice(t, dep, "meter")
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "A1", []byte("first")); err != nil {
		t.Fatal(err)
	}
	ret, err := rc.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, _, err := rc.FetchKeys(pkgConn, ret)
	if err != nil {
		t.Fatal(err)
	}
	// The first page goes through the full pipeline, which caches its key:
	// fetching the page's keys again sends no request.
	time.Sleep(10 * time.Millisecond)
	if msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0); err != nil || len(msgs) != 1 {
		t.Fatalf("first page: %v, %d msgs", err, len(msgs))
	}
	if _, asked, err := rc.FetchKeys(pkgConn, ret); err != nil || asked != nil {
		t.Fatalf("first page's key not cached: asked the PKG for %d keys, %v", len(asked), err)
	}
	// Now a new message arrives with a fresh nonce.
	if _, err := sd.Deposit(mwsConn, "A1", []byte("second")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	ret2, err := rc.Retrieve(mwsConn, ret.Items[0].Seq+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret2.Items) != 1 {
		t.Fatalf("%d new items", len(ret2.Items))
	}
	// The old private key (for the old nonce) must fail against the new
	// message: decryption errors out.
	for _, sk := range keys {
		if _, err := rc.Decrypt(&ret2.Items[0], sk); err == nil {
			t.Fatal("old per-message key decrypted a new message — nonce freshness broken")
		}
	}
	// The fresh nonce misses the cache and reaches the PKG, which extracts
	// its key: a key that is none of the hoarded ones and opens the message.
	keys2, asked, err := rc.FetchKeys(pkgConn, ret2)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || len(keys2) != 1 {
		t.Fatalf("fresh nonce: asked the PKG for %d keys, got %d", len(asked), len(keys2))
	}
	for _, sk := range keys2 {
		for _, old := range keys {
			if sk.D.Equal(old.D) {
				t.Fatal("the fresh nonce was served a hoarded key")
			}
		}
		if m, err := rc.Decrypt(&ret2.Items[0], sk); err != nil || string(m.Payload) != "second" {
			t.Fatalf("the fresh nonce's own key: %v", err)
		}
	}
}

// TestCrossClientIsolation: an RC must not be able to decrypt a message
// warehoused for an attribute it does not hold, even if it obtains the
// raw envelope out of band.
func TestCrossClientIsolation(t *testing.T) {
	dep := newTestDeployment(t)
	mwsConn, pkgConn := dialBoth(t, dep)

	sd := newTestDevice(t, dep, "meter")
	alice, err := dep.EnrollClient("alice-co", []byte("pw-a"))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := dep.EnrollClient("bob-co", []byte("pw-b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("alice-co", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("bob-co", "WATER-X"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "ELECTRIC-X", []byte("for alice only")); err != nil {
		t.Fatal(err)
	}

	// Alice reads it.
	msgs, err := alice.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("alice: %v, %d", err, len(msgs))
	}
	// Bob retrieves: policy filter returns nothing.
	got, err := bob.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("bob received alice's messages")
	}
	// Even with the raw envelope (obtained out of band), Bob's ticket
	// cannot extract a key for an AID he does not hold: simulate by
	// asking the PKG with a bogus AID through Bob's valid session.
	aliceRet, err := alice.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bobRet, err := bob.Retrieve(mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bob replays Alice's item identifiers through his own ticket.
	bobRet.Items = aliceRet.Items
	_, _, err = bob.FetchKeys(pkgConn, bobRet)
	var em *wire.ErrorMsg
	if !errors.As(err, &em) || em.Code != wire.CodeAuth {
		t.Fatalf("PKG honored a foreign AID through bob's ticket: %v", err)
	}
}

func TestDeploymentRestartKeepsDecryptability(t *testing.T) {
	dir := t.TempDir()
	cfg := DeploymentConfig{Dir: dir, Preset: "test", Sync: wal.SyncNever}
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, err := dep.DialMWS()
	if err != nil {
		t.Fatal(err)
	}
	key, err := dep.MWS.RegisterDevice("meter")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dep.NewDevice("meter", key)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "A1", []byte("survives restart")); err != nil {
		t.Fatal(err)
	}
	mwsConn.Close()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the whole deployment from disk.
	dep2, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dep2.Close()
	if err := dep2.Start(); err != nil {
		t.Fatal(err)
	}
	m2, err := dep2.DialMWS()
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	p2, err := dep2.DialPKG()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	msgs, err := rc.RetrieveAndDecrypt(m2, p2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, []byte("survives restart")) {
		t.Fatal("message not decryptable after full restart")
	}
}

func TestDeploymentConfigValidation(t *testing.T) {
	if _, err := NewDeployment(DeploymentConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewDeployment(DeploymentConfig{Dir: t.TempDir(), Preset: "bogus"}); err == nil {
		t.Error("bogus preset accepted")
	}
	if _, err := NewDeployment(DeploymentConfig{Dir: t.TempDir(), Preset: "test", Scheme: "ROT13"}); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestPaperCipherEndToEnd(t *testing.T) {
	// The prototype used DES (§V.C); verify the full pipeline with the
	// paper-faithful cipher.
	dep, err := NewDeployment(DeploymentConfig{
		Dir:    t.TempDir(),
		Preset: "test",
		Scheme: "DES-CBC-HMAC",
		Sync:   wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, pkgConn := dialBoth(t, dep)
	sd := newTestDevice(t, dep, "meter")
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Deposit(mwsConn, "A1", []byte("des payload")); err != nil {
		t.Fatal(err)
	}
	msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("%v, %d msgs", err, len(msgs))
	}
	if !bytes.Equal(msgs[0].Payload, []byte("des payload")) {
		t.Fatal("DES pipeline mismatch")
	}
}
