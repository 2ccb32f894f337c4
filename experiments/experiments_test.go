// Package experiments regenerates the paper's tables and figures
// (EXPERIMENTS.md E1–E14) as benchmarks: Table 1 and Figures 1–5 as
// behaviourally equivalent measurements, plus the comparisons the paper
// argues from — per-recipient certificate encryption (experiments/baseline,
// E9) and a threshold PKG (experiments/tpkg, E13). Nothing a daemon or
// bench/ links lives here; system numbers come from `go run ./bench`, and
// per-primitive timings from its ladder rungs.
//
// Regenerate every row EXPERIMENTS.md quotes:
//
//	go test -run='^$' -bench=. -benchmem ./experiments/
//
// Runs are on the test preset at SyncNever unless a row says otherwise.
package experiments

import (
	"crypto/rand"
	"fmt"
	"os"
	"sync"
	"testing"

	"mwskit/experiments/baseline"
	_ "mwskit/experiments/papercipher" // E11's three paper-era schemes
	"mwskit/experiments/tpkg"
	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/pairing"
	"mwskit/internal/policy"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/storage"
	"mwskit/internal/symenc"
)

// --- shared fixtures -------------------------------------------------------

var (
	fixOnce   sync.Once
	sysTest   *pairing.System
	sysBF80   *pairing.System
	ibeParams *bfibe.Params
	ibeMaster *bfibe.MasterKey
)

func fixtures(b *testing.B) (*pairing.System, *bfibe.Params, *bfibe.MasterKey) {
	b.Helper()
	fixOnce.Do(func() {
		sysTest = pairing.ParamsTest.MustSystem()
		sysBF80 = pairing.ParamsBF80.MustSystem()
		var err error
		ibeParams, ibeMaster, err = bfibe.Setup(sysTest, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return sysTest, ibeParams, ibeMaster
}

// benchDeployment stands up a full in-process deployment for end-to-end
// benches.
func benchDeployment(b *testing.B, scheme string) *core.Deployment {
	b.Helper()
	dir, err := os.MkdirTemp("", "mwskit-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	dep, err := core.NewDeployment(core.DeploymentConfig{
		Dir:     dir,
		Preset:  "test",
		Scheme:  scheme,
		Sync:    storage.SyncNever,
		RSABits: 2048,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		b.Fatal(err)
	}
	return dep
}

func benchDevice(b *testing.B, dep *core.Deployment, id string) *device.Device {
	b.Helper()
	key, err := dep.MWS.RegisterDevice(id)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dep.NewDevice(id, key)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// --- Ablation 1: BasicIdent vs FullIdent ------------------------------------

func BenchmarkBasicVsFullIdent(b *testing.B) {
	_, params, master := fixtures(b)
	id := []byte("ablation-id")
	sk, err := master.Extract(params, id)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)

	b.Run("EncryptBasic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := encryptBasic(params, id, msg, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EncryptFull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := encryptFull(params, id, msg, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	ctB, _ := encryptBasic(params, id, msg, rand.Reader)
	ctF, _ := encryptFull(params, id, msg, rand.Reader)
	b.Run("DecryptBasic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decryptBasic(params, sk, ctB); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecryptFull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decryptFull(params, sk, ctF); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation 4: parameter sizes --------------------------------------------

func BenchmarkParamSizes(b *testing.B) {
	fixtures(b)
	for _, tc := range []struct {
		name string
		sys  *pairing.System
	}{
		{"p257-q128", sysTest},
		{"p512-q160", sysBF80},
	} {
		b.Run(tc.name, func(b *testing.B) {
			params, master, err := bfibe.Setup(tc.sys, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			id := []byte("id")
			sk, err := master.Extract(params, id)
			if err != nil {
				b.Fatal(err)
			}
			enc, _, err := params.Encapsulate(id, 32, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := params.Decapsulate(sk, enc, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: symmetric cipher ablation (DES vs Blowfish vs AES) ----------------

func BenchmarkSymCiphers(b *testing.B) {
	for _, name := range symenc.Names() {
		scheme, err := symenc.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{64, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				key := make([]byte, scheme.KeyLen())
				rand.Read(key)
				msg := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ct, err := scheme.Seal(key, msg, nil)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := scheme.Open(key, ct, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E1: Table 1 policy lookups ---------------------------------------------

func BenchmarkTable1PolicyLookup(b *testing.B) {
	dir, err := os.MkdirTemp("", "mwskit-policy-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	kv, err := storage.OpenKV(dir, storage.SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	db, err := policy.New(kv)
	if err != nil {
		b.Fatal(err)
	}
	// Table 1 scaled up: 1000 identities × 4 attributes.
	for i := 0; i < 1000; i++ {
		for j := 0; j < 4; j++ {
			if _, err := db.Grant(fmt.Sprintf("IDRC%d", i), attr.Attribute(fmt.Sprintf("A%d", j))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("BindingsFor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := db.BindingsFor(fmt.Sprintf("IDRC%d", i%1000)); len(got) != 4 {
				b.Fatal("lookup miss")
			}
		}
	})
}

// --- E7: revocation churn ----------------------------------------------------

func BenchmarkRevocationChurn(b *testing.B) {
	dir, err := os.MkdirTemp("", "mwskit-revoke-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	kv, err := storage.OpenKV(dir, storage.SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	db, err := policy.New(kv)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("IDRC%d", i%100)
		if _, err := db.Grant(id, "CHURN-ATTR"); err != nil {
			b.Fatal(err)
		}
		if err := db.Revoke(id, "CHURN-ATTR"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 2: per-message nonce vs static identity keys -------------------

func BenchmarkNonceFreshKeys(b *testing.B) {
	_, params, _ := fixtures(b)
	a := attr.Attribute("ELECTRIC-APTCOMPLEX-SV-CA")

	b.Run("FreshNoncePerMessage", func(b *testing.B) {
		// The paper's design: new nonce → new identity → new pairing base.
		for i := 0; i < b.N; i++ {
			n, err := attr.NewNonce(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := params.Encapsulate(attr.Identity(a, n), 32, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StaticIdentity", func(b *testing.B) {
		// Hypothetical static-key variant (no revocation support): the
		// identity — and hence g_ID — never changes, so the g_ID cache
		// serves every message after the first. The delta to
		// FreshNoncePerMessage is the price of the paper's revocation
		// mechanism, and what a nonce epoch buys back.
		var n attr.Nonce
		id := attr.Identity(a, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := params.Encapsulate(id, 32, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: IBE vs certificate-based baseline ----------------------------------

func BenchmarkIBEvsCertBaseline(b *testing.B) {
	_, params, _ := fixtures(b)
	scheme := symenc.Default()
	msg := make([]byte, 256)

	ca, err := baseline.NewCA(2048, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	var recipients []*baseline.Recipient
	for i := 0; i < 64; i++ {
		r, err := ca.Issue(fmt.Sprintf("rc-%d", i), 2048, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		recipients = append(recipients, r)
	}

	// IBE sender cost is independent of the audience size.
	b.Run("IBE/anyRecipients", func(b *testing.B) {
		a := attr.Attribute("ELECTRIC-X")
		for i := 0; i < b.N; i++ {
			n, _ := attr.NewNonce(rand.Reader)
			id := attr.Identity(a, n)
			enc, key, err := params.Encapsulate(id, scheme.KeyLen(), rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := scheme.Seal(key, msg, nil); err != nil {
				b.Fatal(err)
			}
			_ = enc
		}
	})
	// Certificate sender cost grows with the recipient list.
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("Cert/%drecipients", n), func(b *testing.B) {
			sender := baseline.NewSender(scheme, ca.Pool())
			for i := 0; i < b.N; i++ {
				// Cold cache each round: devices in the field cannot hold
				// a warm verified-certificate cache across fleet churn.
				sender.InvalidateCache()
				if _, err := sender.Encrypt(msg, recipients[:n], rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5 / Fig 4: end-to-end protocol phases ----------------------------------

func BenchmarkFig4EndToEnd(b *testing.B) {
	dep := benchDeployment(b, "AES-128-GCM")
	mwsConn, err := dep.DialMWS()
	if err != nil {
		b.Fatal(err)
	}
	defer mwsConn.Close()
	pkgConn, err := dep.DialPKG()
	if err != nil {
		b.Fatal(err)
	}
	defer pkgConn.Close()

	sd := benchDevice(b, dep, "bench-meter")
	rc, err := dep.EnrollClient("bench-rc", []byte("pw"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dep.Grant("bench-rc", "BENCH-ATTR"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)

	b.Run("Phase1-Deposit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sd.Deposit(mwsConn, "BENCH-ATTR", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Phase2+3-RetrieveExtractDecrypt", func(b *testing.B) {
		// One message per iteration: deposit outside timing, then run the
		// full RC pipeline for just that message.
		var cursor uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			seq, err := sd.Deposit(mwsConn, "BENCH-ATTR", payload)
			if err != nil {
				b.Fatal(err)
			}
			cursor = seq
			b.StartTimer()
			msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, cursor, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(msgs) != 1 {
				b.Fatalf("expected 1 message, got %d", len(msgs))
			}
		}
	})
}

// --- E2 / Fig 1: the utility scenario ----------------------------------------

func BenchmarkFig1UtilityScenario(b *testing.B) {
	dep := benchDeployment(b, "AES-128-GCM")
	mwsConn, err := dep.DialMWS()
	if err != nil {
		b.Fatal(err)
	}
	defer mwsConn.Close()
	pkgConn, err := dep.DialPKG()
	if err != nil {
		b.Fatal(err)
	}
	defer pkgConn.Close()

	fleet := sim.NewFleet(sim.FleetConfig{Seed: 1, PerSite: map[sim.MeterKind]int{sim.Electric: 2, sim.Water: 2, sim.Gas: 2}})
	devs := map[string]*device.Device{}
	for _, m := range fleet.Meters {
		devs[m.ID] = benchDevice(b, dep, m.ID)
	}
	scenario := sim.Figure1Scenario([]string{"APTCOMPLEX-SV-CA"})
	rcs := map[string]*rclient.Client{}
	for company, attrs := range scenario.Companies {
		c, err := dep.EnrollClient(company, []byte("pw"))
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range attrs {
			if _, err := dep.Grant(company, a); err != nil {
				b.Fatal(err)
			}
		}
		rcs[company] = c
	}

	b.ResetTimer()
	var cursor uint64
	for i := 0; i < b.N; i++ {
		// One fleet round deposited, then all three companies read it.
		for _, em := range fleet.Round() {
			seq, err := devs[em.Meter.ID].Deposit(mwsConn, em.Attribute, em.Payload)
			if err != nil {
				b.Fatal(err)
			}
			if seq >= cursor {
				cursor = seq
			}
		}
		roundStart := cursor + 1 - uint64(len(fleet.Meters))
		for company, rc := range rcs {
			if _, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, roundStart, 0); err != nil {
				b.Fatalf("%s: %v", company, err)
			}
		}
	}
}

// --- E8: scalability sweeps ---------------------------------------------------

func BenchmarkScalabilityDevices(b *testing.B) {
	for _, nDevices := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("%ddevices", nDevices), func(b *testing.B) {
			dep := benchDeployment(b, "AES-128-GCM")
			mwsConn, err := dep.DialMWS()
			if err != nil {
				b.Fatal(err)
			}
			defer mwsConn.Close()
			devs := make([]*device.Device, nDevices)
			for i := range devs {
				devs[i] = benchDevice(b, dep, fmt.Sprintf("meter-%d", i))
			}
			payload := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := devs[i%nDevices].Deposit(mwsConn, "SWEEP-ATTR", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScalabilityMsgSize(b *testing.B) {
	dep := benchDeployment(b, "AES-128-GCM")
	mwsConn, err := dep.DialMWS()
	if err != nil {
		b.Fatal(err)
	}
	defer mwsConn.Close()
	sd := benchDevice(b, dep, "meter")
	for _, size := range []int{64, 1024, 16384, 262144} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sd.Deposit(mwsConn, "SIZE-ATTR", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScalabilityAttributes(b *testing.B) {
	for _, nAttrs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("%dattrs", nAttrs), func(b *testing.B) {
			dep := benchDeployment(b, "AES-128-GCM")
			mwsConn, err := dep.DialMWS()
			if err != nil {
				b.Fatal(err)
			}
			defer mwsConn.Close()
			sd := benchDevice(b, dep, "meter")
			attrs := make([]attr.Attribute, nAttrs)
			for i := range attrs {
				attrs[i] = attr.Attribute(fmt.Sprintf("SWEEP-ATTR-%d", i))
			}
			payload := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sd.Deposit(mwsConn, attrs[i%nAttrs], payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12 / E13: deposit auth mode and threshold extraction -------------------

// BenchmarkDepositAuthModes compares the paper's shared-key MAC
// authentication against the §VIII identity-based-signature mode, end to
// end through the MWS deposit path.
func BenchmarkDepositAuthModes(b *testing.B) {
	dep := benchDeployment(b, "AES-128-GCM")
	mwsConn, err := dep.DialMWS()
	if err != nil {
		b.Fatal(err)
	}
	defer mwsConn.Close()
	macDev := benchDevice(b, dep, "mac-meter")
	ibsDev, err := dep.NewSigningDevice("ibs-meter")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)

	b.Run("MAC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := macDev.Deposit(mwsConn, "AUTH-ATTR", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IBS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ibsDev.Deposit(mwsConn, "AUTH-ATTR", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThresholdExtract compares direct PKG extraction against the
// distributed 3-of-5 threshold extraction (§VIII future work).
func BenchmarkThresholdExtract(b *testing.B) {
	_, params, master := fixtures(b)
	shares, err := tpkg.Split(master, 3, 5, params.Sys, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	identity := []byte("bench-identity")
	b.Run("Direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := master.Extract(params, identity); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Threshold3of5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partials := make([]tpkg.Partial, 3)
			for j := 0; j < 3; j++ {
				p, err := shares[j].PartialExtract(params, identity)
				if err != nil {
					b.Fatal(err)
				}
				partials[j] = p
			}
			if _, err := tpkg.Combine(params, identity, partials); err != nil {
				b.Fatal(err)
			}
		}
	})
}
