package segment

import (
	"bytes"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/rclient"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// newDeployment starts an in-process MWS + PKG on the test preset and
// returns it with one enrolled device and a connection to each server.
func newDeployment(t *testing.T, deviceID string) (dep *core.Deployment, sd *device.Device, mwsConn, pkgConn *wire.Client) {
	t.Helper()
	dep, err := core.NewDeployment(core.DeploymentConfig{Dir: t.TempDir(), Preset: "test", Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	if mwsConn, err = dep.DialMWS(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mwsConn.Close() })
	if pkgConn, err = dep.DialPKG(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pkgConn.Close() })
	key, err := dep.MWS.RegisterDevice(deviceID)
	if err != nil {
		t.Fatal(err)
	}
	if sd, err = dep.NewDevice(deviceID, key); err != nil {
		t.Fatal(err)
	}
	return dep, sd, mwsConn, pkgConn
}

func TestDepositSegmentsOverNetwork(t *testing.T) {
	_, d, mwsConn, _ := newDeployment(t, "net-meter")
	group, seqs, err := DepositSegments(d, mwsConn, []Part{
		{Attribute: "CONSUMPTION-X", Body: []byte("a")},
		{Attribute: "ERRORS-X", Body: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || group == (GroupID{}) {
		t.Fatalf("segments: %v %v", group, seqs)
	}
	if _, _, err := DepositSegments(d, mwsConn, nil); err == nil {
		t.Fatal("empty segment list accepted")
	}
}

// TestSegmentedDepositEndToEnd drives the §VIII segmentation scenario:
// one device message split into consumption / errors / events parts,
// each toward its own attribute. The retailer reads only consumption,
// the operator only errors, and the full-service company reassembles
// everything — confidentiality between parts is preserved by IBE, not
// by trust in the warehouse.
func TestSegmentedDepositEndToEnd(t *testing.T) {
	dep, sd, mwsConn, pkgConn := newDeployment(t, "smart-meter")

	retailer, err := dep.EnrollClient("retailer", []byte("pw-r"))
	if err != nil {
		t.Fatal(err)
	}
	operator, err := dep.EnrollClient("operator", []byte("pw-o"))
	if err != nil {
		t.Fatal(err)
	}
	fullService, err := dep.EnrollClient("full-service", []byte("pw-f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("retailer", "CONSUMPTION-SITE1"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("operator", "ERRORS-SITE1"); err != nil {
		t.Fatal(err)
	}
	for _, a := range []attr.Attribute{"CONSUMPTION-SITE1", "ERRORS-SITE1", "EVENTS-SITE1"} {
		if _, err := dep.Grant("full-service", a); err != nil {
			t.Fatal(err)
		}
	}

	group, seqs, err := DepositSegments(sd, mwsConn, []Part{
		{Attribute: "CONSUMPTION-SITE1", Body: []byte(`{"kwh":42.7}`)},
		{Attribute: "ERRORS-SITE1", Body: []byte(`{"code":"E07"}`)},
		{Attribute: "EVENTS-SITE1", Body: []byte(`{"event":"cover-opened"}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("%d segment deposits", len(seqs))
	}

	collect := func(rc *rclient.Client) []*Assembled {
		t.Helper()
		msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", rc.ID(), err)
		}
		as := NewAssembler()
		for _, m := range msgs {
			env, ok := Unwrap(m.Payload)
			if !ok {
				t.Fatalf("%s: non-segment payload", rc.ID())
			}
			if env.Group != group {
				t.Fatalf("%s: wrong group", rc.ID())
			}
			if err := as.Add(env); err != nil {
				t.Fatal(err)
			}
		}
		return as.Groups()
	}

	// Retailer: consumption only, partial view.
	rGroups := collect(retailer)
	if len(rGroups) != 1 || rGroups[0].Complete() {
		t.Fatalf("retailer view wrong: %+v", rGroups)
	}
	if !bytes.Equal(rGroups[0].Join(), []byte(`{"kwh":42.7}`)) {
		t.Fatal("retailer got the wrong segment")
	}

	// Operator: errors only.
	oGroups := collect(operator)
	if len(oGroups) != 1 || !bytes.Equal(oGroups[0].Join(), []byte(`{"code":"E07"}`)) {
		t.Fatal("operator got the wrong segment")
	}

	// Full-service: complete reassembly in index order.
	fGroups := collect(fullService)
	if len(fGroups) != 1 || !fGroups[0].Complete() {
		t.Fatal("full-service view incomplete")
	}
	want := []byte(`{"kwh":42.7}{"code":"E07"}{"event":"cover-opened"}`)
	if !bytes.Equal(fGroups[0].Join(), want) {
		t.Fatalf("reassembly = %s", fGroups[0].Join())
	}
}
