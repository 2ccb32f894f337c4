// Healthcare: role-based secure messaging on the mwskit API — the
// application scenario of the paper's related work [3] (Casassa Mont et
// al., "A Flexible Role-based Secure Messaging Service"), rebuilt on the
// warehouse model. Medical devices deposit observations toward *role*
// attributes (CARDIOLOGIST-WARD7, NURSE-WARD7, PHARMACY-CENTRAL); staff
// clients hold roles, not device lists, and revoking a role instantly
// stops future access — no device is reconfigured. A §VIII rule then
// narrows one grant for an hour; the policy table is untouched.
//
//	go run ./examples/healthcare
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/core"
	"mwskit/internal/policyrule"
	"mwskit/internal/wal"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "mwskit-healthcare-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := core.NewDeployment(core.DeploymentConfig{Dir: dir, Preset: "test", Sync: wal.SyncNever})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	if err := dep.Start(); err != nil {
		log.Fatal(err)
	}
	mwsConn, err := dep.DialMWS()
	if err != nil {
		log.Fatal(err)
	}
	defer mwsConn.Close()
	pkgConn, err := dep.DialPKG()
	if err != nil {
		log.Fatal(err)
	}
	defer pkgConn.Close()

	const (
		roleCardio   = attr.Attribute("CARDIOLOGIST-WARD7")
		roleNurse    = attr.Attribute("NURSE-WARD7")
		rolePharmacy = attr.Attribute("PHARMACY-CENTRAL")
	)

	// Bedside devices are the depositing clients.
	monitorKey, err := dep.MWS.RegisterDevice("ecg-monitor-bed3")
	if err != nil {
		log.Fatal(err)
	}
	monitor, err := dep.NewDevice("ecg-monitor-bed3", monitorKey)
	if err != nil {
		log.Fatal(err)
	}
	pumpKey, err := dep.MWS.RegisterDevice("infusion-pump-bed3")
	if err != nil {
		log.Fatal(err)
	}
	pump, err := dep.NewDevice("infusion-pump-bed3", pumpKey)
	if err != nil {
		log.Fatal(err)
	}

	// Staff accounts with role grants.
	drWho, err := dep.EnrollClient("dr-who", []byte("gallifrey"))
	if err != nil {
		log.Fatal(err)
	}
	nurseJoy, err := dep.EnrollClient("nurse-joy", []byte("pewter-city"))
	if err != nil {
		log.Fatal(err)
	}
	grants := []struct {
		who  string
		role attr.Attribute
	}{
		{"dr-who", roleCardio},
		{"dr-who", roleNurse}, // physicians also see nursing notes
		{"nurse-joy", roleNurse},
		{"nurse-joy", rolePharmacy},
	}
	for _, g := range grants {
		if _, err := dep.Grant(g.who, g.role); err != nil {
			log.Fatal(err)
		}
	}

	must := func(_ uint64, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// The monitor reports an arrhythmia to cardiologists and vitals to
	// nurses; the pump reports to pharmacy and nurses.
	must(monitor.Deposit(mwsConn, roleCardio, []byte(`{"alert":"arrhythmia","bed":3,"hr":162}`)))
	must(monitor.Deposit(mwsConn, roleNurse, []byte(`{"vitals":{"hr":162,"spo2":94},"bed":3}`)))
	must(pump.Deposit(mwsConn, rolePharmacy, []byte(`{"event":"dose-administered","drug":"amiodarone","bed":3}`)))
	must(pump.Deposit(mwsConn, roleNurse, []byte(`{"event":"line-occlusion","bed":3}`)))

	// Role-filtered retrieval.
	drMsgs, err := drWho.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dr-who (cardiologist+nurse) sees %d messages:\n", len(drMsgs))
	for _, m := range drMsgs {
		fmt.Printf("  #%d %-20s %s\n", m.Seq, m.DeviceID, m.Payload)
	}
	joyMsgs, err := nurseJoy.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nurse-joy (nurse+pharmacy) sees %d messages:\n", len(joyMsgs))
	for _, m := range joyMsgs {
		fmt.Printf("  #%d %-20s %s\n", m.Seq, m.DeviceID, m.Payload)
	}

	// Pharmacy audit: for the next hour nurses do not read the pharmacy
	// feed. A rule only narrows a grant; Table 1 keeps nurse-joy's row.
	audit := policyrule.Rule{Effect: policyrule.Deny, Identity: "nurse-*", Attribute: "PHARMACY-*", NotAfter: time.Now().Add(time.Hour)}
	if err := dep.MWS.SetRules(&policyrule.Set{Rules: []policyrule.Rule{audit}, Default: policyrule.Permit}); err != nil {
		log.Fatal(err)
	}
	narrowed, err := nurseJoy.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
	if err != nil || len(narrowed) != len(joyMsgs)-1 {
		log.Fatalf("rule layer: nurse-joy sees %d messages, want %d (%v)", len(narrowed), len(joyMsgs)-1, err)
	}
	fmt.Printf("under a one-hour deny on PHARMACY-* for nurse-*, nurse-joy sees %d of %d messages\n", len(narrowed), len(joyMsgs))

	// Shift change: Dr Who rotates off cardiology. One policy row is
	// removed; the monitors are untouched.
	if err := dep.Revoke("dr-who", roleCardio); err != nil {
		log.Fatal(err)
	}
	must(monitor.Deposit(mwsConn, roleCardio, []byte(`{"alert":"arrhythmia-resolved","bed":3}`)))

	lastSeen := drMsgs[len(drMsgs)-1].Seq
	after, err := drWho.RetrieveAndDecrypt(mwsConn, pkgConn, lastSeen+1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after revoking the cardiology role, dr-who sees %d new cardiology messages (expected 0)\n", len(after))
}
