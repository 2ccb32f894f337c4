package policy

import (
	"strings"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/storage"
)

// openDB builds a policy DB over a standalone KV at dir; closeKV releases
// the KV (also run at test cleanup, where a second close is harmless).
func openDB(t *testing.T, dir string) (db *DB, closeKV func() error) {
	t.Helper()
	kv, err := storage.OpenKV(dir, storage.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	db, err = New(kv)
	if err != nil {
		t.Fatal(err)
	}
	return db, kv.Close
}

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, _ := openDB(t, t.TempDir())
	return db
}

func TestGrantAssignsSequentialAIDs(t *testing.T) {
	db := openTestDB(t)
	a1, err := db.Grant("IDRC1", "A1")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := db.Grant("IDRC1", "A2")
	if err != nil {
		t.Fatal(err)
	}
	a3, err := db.Grant("IDRC2", "A1")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != 1 || a2 != 2 || a3 != 3 {
		t.Fatalf("AIDs = %d,%d,%d, want 1,2,3", a1, a2, a3)
	}
}

// TestTable1Reproduction (experiment E1) reproduces the paper's Table 1
// exactly: IDRC1→{A1:1, A2:2}, IDRC2→{A1:3}, IDRC3→{A3:4}, IDRC4→{A4:5}.
func TestTable1Reproduction(t *testing.T) {
	db := openTestDB(t)
	grants := []struct {
		id string
		a  attr.Attribute
	}{
		{"IDRC1", "A1"}, {"IDRC1", "A2"}, {"IDRC2", "A1"},
		{"IDRC3", "A3"}, {"IDRC4", "A4"},
	}
	for _, g := range grants {
		if _, err := db.Grant(g.id, g.a); err != nil {
			t.Fatal(err)
		}
	}
	table := db.Table()
	want := []attr.Binding{
		{Identity: "IDRC1", Attribute: "A1", AID: 1},
		{Identity: "IDRC1", Attribute: "A2", AID: 2},
		{Identity: "IDRC2", Attribute: "A1", AID: 3},
		{Identity: "IDRC3", Attribute: "A3", AID: 4},
		{Identity: "IDRC4", Attribute: "A4", AID: 5},
	}
	if len(table) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(table), len(want))
	}
	for i, row := range want {
		if table[i] != row {
			t.Errorf("row %d = %+v, want %+v", i, table[i], row)
		}
	}
	// Render matches the paper's column layout.
	rendered := FormatTable(table)
	if !strings.HasPrefix(rendered, "Identity\tAttribute\tAttribute ID\n") {
		t.Error("FormatTable header wrong")
	}
	if !strings.Contains(rendered, "IDRC2\tA1\t3\n") {
		t.Errorf("FormatTable missing the key Table 1 row:\n%s", rendered)
	}
	t.Logf("Table 1 reproduction:\n%s", rendered)
}

func TestGrantIdempotent(t *testing.T) {
	db := openTestDB(t)
	a1, _ := db.Grant("id", "A1")
	a2, _ := db.Grant("id", "A1")
	if a1 != a2 {
		t.Fatalf("re-grant changed AID: %d vs %d", a1, a2)
	}
	if len(db.Table()) != 1 {
		t.Fatal("re-grant added a row")
	}
}

func TestGrantValidation(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Grant("", "A1"); err == nil {
		t.Error("empty identity accepted")
	}
	if _, err := db.Grant("id\x00evil", "A1"); err == nil {
		t.Error("NUL identity accepted")
	}
	if _, err := db.Grant("id", "bad attr"); err == nil {
		t.Error("invalid attribute accepted")
	}
}

func TestHasAttributeAndRevoke(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Grant("C-Services", "ELECTRIC-APT-SV-CA"); err != nil {
		t.Fatal(err)
	}
	if !db.HasAttribute("C-Services", "ELECTRIC-APT-SV-CA") {
		t.Fatal("granted attribute not found")
	}
	if db.HasAttribute("C-Services", "WATER-APT-SV-CA") {
		t.Fatal("ungranted attribute reported")
	}
	if err := db.Revoke("C-Services", "ELECTRIC-APT-SV-CA"); err != nil {
		t.Fatal(err)
	}
	if db.HasAttribute("C-Services", "ELECTRIC-APT-SV-CA") {
		t.Fatal("revoked attribute still present")
	}
	// Revoking again is a no-op.
	if err := db.Revoke("C-Services", "ELECTRIC-APT-SV-CA"); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeAll(t *testing.T) {
	db := openTestDB(t)
	for _, a := range []attr.Attribute{"ELECTRIC-X", "WATER-X", "GAS-X"} {
		if _, err := db.Grant("C-Services", a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Grant("Other", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	if err := db.RevokeAll("C-Services"); err != nil {
		t.Fatal(err)
	}
	if len(db.BindingsFor("C-Services")) != 0 {
		t.Fatal("RevokeAll left grants behind")
	}
	if !db.HasAttribute("Other", "ELECTRIC-X") {
		t.Fatal("RevokeAll removed another identity's grant")
	}
}

func TestByAID(t *testing.T) {
	db := openTestDB(t)
	aid, _ := db.Grant("rc1", "ATTR-1")
	b, ok := db.ByAID(aid)
	if !ok || b.Identity != "rc1" || b.Attribute != "ATTR-1" {
		t.Fatalf("ByAID = %+v, %v", b, ok)
	}
	if _, ok := db.ByAID(999); ok {
		t.Fatal("unknown AID resolved")
	}
	// Revocation kills AID resolution (so stale tickets cannot extract).
	if err := db.Revoke("rc1", "ATTR-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.ByAID(aid); ok {
		t.Fatal("revoked AID still resolves")
	}
}

func TestBindingsSortedByAID(t *testing.T) {
	db := openTestDB(t)
	for _, a := range []attr.Attribute{"Z-ATTR", "A-ATTR", "M-ATTR"} {
		if _, err := db.Grant("rc", a); err != nil {
			t.Fatal(err)
		}
	}
	bs := db.BindingsFor("rc")
	for i := 1; i < len(bs); i++ {
		if bs[i].AID <= bs[i-1].AID {
			t.Fatal("bindings not sorted by AID")
		}
	}
	set := db.AttributesFor("rc")
	if len(set) != 3 || !set.Contains("Z-ATTR") {
		t.Fatalf("AttributesFor = %v", set)
	}
}

func TestIdentities(t *testing.T) {
	db := openTestDB(t)
	db.Grant("b-co", "A1")
	db.Grant("a-co", "A1")
	ids := db.Identities()
	if len(ids) != 2 || ids[0] != "a-co" || ids[1] != "b-co" {
		t.Fatalf("Identities = %v", ids)
	}
}

func TestPolicyDurability(t *testing.T) {
	dir := t.TempDir()
	db, closeKV := openDB(t, dir)
	db.Grant("IDRC1", "A1")
	db.Grant("IDRC1", "A2")
	db.Grant("IDRC2", "A1")
	db.Revoke("IDRC1", "A2")
	if err := closeKV(); err != nil {
		t.Fatal(err)
	}

	db2, _ := openDB(t, dir)
	if !db2.HasAttribute("IDRC1", "A1") || db2.HasAttribute("IDRC1", "A2") {
		t.Fatal("grants not recovered correctly")
	}
	if !db2.HasAttribute("IDRC2", "A1") {
		t.Fatal("IDRC2 grant lost")
	}
	// AID counter must not rewind: a new grant gets a fresh AID, not a
	// recycled one (recycling would let an old ticket resolve to a new
	// attribute).
	aid, err := db2.Grant("IDRC3", "A3")
	if err != nil {
		t.Fatal(err)
	}
	if aid != 4 {
		t.Fatalf("post-recovery AID = %d, want 4", aid)
	}
}

// ackGatedKV applies each Put and Delete to the store at once but holds
// its acknowledgement until the test releases it: the window in which a
// storage mutation is visible in the KV and not yet durable.
type ackGatedKV struct {
	storage.KV
	applied, release chan struct{}
}

func (g *ackGatedKV) gate(err error) error {
	g.applied <- struct{}{}
	<-g.release
	return err
}

func (g *ackGatedKV) Put(key string, value []byte) error { return g.gate(g.KV.Put(key, value)) }
func (g *ackGatedKV) Delete(key string) error            { return g.gate(g.KV.Delete(key)) }

// TestLookupsFollowAcks: policy changes its index only once the store
// has acknowledged the mutation. While a grant's commit is outstanding no
// lookup reports the binding, and once Revoke returns the binding is gone
// from every lookup: a revoke is in force no later than its ack.
func TestLookupsFollowAcks(t *testing.T) {
	kv, err := storage.OpenKV(t.TempDir(), storage.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	g := &ackGatedKV{KV: kv, applied: make(chan struct{}), release: make(chan struct{})}
	db, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	const id, a = "C-Services", attr.Attribute("ELECTRIC-APT-SV-CA")

	// A lookup racing an unacknowledged mutation either waits for it or
	// sees the state before it.
	lookup := make(chan bool, 1)
	granted := make(chan attr.ID, 1)
	go func() {
		aid, err := db.Grant(id, a)
		if err != nil {
			t.Error(err)
		}
		granted <- aid
	}()
	<-g.applied // the AID counter
	g.release <- struct{}{}
	<-g.applied // the grant row: in the KV, not yet acknowledged
	go func() { lookup <- db.HasAttribute(id, a) }()
	select {
	case saw := <-lookup:
		if saw {
			t.Fatal("lookup saw a grant whose commit had not returned")
		}
	case <-time.After(20 * time.Millisecond):
	}
	g.release <- struct{}{}
	aid := <-granted
	if !db.HasAttribute(id, a) {
		t.Fatal("acknowledged grant missing from lookups")
	}

	revoked := make(chan error, 1)
	go func() { revoked <- db.Revoke(id, a) }()
	<-g.applied // the grant row is gone from the KV; the ack is held
	g.release <- struct{}{}
	if err := <-revoked; err != nil {
		t.Fatal(err)
	}
	if db.HasAttribute(id, a) || len(db.BindingsFor(id)) != 0 || len(db.Table()) != 0 {
		t.Fatal("binding still visible after Revoke returned")
	}
	if _, ok := db.ByAID(aid); ok {
		t.Fatal("revoked AID still resolves after Revoke returned")
	}
}
