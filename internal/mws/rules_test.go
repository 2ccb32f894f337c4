package mws

import (
	"context"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/policyrule"
	"mwskit/internal/wire"
)

// attrT converts for terse table-driven deposits.
func attrT(s string) attr.Attribute { return attr.Attribute(s) }

// TestRuleLayerFiltersRetrieval verifies the §VIII XACML-style rule layer:
// a grant present in Table 1 can be suspended by a deny rule without
// revoking it, and restored by removing the rule.
func TestRuleLayerFiltersRetrieval(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "contractor-7", []byte("pw"))
	if _, err := s.Grant("contractor-7", "WATER-X"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant("contractor-7", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"WATER-X", "ELECTRIC-X"} {
		req, _ := d.PrepareDeposit(attrT(a), []byte("m"))
		if _, err := s.Deposit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}

	// No rules: both messages visible.
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "contractor-7", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 {
		t.Fatalf("baseline items = %d", len(resp.Items))
	}

	// Deny water to contractors; the grant stays in Table 1.
	rules, err := policyrule.Parse("deny identity=contractor-* attribute=WATER-*\ndefault permit")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	resp2, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "contractor-7", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Items) != 1 {
		t.Fatalf("rule-filtered items = %d, want 1", len(resp2.Items))
	}
	if len(s.PolicyTable()) != 2 {
		t.Fatal("rule layer mutated Table 1")
	}

	// Clearing the rules restores access.
	if err := s.SetRules(nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	resp3, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "contractor-7", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp3.Items) != 2 {
		t.Fatalf("post-clear items = %d", len(resp3.Items))
	}
}

func TestRuleLayerTimeWindow(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "rc", []byte("pw"))
	if _, err := s.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	if _, err := s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)

	// Contract expires one hour from "now".
	expiry := clock.Now().Add(time.Hour)
	if err := s.SetRules(&policyrule.Set{
		Rules:   []policyrule.Rule{{Effect: policyrule.Permit, Identity: "rc", NotAfter: expiry}},
		Default: policyrule.Deny,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 {
		t.Fatalf("in-contract items = %d", len(resp.Items))
	}
	// Time passes beyond the contract.
	clock.Advance(2 * time.Hour)
	resp2, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Items) != 0 {
		t.Fatalf("expired-contract items = %d, want 0", len(resp2.Items))
	}
}

// TestRuleCannotWidenTable1 pins "a rule can only narrow Table 1": a
// permit-everything rule gives an RC nothing it was never granted.
func TestRuleCannotWidenTable1(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "rc", []byte("pw"))
	req, _ := d.PrepareDeposit("NEVER-GRANTED", []byte("m"))
	if _, err := s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	rules, err := policyrule.Parse("permit identity=* attribute=*")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRules(rules); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 0 {
		t.Fatalf("permit * handed out %d messages for an attribute never granted", len(resp.Items))
	}
}

func TestSetRulesValidates(t *testing.T) {
	s, _ := newTestService(t)
	bad := &policyrule.Set{Rules: []policyrule.Rule{{
		Effect:    policyrule.Permit,
		NotBefore: time.Unix(200, 0),
		NotAfter:  time.Unix(100, 0),
	}}}
	if err := s.SetRules(bad); err == nil {
		t.Fatal("invalid rule set accepted")
	}
}
