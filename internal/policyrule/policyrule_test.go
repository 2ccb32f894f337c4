package policyrule

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var now = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

// format renders a set back to the textual form Parse accepts: the round
// trip TestParseFormatRoundTrip checks.
func format(s *Set) string {
	var b strings.Builder
	for _, r := range s.Rules {
		b.WriteString(r.Effect.String())
		fmt.Fprintf(&b, " identity=%s attribute=%s", orStar(r.Identity), orStar(r.Attribute))
		if !r.NotBefore.IsZero() {
			fmt.Fprintf(&b, " after=%s", r.NotBefore.Format(time.RFC3339))
		}
		if !r.NotAfter.IsZero() {
			fmt.Fprintf(&b, " before=%s", r.NotAfter.Format(time.RFC3339))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "default %s\n", s.Default)
	return b.String()
}

func TestGlob(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"ELECTRIC-*", "ELECTRIC-APT-SV-CA", true},
		{"ELECTRIC-*", "WATER-APT-SV-CA", false},
		{"*-SV-CA", "ELECTRIC-APT-SV-CA", true},
		{"*-SV-CA", "ELECTRIC-APT-SV-TX", false},
		{"A?C", "ABC", true},
		{"A?C", "AC", false},
		{"*A*B*", "xxAyyBzz", true},
		{"*A*B*", "xxByyAzz", false},
		{"C-*", "C-Services", true},
		{"exact", "exact", true},
		{"exact", "exac", false},
		{"a*a*a", "aaa", true},
		{"a*a*a", "aa", false},
	}
	for _, c := range cases {
		if got := Glob(c.pattern, c.s); got != c.want {
			t.Errorf("Glob(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestGlobNeverPanicsAndStarMatchesAll(t *testing.T) {
	if err := quick.Check(func(p, s string) bool {
		Glob(p, s) // no panic on arbitrary input
		return Glob("*", s)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstApplicable(t *testing.T) {
	set := &Set{
		Rules: []Rule{
			{Effect: Deny, Identity: "contractor-*", Attribute: "WATER-*"},
			{Effect: Permit, Identity: "contractor-*"},
			{Effect: Deny, Attribute: "*-AUDIT"},
		},
		Default: Permit,
	}
	cases := []struct {
		id, a string
		want  Effect
	}{
		{"contractor-1", "WATER-X", Deny},      // rule 0
		{"contractor-1", "ELECTRIC-X", Permit}, // rule 1 (shadows rule 2)
		{"contractor-1", "LOG-AUDIT", Permit},  // rule 1 wins by order
		{"c-services", "LOG-AUDIT", Deny},      // rule 2
		{"c-services", "ELECTRIC-X", Permit},   // default
	}
	for _, c := range cases {
		if got := set.Evaluate(c.id, c.a, now); got != c.want {
			t.Errorf("Evaluate(%q, %q) = %v, want %v", c.id, c.a, got, c.want)
		}
	}
}

func TestDefaultDeny(t *testing.T) {
	set := &Set{
		Rules:   []Rule{{Effect: Permit, Attribute: "ELECTRIC-*"}},
		Default: Deny,
	}
	if set.Evaluate("anyone", "ELECTRIC-X", now) != Permit {
		t.Error("whitelisted attribute denied")
	}
	if set.Evaluate("anyone", "WATER-X", now) != Deny {
		t.Error("default deny not applied")
	}
}

func TestTimeWindows(t *testing.T) {
	contract := Rule{
		Effect:    Permit,
		Identity:  "c-services",
		NotBefore: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2026, 12, 31, 0, 0, 0, 0, time.UTC),
	}
	set := &Set{Rules: []Rule{contract}, Default: Deny}
	if set.Evaluate("c-services", "A", now) != Permit {
		t.Error("in-window request denied")
	}
	before := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	if set.Evaluate("c-services", "A", before) != Deny {
		t.Error("pre-window request permitted")
	}
	after := time.Date(2027, 6, 1, 0, 0, 0, 0, time.UTC)
	if set.Evaluate("c-services", "A", after) != Deny {
		t.Error("post-window request permitted")
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	text := `
# contractor restrictions
deny   identity=contractor-* attribute=WATER-*
permit identity=C-* attribute=ELECTRIC-* after=2026-01-01T00:00:00Z
default deny
`
	set, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rules) != 2 || set.Default != Deny {
		t.Fatalf("parsed %d rules default %v", len(set.Rules), set.Default)
	}
	if set.Rules[0].Effect != Deny || set.Rules[0].Attribute != "WATER-*" {
		t.Fatalf("rule 0 = %+v", set.Rules[0])
	}
	if set.Rules[1].NotBefore.IsZero() {
		t.Fatal("after= clause lost")
	}
	// Round trip through format.
	again, err := Parse(format(set))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, format(set))
	}
	if len(again.Rules) != 2 || again.Default != Deny {
		t.Fatal("format/parse round trip changed the set")
	}
	if again.Evaluate("contractor-9", "WATER-1", now) != Deny {
		t.Fatal("round-tripped set behaves differently")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"allow identity=*",
		"permit identity",
		"permit when=now",
		"permit after=not-a-time",
		"default maybe",
		"default",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Set{Rules: []Rule{{Effect: Permit}}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := &Set{Rules: []Rule{{
		Effect:    Permit,
		NotBefore: time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty validity window accepted")
	}
}

func TestPermitAll(t *testing.T) {
	s := PermitAll()
	if s.Evaluate("x", "y", now) != Permit {
		t.Fatal("PermitAll denied")
	}
	if !strings.Contains(format(s), "default permit") {
		t.Fatal("format of PermitAll wrong")
	}
}
