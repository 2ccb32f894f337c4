package sim

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// emissions generates n messages by cycling through the fleet.
func emissions(f *Fleet, n int) []Emission {
	out := make([]Emission, n)
	for i := range out {
		out[i] = f.Meters[i%len(f.Meters)].Next()
	}
	return out
}

func TestFleetDeterminism(t *testing.T) {
	cfg := FleetConfig{Seed: 42, PerSite: map[MeterKind]int{Electric: 2, Water: 1, Gas: 1}}
	a := NewFleet(cfg)
	b := NewFleet(cfg)
	ea := emissions(a, 50)
	eb := emissions(b, 50)
	for i := range ea {
		if !bytes.Equal(ea[i].Payload, eb[i].Payload) || ea[i].Attribute != eb[i].Attribute {
			t.Fatalf("emission %d differs across identically seeded fleets", i)
		}
	}
	// Different seed, different stream.
	c := NewFleet(FleetConfig{Seed: 43, PerSite: cfg.PerSite})
	diff := false
	for i, e := range emissions(c, 50) {
		if !bytes.Equal(e.Payload, ea[i].Payload) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestFleetComposition(t *testing.T) {
	f := NewFleet(FleetConfig{
		Seed:    1,
		Sites:   []string{"SITE-A", "SITE-B"},
		PerSite: map[MeterKind]int{Electric: 3, Water: 2, Gas: 1},
	})
	if len(f.Meters) != 2*(3+2+1) {
		t.Fatalf("fleet has %d meters", len(f.Meters))
	}
	attrs := f.Attributes()
	if len(attrs) != 6 { // 3 kinds × 2 sites
		t.Fatalf("fleet spans %d attributes: %v", len(attrs), attrs)
	}
	for _, a := range attrs {
		if err := a.Validate(); err != nil {
			t.Fatalf("generated attribute %q invalid: %v", a, err)
		}
	}
}

func TestMeterAttributeFormat(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 1})
	for _, m := range f.Meters {
		a := string(m.Attribute())
		if !strings.HasPrefix(a, m.Kind.String()+"-") {
			t.Fatalf("attribute %q does not start with kind", a)
		}
		if !strings.HasSuffix(a, "APTCOMPLEX-SV-CA") {
			t.Fatalf("attribute %q missing site", a)
		}
	}
}

func TestEmissionClassesAppear(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 7, PerSite: map[MeterKind]int{Electric: 4, Water: 0, Gas: 0}})
	classes := make(map[MessageClass]int)
	for _, e := range emissions(f, 2000) {
		classes[e.Class]++
		if len(e.Payload) == 0 {
			t.Fatal("empty payload")
		}
	}
	if classes[Reading] == 0 || classes[ErrorNotification] == 0 || classes[Event] == 0 {
		t.Fatalf("class mix degenerate: %v", classes)
	}
	if classes[Reading] < classes[ErrorNotification] {
		t.Fatal("readings should dominate the mix")
	}
}

func TestRound(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 3, PerSite: map[MeterKind]int{Electric: 2, Water: 2, Gas: 2}})
	round := f.Round()
	if len(round) != len(f.Meters) {
		t.Fatalf("round emitted %d messages for %d meters", len(round), len(f.Meters))
	}
	seen := make(map[string]bool)
	for _, e := range round {
		if seen[e.Meter.ID] {
			t.Fatal("meter emitted twice in one round")
		}
		seen[e.Meter.ID] = true
	}
}

func TestFigure1Scenario(t *testing.T) {
	s := Figure1Scenario([]string{"SITE-A"})
	if len(s.Companies) != 3 {
		t.Fatalf("scenario has %d companies", len(s.Companies))
	}
	if got := len(s.Companies["C-Services"]); got != 3 {
		t.Fatalf("C-Services holds %d attributes, want 3", got)
	}
	if got := len(s.Companies["Electric-and-Gas-Co"]); got != 2 {
		t.Fatalf("E&G holds %d attributes, want 2", got)
	}
	if got := len(s.Companies["Water-and-Resources-Co"]); got != 1 {
		t.Fatalf("W&R holds %d attributes, want 1", got)
	}
	if !slices.Contains(s.Companies["Water-and-Resources-Co"], "WATER-SITE-A") {
		t.Fatal("W&R missing the water attribute")
	}
	// Multi-site scales linearly.
	s2 := Figure1Scenario([]string{"SITE-A", "SITE-B"})
	if got := len(s2.Companies["C-Services"]); got != 6 {
		t.Fatalf("two-site C-Services holds %d attributes", got)
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if Electric.String() != "ELECTRIC" || Water.String() != "WATER" || Gas.String() != "GAS" {
		t.Fatal("kind strings wrong")
	}
	if Reading.String() != "reading" || ErrorNotification.String() != "error" || Event.String() != "event" {
		t.Fatal("class strings wrong")
	}
}
