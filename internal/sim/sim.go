// Package sim generates synthetic smart-device workloads for the
// utility-industry scenario of §II / Figure 1: fleets of electric, water
// and gas meters emitting consumption readings, error notifications, and
// events on deterministic schedules. The paper demonstrated with a manual
// web form; the simulator replaces that with reproducible load so the
// scalability requirement (§III iv) can be measured (experiments E2, E8).
//
// Generation is deterministic for a given seed — benchmarks and tests get
// identical fleets run to run.
package sim

import (
	"fmt"

	//mwslint:ignore randsource deterministic workload generation only; no key material or nonces come from this stream
	"math/rand"

	"mwskit/internal/attr"
)

// MeterKind enumerates the device classes of the scenario.
type MeterKind int

// The three utility classes of Figure 1.
const (
	Electric MeterKind = iota
	Water
	Gas
)

// String implements fmt.Stringer.
func (k MeterKind) String() string {
	switch k {
	case Electric:
		return "ELECTRIC"
	case Water:
		return "WATER"
	case Gas:
		return "GAS"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// unit returns the measurement unit for readings of this kind.
func (k MeterKind) unit() string {
	switch k {
	case Electric:
		return "kWh"
	case Water:
		return "m3"
	default:
		return "therm"
	}
}

// MessageClass distinguishes the paper's three message purposes (§VIII
// discusses splitting them across attributes).
type MessageClass int

// Message classes emitted by meters.
const (
	Reading MessageClass = iota
	ErrorNotification
	Event
)

// String implements fmt.Stringer.
func (c MessageClass) String() string {
	switch c {
	case Reading:
		return "reading"
	case ErrorNotification:
		return "error"
	default:
		return "event"
	}
}

// Meter is one simulated smart device.
type Meter struct {
	ID       string
	Kind     MeterKind
	Site     string // e.g. "APTCOMPLEX-SV-CA"
	seq      int
	baseline float64
	rng      *rand.Rand
}

// Attribute returns the recipient-characterizing attribute this meter
// encrypts toward: KIND-SITE, mirroring the paper's
// "ELECTRIC-<APTCOMPLEXNAME>-SV-CA" format.
func (m *Meter) Attribute() attr.Attribute {
	return attr.Attribute(m.Kind.String() + "-" + m.Site)
}

// Emission is one generated message before encryption.
type Emission struct {
	Meter     *Meter
	Class     MessageClass
	Attribute attr.Attribute
	Payload   []byte
}

// Next generates the meter's next message: mostly readings with a random
// walk around the baseline, occasionally errors and events.
func (m *Meter) Next() Emission {
	m.seq++
	class := Reading
	switch roll := m.rng.Intn(100); {
	case roll < 3:
		class = ErrorNotification
	case roll < 8:
		class = Event
	}
	var payload string
	switch class {
	case Reading:
		m.baseline += m.rng.Float64()*2 - 0.5
		if m.baseline < 0 {
			m.baseline = 0
		}
		payload = fmt.Sprintf(`{"meter":%q,"seq":%d,"class":"reading","value":%.3f,"unit":%q}`,
			m.ID, m.seq, m.baseline, m.Kind.unit())
	case ErrorNotification:
		payload = fmt.Sprintf(`{"meter":%q,"seq":%d,"class":"error","code":"E%02d"}`,
			m.ID, m.seq, m.rng.Intn(32))
	case Event:
		payload = fmt.Sprintf(`{"meter":%q,"seq":%d,"class":"event","kind":"tamper-check"}`,
			m.ID, m.seq)
	}
	return Emission{Meter: m, Class: class, Attribute: m.Attribute(), Payload: []byte(payload)}
}

// Fleet is a deterministic collection of meters.
type Fleet struct {
	Meters []*Meter
	rng    *rand.Rand
}

// FleetConfig sizes a fleet.
type FleetConfig struct {
	Seed      int64
	Sites     []string // default: one site, "APTCOMPLEX-SV-CA"
	PerSite   map[MeterKind]int
	BodyExtra int // pad payloads by this many extra bytes (message-size sweeps)
}

// NewFleet builds a fleet. With a zero PerSite map it creates one meter
// of each kind per site.
func NewFleet(cfg FleetConfig) *Fleet {
	if len(cfg.Sites) == 0 {
		cfg.Sites = []string{"APTCOMPLEX-SV-CA"}
	}
	if len(cfg.PerSite) == 0 {
		cfg.PerSite = map[MeterKind]int{Electric: 1, Water: 1, Gas: 1}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{rng: rng}
	for _, site := range cfg.Sites {
		for _, kind := range []MeterKind{Electric, Water, Gas} {
			for i := 0; i < cfg.PerSite[kind]; i++ {
				m := &Meter{
					ID:       fmt.Sprintf("%s-%s-meter-%03d", site, kind, i),
					Kind:     kind,
					Site:     site,
					baseline: 10 + rng.Float64()*40,
					rng:      rand.New(rand.NewSource(rng.Int63())),
				}
				f.Meters = append(f.Meters, m)
			}
		}
	}
	return f
}

// Round has every meter emit one message, returning the emissions in
// fleet order.
func (f *Fleet) Round() []Emission {
	out := make([]Emission, len(f.Meters))
	for i, m := range f.Meters {
		out[i] = m.Next()
	}
	return out
}

// Attributes returns the distinct attributes the fleet encrypts toward.
func (f *Fleet) Attributes() attr.Set {
	seen := make(map[attr.Attribute]bool)
	var out attr.Set
	for _, m := range f.Meters {
		a := m.Attribute()
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Scenario wires the Figure 1 access matrix for a fleet's sites: for each
// site, C-Services reads all three kinds, Electric-and-Gas reads electric
// and gas, Water-and-Resources reads water.
type Scenario struct {
	Companies map[string]attr.Set
}

// Figure1Scenario builds the paper's company/attribute matrix over sites.
func Figure1Scenario(sites []string) *Scenario {
	s := &Scenario{Companies: map[string]attr.Set{}}
	add := func(company string, kind MeterKind, site string) {
		s.Companies[company] = append(s.Companies[company], attr.Attribute(kind.String()+"-"+site))
	}
	for _, site := range sites {
		for _, kind := range []MeterKind{Electric, Water, Gas} {
			add("C-Services", kind, site)
		}
		add("Electric-and-Gas-Co", Electric, site)
		add("Electric-and-Gas-Co", Gas, site)
		add("Water-and-Resources-Co", Water, site)
	}
	return s
}
