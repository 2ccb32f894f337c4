// Package policyrule implements the paper's §VIII policy extension: "The
// attributes that are currently used can be improved by considering an
// access policy, similar to XACML standards." It provides an ordered
// rule set evaluated with XACML's first-applicable combining algorithm,
// layered *on top of* the Table 1 grants: a request must both hold the
// grant (policy.DB) and pass the rules to retrieve a message.
//
// Rules match identity and attribute by glob pattern ('*' matches any
// run, '?' one character) and may carry a validity window — enough to
// express XACML's common target/condition shapes ("deny WATER-* to
// *-CONTRACTOR after 2026-01-01") without importing the XML machinery.
//
// The textual form, one rule per line:
//
//	permit identity=C-* attribute=ELECTRIC-*
//	deny   identity=*   attribute=*-AUDIT    before=2026-01-01T00:00:00Z
//	# comments and blank lines are ignored
package policyrule

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Effect is a rule outcome.
type Effect int

// Rule effects.
const (
	Deny Effect = iota
	Permit
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	if e == Permit {
		return "permit"
	}
	return "deny"
}

// Rule is one access rule.
type Rule struct {
	Effect    Effect
	Identity  string // glob over the RC identity; "" means "*"
	Attribute string // glob over the attribute string; "" means "*"
	// NotBefore/NotAfter bound the rule's applicability (zero = open).
	NotBefore time.Time
	NotAfter  time.Time
}

// applies reports whether the rule's target matches the request.
func (r *Rule) applies(identity, attribute string, now time.Time) bool {
	if !r.NotBefore.IsZero() && now.Before(r.NotBefore) {
		return false
	}
	if !r.NotAfter.IsZero() && now.After(r.NotAfter) {
		return false
	}
	return Glob(orStar(r.Identity), identity) && Glob(orStar(r.Attribute), attribute)
}

func orStar(p string) string {
	if p == "" {
		return "*"
	}
	return p
}

// Set is an ordered rule list with a default effect, combined
// first-applicable: the first rule whose target matches decides.
type Set struct {
	Rules   []Rule
	Default Effect
}

// PermitAll is the empty rule set that changes nothing.
func PermitAll() *Set { return &Set{Default: Permit} }

// Evaluate returns the effect for a request.
func (s *Set) Evaluate(identity, attribute string, now time.Time) Effect {
	for i := range s.Rules {
		if s.Rules[i].applies(identity, attribute, now) {
			return s.Rules[i].Effect
		}
	}
	return s.Default
}

// Glob matches s against pattern where '*' matches any run (including
// empty) and '?' matches exactly one byte. Iterative backtracking — no
// recursion, no pathological blowup.
func Glob(pattern, s string) bool {
	var px, sx int
	starPx, starSx := -1, 0
	for sx < len(s) {
		switch {
		case px < len(pattern) && (pattern[px] == '?' || pattern[px] == s[sx]):
			px++
			sx++
		case px < len(pattern) && pattern[px] == '*':
			starPx, starSx = px, sx
			px++
		case starPx >= 0:
			px = starPx + 1
			starSx++
			sx = starSx
		default:
			return false
		}
	}
	for px < len(pattern) && pattern[px] == '*' {
		px++
	}
	return px == len(pattern)
}

// Parse reads the textual rule format described in the package comment.
func Parse(text string) (*Set, error) {
	set := &Set{Default: Permit}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var r Rule
		switch fields[0] {
		case "permit":
			r.Effect = Permit
		case "deny":
			r.Effect = Deny
		case "default":
			if len(fields) != 2 {
				return nil, fmt.Errorf("policyrule: line %d: default needs one effect", lineNo+1)
			}
			switch fields[1] {
			case "permit":
				set.Default = Permit
			case "deny":
				set.Default = Deny
			default:
				return nil, fmt.Errorf("policyrule: line %d: unknown effect %q", lineNo+1, fields[1])
			}
			continue
		default:
			return nil, fmt.Errorf("policyrule: line %d: unknown verb %q", lineNo+1, fields[0])
		}
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("policyrule: line %d: malformed clause %q", lineNo+1, f)
			}
			switch key {
			case "identity":
				r.Identity = val
			case "attribute":
				r.Attribute = val
			case "before":
				ts, err := time.Parse(time.RFC3339, val)
				if err != nil {
					return nil, fmt.Errorf("policyrule: line %d: before: %w", lineNo+1, err)
				}
				r.NotAfter = ts
			case "after":
				ts, err := time.Parse(time.RFC3339, val)
				if err != nil {
					return nil, fmt.Errorf("policyrule: line %d: after: %w", lineNo+1, err)
				}
				r.NotBefore = ts
			default:
				return nil, fmt.Errorf("policyrule: line %d: unknown clause %q", lineNo+1, key)
			}
		}
		set.Rules = append(set.Rules, r)
	}
	return set, nil
}

// Validate sanity-checks the rule set.
func (s *Set) Validate() error {
	for i, r := range s.Rules {
		if !r.NotBefore.IsZero() && !r.NotAfter.IsZero() && r.NotAfter.Before(r.NotBefore) {
			return fmt.Errorf("policyrule: rule %d: empty validity window", i)
		}
		if r.Effect != Permit && r.Effect != Deny {
			return errors.New("policyrule: invalid effect")
		}
	}
	return nil
}
