package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 output: the full run report — surviving findings,
// suppressed findings with their in-source justifications, and
// declassification points — as one sarifLog, so CI code-scanning UIs
// show the same picture `mwslint` prints. Only the fields the format
// requires (plus rule metadata) are emitted; the struct tags below are
// the schema, there is no external dependency.

const (
	sarifVersion   = "2.1.0"
	sarifSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	// sarifDeclassifyRule is the pseudo-rule declassification points are
	// reported under (level "note"): they are not findings, but a reviewer
	// auditing the constant-time discipline must see every place the
	// secret lattice was cut by hand.
	sarifDeclassifyRule = "mwslint/declassify"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// sarifURI renders a diagnostic's filename as a URI relative to base
// (forward slashes per the spec); paths outside base stay as given.
func sarifURI(base, file string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// WriteSARIF renders the report as a SARIF 2.1.0 log. analyzers supplies
// the rule metadata (every analyzer that ran, not just those with
// findings, plus the "mwslint" directive-validation pseudo-rule and the
// declassification pseudo-rule). base, when non-empty, makes artifact
// URIs relative to it.
func WriteSARIF(w io.Writer, rep *Report, analyzers []*Analyzer, base string) error {
	rules := []sarifRule{{
		ID:               "mwslint",
		ShortDescription: sarifMessage{Text: "malformed mwslint directive (missing reason, unknown analyzer)"},
	}, {
		ID:               sarifDeclassifyRule,
		ShortDescription: sarifMessage{Text: "//mwslint:declassify directive: values on this line are asserted public"},
	}}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	ruleIndex := make(map[string]int, len(rules))
	for i, r := range rules {
		ruleIndex[r.ID] = i
	}

	loc := func(file string, line, col int) []sarifLocation {
		return []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
			ArtifactLocation: sarifArtifactLocation{URI: sarifURI(base, file)},
			Region:           sarifRegion{StartLine: line, StartColumn: col},
		}}}
	}

	results := make([]sarifResult, 0, len(rep.Diags)+len(rep.Suppressed)+len(rep.Declassified))
	for _, d := range rep.Diags {
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: loc(d.Pos.Filename, d.Pos.Line, d.Pos.Column),
		})
	}
	for _, s := range rep.Suppressed {
		results = append(results, sarifResult{
			RuleID:       s.Analyzer,
			RuleIndex:    ruleIndex[s.Analyzer],
			Level:        "warning",
			Message:      sarifMessage{Text: "suppressed by //mwslint:ignore: " + s.Reason},
			Locations:    loc(s.Pos.Filename, s.Pos.Line, s.Pos.Column),
			Suppressions: []sarifSuppression{{Kind: "inSource", Justification: s.Reason}},
		})
	}
	for _, dc := range rep.Declassified {
		results = append(results, sarifResult{
			RuleID:    sarifDeclassifyRule,
			RuleIndex: ruleIndex[sarifDeclassifyRule],
			Level:     "note",
			Message:   sarifMessage{Text: "declassified: " + dc.Reason},
			Locations: loc(dc.Pos.Filename, dc.Pos.Line, dc.Pos.Column),
		})
	}

	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "mwslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
