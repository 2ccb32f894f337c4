// Command mwslint runs the project's static-analysis suite (DESIGN.md
// §8) at build time: constant-time tag comparison, CSPRNG-only
// randomness, no secrets in logs, context propagation, constant-time
// code on key material (ctflow), lock ordering, no blocking under
// storage locks, and no exported internal/ name without a production use.
//
// Usage:
//
//	mwslint [-C dir] [-json] [-sarif file] [-only names] [-skip names]
//	        [-timings] [-baseline file] [packages]
//
// Packages default to ./... relative to dir. Exit status is 1 when any
// analyzer reports an unsuppressed diagnostic (or the suppression
// baseline is exceeded), 2 when loading fails. With -json each
// diagnostic is emitted as one JSON object per line
// (file/line/col/analyzer/message), followed by a single trailing
// summary object ("summary":true) carrying the suppressed findings
// (analyzer, position, reason), the declassification points, and
// per-analyzer timings; exit codes are unchanged. -sarif additionally
// writes the full report (findings, suppressions with in-source
// justifications, declassifications) as a SARIF 2.1.0 log for
// code-scanning upload. -only and -skip take comma-separated analyzer
// names (mutually exclusive; unknown names are an error, a typo must
// not silently run the wrong set). -timings prints per-analyzer wall
// times to stderr. -baseline reads
//
//	{"suppressions": N, "analyzers": {"<name>": N, ...}}
//
// and fails the run when the tree carries more suppressions than the
// checked-in budget — in total, or for any single analyzer when the
// per-analyzer map is present (an analyzer absent from the map has
// budget zero) — so silencing a finding is a reviewed change, not a
// drive-by, and the constant-time debt ctflow tracks can only shrink.
// Suppress a finding with an annotated, justified ignore:
//
//	//mwslint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mwskit/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// splitNames parses a comma-separated flag value into names, dropping
// empty segments ("" parses to nil, so an unset flag selects nothing).
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// jsonDiagnostic is the -json wire shape, one object per line.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonSuppression is one silenced finding in the -json summary.
type jsonSuppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// jsonTiming is one analyzer's wall time in the -json summary.
type jsonTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"ms"`
}

// jsonDeclassification is one //mwslint:declassify point in the -json
// summary.
type jsonDeclassification struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Reason string `json:"reason"`
}

// jsonSummary is the single trailing -json object; "summary":true
// distinguishes it from diagnostic lines.
type jsonSummary struct {
	Summary      bool                   `json:"summary"`
	Findings     int                    `json:"findings"`
	Suppressed   []jsonSuppression      `json:"suppressed"`
	Declassified []jsonDeclassification `json:"declassified"`
	Timings      []jsonTiming           `json:"timings"`
}

// baselineFile is the checked-in suppression budget: a total, plus an
// optional per-analyzer pin. When Analyzers is present, an analyzer
// missing from it has budget zero.
type baselineFile struct {
	Suppressions int            `json:"suppressions"`
	Analyzers    map[string]int `json:"analyzers"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("mwslint", flag.ContinueOnError)
	dir := fs.String("C", ".", "change to `dir` before resolving package patterns")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON diagnostic per line plus a trailing summary object")
	sarifOut := fs.String("sarif", "", "write the full report as a SARIF 2.1.0 log to `file`")
	only := fs.String("only", "", "run only these `analyzers` (comma-separated; unknown names are an error)")
	skip := fs.String("skip", "", "run all but these `analyzers` (comma-separated; unknown names are an error)")
	timings := fs.Bool("timings", false, "print per-analyzer wall times to stderr")
	baseline := fs.String("baseline", "", "JSON `file` with {\"suppressions\": N, \"analyzers\": {...}}; fail if the tree exceeds it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.SelectAnalyzers(analyzers, splitNames(*only), splitNames(*skip))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwslint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := lint.RunReport(*dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwslint:", err)
		return 2
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range rep.Diags {
		if *jsonOut {
			// Encode cannot fail on this shape; one object per line.
			enc.Encode(jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			continue
		}
		fmt.Println(d)
	}
	if *jsonOut {
		sum := jsonSummary{
			Summary:      true,
			Findings:     len(rep.Diags),
			Suppressed:   make([]jsonSuppression, 0, len(rep.Suppressed)),
			Declassified: make([]jsonDeclassification, 0, len(rep.Declassified)),
			Timings:      make([]jsonTiming, 0, len(rep.Timings)),
		}
		for _, s := range rep.Suppressed {
			sum.Suppressed = append(sum.Suppressed, jsonSuppression{
				File:     s.Pos.Filename,
				Line:     s.Pos.Line,
				Col:      s.Pos.Column,
				Analyzer: s.Analyzer,
				Reason:   s.Reason,
			})
		}
		for _, dc := range rep.Declassified {
			sum.Declassified = append(sum.Declassified, jsonDeclassification{
				File:   dc.Pos.Filename,
				Line:   dc.Pos.Line,
				Col:    dc.Pos.Column,
				Reason: dc.Reason,
			})
		}
		for _, tm := range rep.Timings {
			sum.Timings = append(sum.Timings, jsonTiming{
				Analyzer: tm.Analyzer,
				Millis:   float64(tm.Duration.Microseconds()) / 1000,
			})
		}
		enc.Encode(sum)
	}
	if *timings {
		for _, tm := range rep.Timings {
			fmt.Fprintf(os.Stderr, "mwslint: %-14s %8.1fms\n", tm.Analyzer, float64(tm.Duration.Microseconds())/1000)
		}
	}
	if *sarifOut != "" {
		f, err := os.Create(*sarifOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mwslint: sarif:", err)
			return 2
		}
		base, berr := filepath.Abs(*dir)
		if berr != nil {
			base = *dir
		}
		werr := lint.WriteSARIF(f, rep, analyzers, base)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mwslint: sarif:", werr)
			return 2
		}
	}
	code := 0
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mwslint: baseline:", err)
			return 2
		}
		var b baselineFile
		if err := json.Unmarshal(raw, &b); err != nil {
			fmt.Fprintf(os.Stderr, "mwslint: baseline %s: %v\n", *baseline, err)
			return 2
		}
		if n := len(rep.Suppressed); n > b.Suppressions {
			fmt.Fprintf(os.Stderr, "mwslint: %d suppression(s) exceed the baseline budget of %d (%s); new ignores need a baseline bump in the same change\n",
				n, b.Suppressions, *baseline)
			code = 1
		}
		if b.Analyzers != nil {
			perAnalyzer := make(map[string]int)
			for _, s := range rep.Suppressed {
				perAnalyzer[s.Analyzer]++
			}
			names := make([]string, 0, len(perAnalyzer))
			for name := range perAnalyzer {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if n := perAnalyzer[name]; n > b.Analyzers[name] {
					fmt.Fprintf(os.Stderr, "mwslint: %s: %d suppression(s) exceed its baseline pin of %d (%s); the debt an analyzer tracks can only shrink without a reviewed baseline bump\n",
						name, n, b.Analyzers[name], *baseline)
					code = 1
				}
			}
		}
	}
	if len(rep.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "mwslint: %d finding(s)\n", len(rep.Diags))
		code = 1
	}
	return code
}
