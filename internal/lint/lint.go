// Package lint implements mwslint, the project's static-analysis suite.
// It enforces the confidentiality invariants the paper's design depends
// on (PAPER.md §III–§V) but that the compiler cannot check: constant-time
// comparison of authenticator tags, CSPRNG-only randomness, no secret
// material in log output, context propagation through the request
// pipeline, and wire-protocol/route/codec consistency across packages.
//
// The harness is pure stdlib: packages are parsed with go/parser and
// type-checked with go/types against export data obtained from
// `go list -export`, so it needs the go toolchain but no x/tools
// dependency. Analyzers run per package; cross-package analyzers run
// once over the whole loaded program.
//
// Findings can be suppressed with an annotation on the offending line or
// the line above:
//
//	//mwslint:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path      string      // import path
	Name      string      // package name
	Dir       string      // source directory
	Files     []*ast.File // non-test sources, type-checked
	TestFiles []*ast.File // *_test.go sources, parsed but not type-checked
	Types     *types.Package
	Info      *types.Info
}

// Program is the set of target packages sharing one token.FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Analyzer is one named check. Exactly one of Run (per package) or
// RunProgram (once, cross-package) is set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// Pass hands one package to one per-package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass hands the whole program to a cross-package analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// DefaultAnalyzers returns the full mwslint suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		CryptoCompare,
		RandSource,
		SecretLog,
		CtxFlow,
		PlainFlow,
		NonceReuse,
		KeyZero,
		LockOrder,
		LockHeld,
		AtomicMix,
		GoLeak,
		CTFlow,
	}
}

// SelectAnalyzers filters the suite by the CLI's -only/-skip name lists.
// An unknown name in either list is an error — a typo must not silently
// run (or skip) the wrong set.
func SelectAnalyzers(all []*Analyzer, only, skip []string) ([]*Analyzer, error) {
	known := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		known[a.Name] = a
	}
	names := func(list []string, flag string) (map[string]bool, error) {
		set := make(map[string]bool, len(list))
		for _, n := range list {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if known[n] == nil {
				return nil, fmt.Errorf("%s: unknown analyzer %q (run mwslint -list for the suite)", flag, n)
			}
			set[n] = true
		}
		return set, nil
	}
	onlySet, err := names(only, "-only")
	if err != nil {
		return nil, err
	}
	skipSet, err := names(skip, "-skip")
	if err != nil {
		return nil, err
	}
	if len(onlySet) > 0 && len(skipSet) > 0 {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	var out []*Analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Suppression records one diagnostic that a //mwslint:ignore directive
// swallowed, so CI can track suppression creep against a baseline.
type Suppression struct {
	Analyzer string
	Pos      token.Position
	Reason   string
}

// Declassification records one //mwslint:declassify directive: where,
// and the analyst's justification for treating the covered values as
// public. ctflow honors them; the report lists them so reviewers and
// SARIF consumers see every point where the secret lattice is cut.
type Declassification struct {
	Pos    token.Position
	Reason string
}

// AnalyzerTiming is the wall-clock cost of one analyzer over the whole
// program (per-package analyzers are summed across packages).
type AnalyzerTiming struct {
	Analyzer string
	Duration time.Duration
}

// Report is the full outcome of a run: surviving diagnostics, the
// suppressed ones with their justifications, the declared
// declassifications, and per-analyzer timings.
type Report struct {
	Diags        []Diagnostic
	Suppressed   []Suppression
	Declassified []Declassification
	Timings      []AnalyzerTiming
}

// Run loads the packages matching patterns (relative to dir) and runs the
// analyzers over them, returning the surviving diagnostics sorted by
// position. See RunProgram for the suppression semantics.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	rep, err := RunReport(dir, patterns, analyzers)
	if err != nil {
		return nil, err
	}
	return rep.Diags, nil
}

// RunReport is Run with the full Report.
func RunReport(dir string, patterns []string, analyzers []*Analyzer) (*Report, error) {
	prog, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return RunProgramReport(prog, analyzers), nil
}

// RunProgram runs the analyzers over an already-loaded program. Findings
// annotated with a valid //mwslint:ignore directive are dropped; invalid
// directives (missing reason, unknown analyzer) surface as diagnostics of
// the pseudo-analyzer "mwslint".
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	return RunProgramReport(prog, analyzers).Diags
}

// RunProgramReport is RunProgram plus the suppression and timing record.
func RunProgramReport(prog *Program, analyzers []*Analyzer) *Report {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		start := time.Now()
		for _, pkg := range prog.Packages {
			a.Run(&Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, report: report})
		}
		elapsed[a.Name] += time.Since(start)
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		start := time.Now()
		a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, report: report})
		elapsed[a.Name] += time.Since(start)
	}

	// Directive names validate against the full suite, not the selected
	// subset: running `-only=ctflow` must not turn every checked-in
	// lockheld ignore into an "unknown analyzer" finding.
	known := analyzers
	for _, a := range DefaultAnalyzers() {
		found := false
		for _, b := range known {
			if b.Name == a.Name {
				found = true
				break
			}
		}
		if !found {
			known = append(known, a)
		}
	}
	ds := collectDirectives(prog, known)
	kept, suppressed := suppress(diags, ds.ignore)
	diags = append(kept, ds.diags...)

	byPos := func(af, bf string, al, bl, ac, bc int, aa, ba string) bool {
		if af != bf {
			return af < bf
		}
		if al != bl {
			return al < bl
		}
		if ac != bc {
			return ac < bc
		}
		return aa < ba
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		return byPos(a.Pos.Filename, b.Pos.Filename, a.Pos.Line, b.Pos.Line, a.Pos.Column, b.Pos.Column, a.Analyzer, b.Analyzer)
	})
	sort.Slice(suppressed, func(i, j int) bool {
		a, b := suppressed[i], suppressed[j]
		return byPos(a.Pos.Filename, b.Pos.Filename, a.Pos.Line, b.Pos.Line, a.Pos.Column, b.Pos.Column, a.Analyzer, b.Analyzer)
	})

	declassified := ds.declared
	sort.Slice(declassified, func(i, j int) bool {
		a, b := declassified[i], declassified[j]
		return byPos(a.Pos.Filename, b.Pos.Filename, a.Pos.Line, b.Pos.Line, a.Pos.Column, b.Pos.Column, "", "")
	})

	rep := &Report{Diags: diags, Suppressed: suppressed, Declassified: declassified}
	for _, a := range analyzers {
		if d, ok := elapsed[a.Name]; ok {
			rep.Timings = append(rep.Timings, AnalyzerTiming{Analyzer: a.Name, Duration: d})
		}
	}
	return rep
}

// pathEndsIn reports whether an import path's final segment is one of
// names. Analyzers use it to scope themselves to the packages whose
// invariants they guard, so fixture packages under testdata/ with the
// same terminal name exercise the same code path.
func pathEndsIn(path string, names ...string) bool {
	seg := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			seg = path[i+1:]
			break
		}
	}
	for _, n := range names {
		if seg == n {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the *types.PkgName it denotes, or
// nil if it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// calleeFromPkg reports whether call invokes a function from the package
// with the given import path, returning its name ("" when not).
func calleeFromPkg(info *types.Info, call *ast.CallExpr, pkgPath string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn := pkgNameOf(info, id)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return ""
	}
	return sel.Sel.Name
}
