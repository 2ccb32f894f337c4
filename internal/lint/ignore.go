package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// directive is one parsed //mwslint:ignore annotation.
type directive struct {
	file     string
	line     int
	analyzer string
	reason   string
}

// directiveKey locates a directive for suppression lookup.
type directiveKey struct {
	file     string
	line     int
	analyzer string
}

// declassKey locates one source line covered by a declassify directive.
type declassKey struct {
	file string
	line int
}

const (
	ignorePrefix  = "mwslint:ignore"
	declassPrefix = "mwslint:declassify"
)

// parsedDirective is the outcome of parsing one comment as a directive.
// kind is "" when the comment is not a directive at all; err is the
// mwslint diagnostic message when it is one but malformed. A directive
// with a non-empty err never suppresses or declassifies anything.
type parsedDirective struct {
	kind     string // "ignore", "declassify", or "unknown"
	analyzer string // ignore only
	reason   string
	err      string
}

// parseDirectiveText parses one comment's raw text (// included) as a
// mwslint directive. known validates analyzer names for ignore
// directives; nil skips the check. The function is pure so the fuzz
// target can drive it directly.
func parseDirectiveText(text string, known func(string) bool) parsedDirective {
	t := strings.TrimPrefix(text, "//")
	if t == text {
		return parsedDirective{} // block comment: directives are line comments only
	}
	t = strings.TrimSpace(t)
	switch {
	case strings.HasPrefix(t, declassPrefix):
		reason := strings.TrimSpace(strings.TrimPrefix(t, declassPrefix))
		if reason == "" {
			return parsedDirective{kind: "declassify", err: "declassify directive has no reason; declassifications must be justified"}
		}
		return parsedDirective{kind: "declassify", reason: reason}
	case strings.HasPrefix(t, ignorePrefix):
		rest := strings.TrimSpace(strings.TrimPrefix(t, ignorePrefix))
		name, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		d := parsedDirective{kind: "ignore", analyzer: name, reason: reason}
		switch {
		case name == "":
			d.err = "ignore directive names no analyzer; use //mwslint:ignore <analyzer> <reason>"
		case known != nil && !known(name):
			d.err = "ignore directive names unknown analyzer " + strconv.Quote(name)
		case reason == "":
			d.err = "ignore directive for " + name + " has no reason; suppressions must be justified"
		}
		return d
	case strings.HasPrefix(t, "mwslint:"):
		// A misspelled directive must never silently do nothing.
		return parsedDirective{kind: "unknown", err: "unknown mwslint directive; use //mwslint:ignore <analyzer> <reason> or //mwslint:declassify <reason>"}
	}
	return parsedDirective{}
}

// fileDirective is one well-formed directive in one file, with the line
// range it covers already resolved against the file's statement extents.
type fileDirective struct {
	parsed  parsedDirective
	pos     token.Position
	through int // last covered line
}

// fileDirectives parses one file's directives. It is purely syntactic
// (no type info), so the fuzz target can drive it over arbitrary parsed
// sources; malformed directives come back as diagnostics and are absent
// from the directive list.
func fileDirectives(fset *token.FileSet, f *ast.File, known func(string) bool) ([]fileDirective, []Diagnostic) {
	var out []fileDirective
	var diags []Diagnostic
	extents := stmtExtents(fset, f)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pd := parseDirectiveText(c.Text, known)
			if pd.kind == "" {
				continue
			}
			pos := fset.Position(c.Slash)
			if pd.err != "" {
				diags = append(diags, Diagnostic{Analyzer: "mwslint", Pos: pos, Message: pd.err})
				continue
			}
			out = append(out, fileDirective{parsed: pd, pos: pos, through: coveredThrough(extents, pos.Line)})
		}
	}
	return out, diags
}

// directiveSet is everything the directive scan produces for a program:
// ignore coverage by line, declassified lines with their justifications,
// the declassification record for the report, and validation diagnostics.
type directiveSet struct {
	ignore   map[directiveKey]directive
	declass  map[declassKey]string
	declared []Declassification
	diags    []Diagnostic
}

// collectDirectives scans every type-checked file for //mwslint:ignore
// and //mwslint:declassify annotations. Malformed directives — no
// analyzer, no reason, an unknown analyzer name, or an unrecognized
// directive kind — are reported as diagnostics of the pseudo-analyzer
// "mwslint" so a suppression can never silently rot.
//
// A directive covers its own line, the next line, and — when the next
// line starts a simple statement, declaration, or function that spans
// several lines — every line of that extent, so annotating above a
// wrapped call suppresses diagnostics anchored to its inner lines, and
// annotating above a func declaration covers the whole function body
// (each suppressed diagnostic is still counted individually against the
// baseline).
func collectDirectives(prog *Program, analyzers []*Analyzer) *directiveSet {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ds := &directiveSet{
		ignore:  make(map[directiveKey]directive),
		declass: make(map[declassKey]string),
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			fds, diags := fileDirectives(prog.Fset, f, func(name string) bool { return known[name] })
			ds.diags = append(ds.diags, diags...)
			for _, fd := range fds {
				switch fd.parsed.kind {
				case "ignore":
					d := directive{file: fd.pos.Filename, line: fd.pos.Line, analyzer: fd.parsed.analyzer, reason: fd.parsed.reason}
					for line := fd.pos.Line; line <= fd.through; line++ {
						k := directiveKey{d.file, line, d.analyzer}
						if _, exists := ds.ignore[k]; !exists {
							ds.ignore[k] = d
						}
					}
				case "declassify":
					ds.declared = append(ds.declared, Declassification{Pos: fd.pos, Reason: fd.parsed.reason})
					for line := fd.pos.Line; line <= fd.through; line++ {
						k := declassKey{fd.pos.Filename, line}
						if _, exists := ds.declass[k]; !exists {
							ds.declass[k] = fd.parsed.reason
						}
					}
				}
			}
		}
	}
	return ds
}

// stmtExtent is the line span of one simple statement or declaration.
type stmtExtent struct {
	start, end int
}

// stmtExtents indexes the line spans of the nodes a directive can attach
// to: the simple statement kinds that carry diagnostics, top-level
// declarations, and whole function declarations (so one directive can
// cover a function whose every line is known timing debt). Control-flow
// statements (if/for/switch) are deliberately absent — a directive above
// one must not blanket its whole body.
func stmtExtents(fset *token.FileSet, f *ast.File) []stmtExtent {
	var out []stmtExtent
	add := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end > start {
			out = append(out, stmtExtent{start: start, end: end})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.SendStmt, *ast.DeclStmt, *ast.IncDecStmt,
			*ast.GenDecl, *ast.FuncDecl:
			add(n)
		}
		return true
	})
	return out
}

// coveredThrough returns the last line a directive at dirLine covers: at
// least the next line, extended to the end of any indexed extent that
// starts on the directive's line or the one after it.
func coveredThrough(extents []stmtExtent, dirLine int) int {
	last := dirLine + 1
	for _, e := range extents {
		if (e.start == dirLine || e.start == dirLine+1) && e.end > last {
			last = e.end
		}
	}
	return last
}

// suppress splits diagnostics into kept and suppressed according to the
// directive line coverage, attaching each suppression's justification.
func suppress(diags []Diagnostic, directives map[directiveKey]directive) ([]Diagnostic, []Suppression) {
	if len(directives) == 0 {
		return diags, nil
	}
	kept := diags[:0]
	var suppressed []Suppression
	for _, d := range diags {
		if dir, ok := directives[directiveKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			suppressed = append(suppressed, Suppression{Analyzer: d.Analyzer, Pos: d.Pos, Reason: dir.reason})
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}
