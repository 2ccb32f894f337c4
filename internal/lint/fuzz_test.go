package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzDirectiveParser drives the //mwslint: directive parser two ways:
// the pure string parser directly, and fileDirectives over a real
// parsed file carrying the input as a comment. Invariants: no panic,
// and no malformed directive ever comes back err-free — an ignore
// without an analyzer and a reason, or a declassify without a reason,
// must be a diagnostic, never a silent suppression.
func FuzzDirectiveParser(f *testing.F) {
	f.Add("//mwslint:ignore ctflow the schedule is fixed")
	f.Add("//mwslint:ignore ctflow")
	f.Add("//mwslint:ignore")
	f.Add("//mwslint:declassify blinded before exposure")
	f.Add("//mwslint:declassify")
	f.Add("//mwslint:igonre typo never silently ignored")
	f.Add("// plain comment")
	f.Add("/*mwslint:ignore ctflow block comments are not directives*/")
	f.Add("//mwslint:ignore  ctflow\ttab separated")
	f.Add("//mwslint:ignore nosuch unknown analyzer")

	known := func(name string) bool { return name == "ctflow" || name == "plainflow" }

	f.Fuzz(func(t *testing.T, text string) {
		pd := parseDirectiveText(text, known)
		switch pd.kind {
		case "":
			if pd.err != "" || pd.reason != "" || pd.analyzer != "" {
				t.Fatalf("non-directive %q produced content: %+v", text, pd)
			}
		case "ignore":
			if pd.err == "" && (pd.analyzer == "" || pd.reason == "" || !known(pd.analyzer)) {
				t.Fatalf("malformed ignore %q accepted: %+v", text, pd)
			}
		case "declassify":
			if pd.err == "" && pd.reason == "" {
				t.Fatalf("reason-less declassify %q accepted: %+v", text, pd)
			}
		case "unknown":
			if pd.err == "" {
				t.Fatalf("unknown directive %q accepted: %+v", text, pd)
			}
		default:
			t.Fatalf("parseDirectiveText(%q) invented kind %q", text, pd.kind)
		}

		// Embed the input as a line comment in a real file; newlines
		// would change the comment's extent, so keep the first line.
		line, _, _ := strings.Cut(text, "\n")
		line, _, _ = strings.Cut(line, "\r")
		src := "package p\n\n//" + strings.TrimPrefix(line, "//") + "\nvar X = 0\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			return // not valid Go once embedded; parser rejected it
		}
		fds, diags := fileDirectives(fset, file, known)
		for _, fd := range fds {
			if fd.parsed.err != "" {
				t.Fatalf("fileDirectives kept a malformed directive: %+v", fd)
			}
			if fd.through < fd.pos.Line+1 {
				t.Fatalf("directive coverage shrank below its own successor line: %+v", fd)
			}
		}
		for _, d := range diags {
			if d.Analyzer != "mwslint" {
				t.Fatalf("directive validation reported under %q, want mwslint", d.Analyzer)
			}
		}
	})
}

// TestDataflowConverges is the robustness net under the one dataflow
// interpreter: every whole-program analyzer — each taintSpec among them —
// runs over every fixture package and over the whole tree (tier-1 runs
// this under -race). A panic fails the test by itself; a fixpoint cut
// short by safetyCap surfaces as the engine's own diagnostic.
func TestDataflowConverges(t *testing.T) {
	for _, tc := range []struct{ dir, pattern string }{
		{".", "./testdata/src/..."},
		{"../..", "./..."},
	} {
		prog, err := Load(tc.dir, []string{tc.pattern})
		if err != nil {
			t.Fatalf("Load(%s): %v", tc.pattern, err)
		}
		for _, a := range DefaultAnalyzers() {
			if a.RunProgram == nil {
				continue
			}
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, report: func(d Diagnostic) {
				if strings.Contains(d.Message, "did not converge") {
					t.Errorf("%s over %s: %s", a.Name, tc.pattern, d)
				}
			}})
		}
	}
}
