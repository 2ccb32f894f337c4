package lint_test

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mwskit/internal/lint"
)

// fixtures is the one table of want-annotated fixture package sets. The
// per-analyzer tests, TestFixtureWantsAreExercised and
// TestGoldenDiagnostics all read it, so a fixture registered for one is
// registered for all three.
var fixtures = map[string][]string{
	"cryptocompare": {"./testdata/src/bfibe"},
	"randsource":    {"./testdata/src/randsource"},
	"secretlog":     {"./testdata/src/kdf"},
	"spanattr":      {"./testdata/src/spanattr/mws"},
	"ctxflow":       {"./testdata/src/ctxflow"},
	"vartime":       {"./testdata/src/vartime/ec", "./testdata/src/vartime/kdf", "./testdata/src/vartime/pairing", "./testdata/src/vartime/bfibe", "./testdata/src/vartime/tpkg", "./testdata/src/vartime/use"},
	"ctflow":        {"./testdata/src/ctflow/bfibe", "./testdata/src/ctflow/ff", "./testdata/src/ctflow/ec", "./testdata/src/ctflow/app"},
	"lockorder":     {"./testdata/src/lockorder/locks", "./testdata/src/lockorder/alpha", "./testdata/src/lockorder/beta"},
	"lockheld":      {"./testdata/src/lockheld/storage"},
	"ignoremulti":   {"./testdata/src/ignoremulti/storage"},
}

// loadFixture loads fixture packages (patterns relative to this package's
// directory) through the real go list + go/types pipeline.
func loadFixture(t *testing.T, patterns ...string) *lint.Program {
	t.Helper()
	prog, err := lint.Load(".", patterns)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	return prog
}

// loadedFixtures caches loadNamedFixture: three tests read each entry,
// analyzers do not modify a loaded program, and no test here is parallel.
var loadedFixtures = map[string]*lint.Program{}

// loadNamedFixture loads one entry of the fixtures table.
func loadNamedFixture(t *testing.T, name string) *lint.Program {
	t.Helper()
	patterns, ok := fixtures[name]
	if !ok {
		t.Fatalf("fixture %q is not in the fixtures table", name)
	}
	if loadedFixtures[name] == nil {
		loadedFixtures[name] = loadFixture(t, patterns...)
	}
	return loadedFixtures[name]
}

// lineKey addresses one fixture source line.
type lineKey struct {
	file string
	line int
}

// collectWants parses the `// want "re" "re"...` expectation comments out
// of every loaded file (tests included — fixtures may annotate anywhere).
func collectWants(t *testing.T, prog *lint.Program) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	scan := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := prog.Fset.Position(c.Slash)
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				for rest != "" {
					quoted, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
					}
					pattern, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %q: %v", pos, quoted, err)
					}
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], regexp.MustCompile(pattern))
					rest = strings.TrimSpace(rest[len(quoted):])
				}
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			scan(f)
		}
		for _, f := range pkg.TestFiles {
			scan(f)
		}
	}
	return wants
}

// checkFixture runs the full analyzer suite over one entry of the
// fixtures table and diffs the diagnostics against the want comments:
// every diagnostic must match a want on its exact line, and every want
// must be consumed.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	prog := loadNamedFixture(t, name)
	wants := collectWants(t, prog)
	diags := lint.RunProgramReport(prog, lint.DefaultAnalyzers()).Diags

	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestCryptoCompareFixture(t *testing.T)     { checkFixture(t, "cryptocompare") }
func TestRandSourceFixture(t *testing.T)        { checkFixture(t, "randsource") }
func TestSecretLogFixture(t *testing.T)         { checkFixture(t, "secretlog") }
func TestSecretLogSpanAttrFixture(t *testing.T) { checkFixture(t, "spanattr") }
func TestCtxFlowFixture(t *testing.T)           { checkFixture(t, "ctxflow") }
func TestVarTimeFixture(t *testing.T)           { checkFixture(t, "vartime") }
func TestCTFlowFixture(t *testing.T)            { checkFixture(t, "ctflow") }
func TestLockOrderFixture(t *testing.T)         { checkFixture(t, "lockorder") }
func TestLockHeldFixture(t *testing.T)          { checkFixture(t, "lockheld") }

// TestCTFlowDeclassifyReported pins the declassification record: the
// fixture's one //mwslint:declassify directive must surface in the
// report with its justification.
func TestCTFlowDeclassifyReported(t *testing.T) {
	prog := loadNamedFixture(t, "ctflow")
	rep := lint.RunProgramReport(prog, lint.DefaultAnalyzers())
	if len(rep.Declassified) != 1 {
		t.Fatalf("want exactly 1 declassification, got %v", rep.Declassified)
	}
	if !strings.Contains(rep.Declassified[0].Reason, "public by construction") {
		t.Errorf("declassification reason = %q, want the directive's justification", rep.Declassified[0].Reason)
	}
}

// TestIgnoreMultiLineStatement is the regression fixture for
// statement-extent suppression: the directive above a wrapped statement
// must cover its inner lines (SyncTwo) but not jump a blank line
// (SyncApart), and the suppressed finding must surface in the report
// with its reason.
func TestIgnoreMultiLineStatement(t *testing.T) {
	checkFixture(t, "ignoremulti")

	prog := loadNamedFixture(t, "ignoremulti")
	rep := lint.RunProgramReport(prog, lint.DefaultAnalyzers())
	if len(rep.Suppressed) != 1 {
		t.Fatalf("want exactly 1 suppressed diagnostic, got %v", rep.Suppressed)
	}
	s := rep.Suppressed[0]
	if s.Analyzer != "lockheld" {
		t.Errorf("suppressed analyzer = %q, want lockheld", s.Analyzer)
	}
	if !strings.Contains(s.Reason, "couples fsync to its lock") {
		t.Errorf("suppressed reason = %q, want the directive's justification", s.Reason)
	}
}

// TestFixtureWantsAreExercised guards the harness itself: a fixture with
// no want comments would vacuously pass, so assert each fixture carries
// at least one expectation.
func TestFixtureWantsAreExercised(t *testing.T) {
	for name := range fixtures {
		if len(collectWants(t, loadNamedFixture(t, name))) == 0 {
			t.Errorf("fixture %q has no want comments", name)
		}
	}
}

// TestGoldenDiagnostics pins what the want comments cannot: column,
// full message text and per-line multiplicity of every diagnostic the
// suite reports over the fixtures table. testdata/golden_diagnostics.txt
// holds them sorted, one "file:line:col: [analyzer] message" per line
// with the file relative to this directory.
//
// To regenerate after an intended change: run this test, then add the
// lines it prints with "+" to the file and delete the ones it prints
// with "-", keeping the file sorted (LC_ALL=C sort).
func TestGoldenDiagnostics(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range fixtures {
		for _, d := range lint.RunProgramReport(loadNamedFixture(t, name), lint.DefaultAnalyzers()).Diags {
			if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil {
				d.Pos.Filename = filepath.ToSlash(rel)
			}
			got = append(got, d.String())
		}
	}
	sort.Strings(got)

	b, err := os.ReadFile("testdata/golden_diagnostics.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/golden_diagnostics.txt is not sorted")
	}
	// Multiset difference of two sorted lists.
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			t.Errorf("+%s", got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			t.Errorf("-%s", want[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
}

// countByAnalyzer buckets diagnostics for the ignore-directive tests.
func countByAnalyzer(diags []lint.Diagnostic) map[string]int {
	out := make(map[string]int)
	for _, d := range diags {
		out[d.Analyzer]++
	}
	return out
}

func TestIgnoreSuppressesWithReason(t *testing.T) {
	prog := loadFixture(t, "./testdata/src/ignoreok")
	diags := lint.RunProgramReport(prog, lint.DefaultAnalyzers()).Diags
	if len(diags) != 0 {
		t.Fatalf("justified ignore should fully suppress; got %v", diags)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	prog := loadFixture(t, "./testdata/src/ignorebad")
	diags := lint.RunProgramReport(prog, lint.DefaultAnalyzers()).Diags

	counts := countByAnalyzer(diags)
	if counts["mwslint"] != 2 {
		t.Errorf("want 2 directive-validation diagnostics, got %d: %v", counts["mwslint"], diags)
	}
	if counts["randsource"] != 1 {
		t.Errorf("reason-less ignore must not suppress: want 1 randsource diagnostic, got %d: %v", counts["randsource"], diags)
	}
	var sawNoReason, sawUnknown bool
	for _, d := range diags {
		if d.Analyzer != "mwslint" {
			continue
		}
		if strings.Contains(d.Message, "has no reason") {
			sawNoReason = true
		}
		if strings.Contains(d.Message, "unknown analyzer") {
			sawUnknown = true
		}
	}
	if !sawNoReason || !sawUnknown {
		t.Errorf("want both a missing-reason and an unknown-analyzer diagnostic, got %v", diags)
	}
}

// TestDiagnosticString pins the file:line:col rendering check.sh output
// depends on.
func TestDiagnosticString(t *testing.T) {
	prog := loadFixture(t, "./testdata/src/randsource")
	diags := lint.RunProgramReport(prog, lint.DefaultAnalyzers()).Diags
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %v", diags)
	}
	s := diags[0].String()
	want := fmt.Sprintf("%s: [randsource]", diags[0].Pos)
	if !strings.HasPrefix(s, want) {
		t.Errorf("Diagnostic.String() = %q, want prefix %q", s, want)
	}
}
