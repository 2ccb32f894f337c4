package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mwskit/internal/lint"
)

// TestRepoIsLintClean is the acceptance gate's twin: the checked-in tree
// must produce zero unsuppressed diagnostics. Any new finding must be
// fixed or carry a justified //mwslint:ignore.
func TestRepoIsLintClean(t *testing.T) {
	rep, err := lint.RunReport("../..", []string{"./..."}, lint.DefaultAnalyzers())
	if err != nil {
		t.Fatalf("lint.RunReport: %v", err)
	}
	for _, d := range rep.Diags {
		t.Errorf("lint finding in checked-in tree: %s", d)
	}
}

// TestSeededViolationFailsGate proves the gate bites: a module seeded
// with a confidentiality violation makes the mwslint binary — the exact
// command scripts/check.sh runs — exit non-zero.
func TestSeededViolationFailsGate(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module scratchviolation\n\ngo 1.24\n")
	writeFile(t, filepath.Join(tmp, "weak.go"), `// Package weak seeds a randsource violation.
package weak

import "math/rand"

// Nonce is deliberately broken: protocol nonces from a seedable PRNG.
func Nonce() int64 { return rand.Int63() }
`)

	cmd := exec.Command("go", "run", "./cmd/mwslint", "-C", tmp, "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mwslint exited 0 on a seeded violation; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running mwslint: %v\n%s", err, out)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("mwslint exit code = %d, want 1; output:\n%s", ee.ExitCode(), out)
	}
	if !strings.Contains(string(out), "randsource") {
		t.Fatalf("mwslint output does not name the violated analyzer:\n%s", out)
	}
}

// TestCheckScriptWiresTheGates guards the tier-1 wiring: scripts/check.sh
// must keep running mwslint, the gofmt cleanliness check, the typed-atomics
// guard and the gate holding mwslint to the size of the crypto core, or
// the suite silently stops gating merges.
func TestCheckScriptWiresTheGates(t *testing.T) {
	b, err := os.ReadFile("../../scripts/check.sh")
	if err != nil {
		t.Fatalf("reading check.sh: %v", err)
	}
	script := string(b)
	for _, gate := range []string{
		"cmd/mwslint",
		"gofmt -l",
		`'atomic\.(Add|Load|Store|Swap|CompareAndSwap)[A-Za-z0-9]*\('`,
		"scripts/loc.sh internal/lint",
		"scripts/loc.sh internal/ff internal/ec internal/pairing internal/bfibe",
	} {
		if !strings.Contains(script, gate) {
			t.Errorf("scripts/check.sh no longer runs %q", gate)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
