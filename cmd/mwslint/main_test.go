package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mwskit/internal/lint"
)

// TestSeededCrossPackageViolation seeds a module where plaintext
// decrypted in one package is persisted by another two calls away, and
// asserts the binary exits 1 in both output modes, with -json emitting
// one parseable object per line.
func TestSeededCrossPackageViolation(t *testing.T) {
	tmp := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(tmp, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchtaint\n\ngo 1.24\n")
	write("symenc/symenc.go", `// Package symenc mimics the symmetric layer's shape.
package symenc

// Open decrypts blob.
func Open(key, ciphertext, aad []byte) ([]byte, error) { return ciphertext, nil }
`)
	write("storage/storage.go", `// Package storage mimics the storage layer's shape.
package storage

// Put persists one record.
func Put(rec []byte) error { _ = rec; return nil }
`)
	write("mws/mws.go", `// Package mws seeds the cross-package violation: Open output reaches
// a storage write through two intermediate calls.
package mws

import (
	"scratchtaint/storage"
	"scratchtaint/symenc"
)

func decrypt(key, blob []byte) []byte {
	pt, _ := symenc.Open(key, blob, nil)
	return pt
}

// Handle is deliberately broken: it persists what decrypt returned.
func Handle(key, blob []byte) error {
	return persist(decrypt(key, blob))
}

func persist(rec []byte) error {
	return storage.Put(rec)
}
`)

	runLint := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run", "./cmd/mwslint", "-C", tmp}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.CombinedOutput()
		if err == nil {
			return string(out), 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running mwslint: %v\n%s", err, out)
		}
		return string(out), ee.ExitCode()
	}

	out, code := runLint("./...")
	if code != 1 {
		t.Fatalf("mwslint exit code = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "plainflow") {
		t.Fatalf("mwslint output does not name plainflow:\n%s", out)
	}

	out, code = runLint("-json", "./...")
	if code != 1 {
		t.Fatalf("mwslint -json exit code = %d, want 1; output:\n%s", code, out)
	}
	sawPlainflow := false
	sawSummary := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // the trailing "mwslint: N finding(s)" stderr line
		}
		var d struct {
			Summary  bool   `json:"summary"`
			Findings int    `json:"findings"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON diagnostic line %q: %v", line, err)
		}
		if d.Summary {
			if sawSummary {
				t.Fatalf("more than one summary line:\n%s", out)
			}
			sawSummary = true
			if d.Findings == 0 {
				t.Fatalf("summary reports zero findings: %q", line)
			}
			continue
		}
		if sawSummary {
			t.Fatalf("diagnostic after the summary line: %q", line)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Fatalf("incomplete JSON diagnostic: %q", line)
		}
		if d.Analyzer == "plainflow" {
			sawPlainflow = true
		}
	}
	if !sawPlainflow {
		t.Fatalf("-json output has no plainflow diagnostic:\n%s", out)
	}
	if !sawSummary {
		t.Fatalf("-json output has no trailing summary object:\n%s", out)
	}
}

// TestSeededVartimeViolation seeds a module where RandomScalar output —
// an ec.Scalar, which no variable-time callee takes — is carried back
// into math/big through its byte encoding and on to the variable-time
// multiplier, and asserts the binary exits 1 naming ctflow, the
// conversion and the variable-time callee.
func TestSeededVartimeViolation(t *testing.T) {
	tmp := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(tmp, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchvartime\n\ngo 1.24\n")
	write("ec/ec.go", `// Package ec mimics the curve layer's shape.
package ec

import "math/big"

// Point is a curve point.
type Point struct{ X, Y *big.Int }

// Curve is the group.
type Curve struct{}

// Scalar is a secret scalar on limbs.
type Scalar struct{ l [4]uint64 }

// ScalarBytes encodes k at a fixed width.
func (c *Curve) ScalarBytes(k Scalar) []byte {
	b := make([]byte, 32)
	for i := range b {
		b[31-i] = byte(k.l[i/8] >> (8 * (i % 8)))
	}
	return b
}

// ScalarMult is the variable-time multiplier.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point { _ = k; return p }

// ScalarMultSecret is the constant-schedule multiplier.
func (c *Curve) ScalarMultSecret(p Point, k Scalar) Point { _ = k; return p }
`)
	write("pairing/pairing.go", `// Package pairing mimics the pairing layer's shape.
package pairing

import (
	"io"

	"scratchvartime/ec"
)

// System carries the group parameters.
type System struct{ Curve *ec.Curve }

// RandomScalar draws a uniform scalar: a ctflow source.
func (s *System) RandomScalar(r io.Reader) (ec.Scalar, error) {
	_ = r
	return ec.Scalar{}, nil
}
`)
	write("kem/kem.go", `// Package kem seeds the cross-package violation: the encapsulation
// randomness leaves the limb domain for math/big.
package kem

import (
	"crypto/rand"
	"math/big"

	"scratchvartime/ec"
	"scratchvartime/pairing"
)

// Encapsulate is deliberately broken: r takes the variable-time path.
func Encapsulate(sys *pairing.System, base ec.Point) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	k := new(big.Int).SetBytes(sys.Curve.ScalarBytes(r))
	return sys.Curve.ScalarMult(base, k), nil
}
`)

	cmd := exec.Command("go", "run", "./cmd/mwslint", "-C", tmp, "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("mwslint should exit 1: err=%v\n%s", err, out)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("mwslint exit code = %d, want 1; output:\n%s", ee.ExitCode(), out)
	}
	if !strings.Contains(string(out), "[ctflow]") {
		t.Fatalf("mwslint output does not name ctflow:\n%s", out)
	}
	for _, callee := range []string{"math/big.SetBytes", "ec.ScalarMult"} {
		if !strings.Contains(string(out), "a secret scalar flows into variable-time "+callee) {
			t.Fatalf("mwslint output does not describe the scalar reaching %s:\n%s", callee, out)
		}
	}
}

// TestSeededCrossPackageDeadlock seeds a module where one package takes
// A then B through a helper and a sibling takes B then A directly, and
// asserts the binary exits 1 naming lockorder: the acquisition graph
// must stitch the cycle together across the package boundary.
func TestSeededCrossPackageDeadlock(t *testing.T) {
	tmp := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(tmp, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchdeadlock\n\ngo 1.24\n")
	write("locks/locks.go", `// Package locks owns the shared pair.
package locks

import "sync"

// Pair carries two mutexes with a (violated) A-before-B discipline.
type Pair struct {
	A sync.Mutex
	B sync.Mutex
}

// LockB acquires B for a caller; the caller may already hold A.
func LockB(p *Pair) { p.B.Lock() }

// UnlockB releases B.
func UnlockB(p *Pair) { p.B.Unlock() }
`)
	write("alpha/alpha.go", `// Package alpha takes A then B (through the helper).
package alpha

import "scratchdeadlock/locks"

// AB nests B under A.
func AB(p *locks.Pair) {
	p.A.Lock()
	defer p.A.Unlock()
	locks.LockB(p)
	locks.UnlockB(p)
}
`)
	write("beta/beta.go", `// Package beta takes B then A: the opposite order.
package beta

import "scratchdeadlock/locks"

// BA nests A under B.
func BA(p *locks.Pair) {
	p.B.Lock()
	defer p.B.Unlock()
	p.A.Lock()
	p.A.Unlock()
}
`)

	cmd := exec.Command("go", "run", "./cmd/mwslint", "-C", tmp, "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("mwslint should exit 1: err=%v\n%s", err, out)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("mwslint exit code = %d, want 1; output:\n%s", ee.ExitCode(), out)
	}
	if !strings.Contains(string(out), "lockorder") {
		t.Fatalf("mwslint output does not name lockorder:\n%s", out)
	}
	if !strings.Contains(string(out), "cycle") {
		t.Fatalf("mwslint output does not describe the ordering cycle:\n%s", out)
	}
}

// TestSuppressedArrayAndBaseline seeds a module whose only finding is
// silenced by a justified ignore, and asserts (a) the -json summary
// surfaces it in the suppressed array with its reason, (b) a baseline
// of 0 fails the run, and (c) a baseline of 1 passes it.
func TestSuppressedArrayAndBaseline(t *testing.T) {
	tmp := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(tmp, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchignore\n\ngo 1.24\n")
	write("storage/storage.go", `// Package storage couples an fsync to its lock, on purpose.
package storage

import (
	"os"
	"sync"
)

// S is a mutex-guarded file.
type S struct {
	mu sync.Mutex
	f  *os.File
}

// Flush fsyncs under the lock; the ignore below sanctions it.
func (s *S) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//mwslint:ignore lockheld scratch: this flush couples fsync to its lock by design
	return s.f.Sync()
}
`)
	write("budget0.json", `{"suppressions": 0}`)
	write("budget1.json", `{"suppressions": 1}`)

	runLint := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run", "./cmd/mwslint", "-C", tmp}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.CombinedOutput()
		if err == nil {
			return string(out), 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running mwslint: %v\n%s", err, out)
		}
		return string(out), ee.ExitCode()
	}

	out, code := runLint("-json", "./...")
	if code != 0 {
		t.Fatalf("suppressed tree should exit 0, got %d:\n%s", code, out)
	}
	var sum struct {
		Summary    bool `json:"summary"`
		Findings   int  `json:"findings"`
		Suppressed []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Reason   string `json:"reason"`
		} `json:"suppressed"`
		Timings []struct {
			Analyzer string  `json:"analyzer"`
			Millis   float64 `json:"ms"`
		} `json:"timings"`
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Summary {
		t.Fatalf("last line is not the summary object (%v): %q", err, lines[len(lines)-1])
	}
	if sum.Findings != 0 {
		t.Errorf("summary findings = %d, want 0", sum.Findings)
	}
	if len(sum.Suppressed) != 1 {
		t.Fatalf("suppressed array = %+v, want exactly 1 entry", sum.Suppressed)
	}
	s := sum.Suppressed[0]
	if s.Analyzer != "lockheld" || s.Line == 0 || !strings.HasSuffix(s.File, "storage.go") {
		t.Errorf("suppressed entry lacks analyzer/position: %+v", s)
	}
	if !strings.Contains(s.Reason, "couples fsync to its lock") {
		t.Errorf("suppressed entry lacks the directive reason: %+v", s)
	}
	if len(sum.Timings) == 0 {
		t.Errorf("summary carries no per-analyzer timings:\n%s", out)
	}

	out, code = runLint("-baseline", filepath.Join(tmp, "budget0.json"), "./...")
	if code != 1 {
		t.Fatalf("baseline 0 should fail with exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "exceed the baseline") {
		t.Fatalf("baseline failure not explained:\n%s", out)
	}

	out, code = runLint("-baseline", filepath.Join(tmp, "budget1.json"), "./...")
	if code != 0 {
		t.Fatalf("baseline 1 should pass, got %d:\n%s", code, out)
	}
}

// seedCTModule writes a scratch module that exercises the full report
// surface: a cross-package ctflow violation (a gateway branches on a
// private-key byte obtained through bfibe's call-graph summary), one
// lockheld finding silenced by a justified ignore, and one declassify
// directive. The shared fixture keeps the selection, schema, SARIF, and
// per-analyzer baseline tests honest about the same tree.
func seedCTModule(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(tmp, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratchct\n\ngo 1.24\n")
	write("bfibe/bfibe.go", `// Package bfibe mimics the IBE layer's shape.
package bfibe

// PrivateKey mirrors the extracted key; D is the secret scalar bytes.
type PrivateKey struct {
	ID []byte
	D  []byte
}

// KeyByte exposes one byte of the secret scalar.
func KeyByte(sk *PrivateKey, i int) byte { return sk.D[i] }

// Parity is sanctioned: the directive asserts the bit public.
func Parity(key []byte) int {
	//mwslint:declassify scratch: the low bit is blinded upstream
	if key[0]&1 == 1 {
		return 1
	}
	return 0
}
`)
	write("gateway/gateway.go", `// Package gateway consumes the key across the package boundary.
package gateway

import "scratchct/bfibe"

// Route is deliberately broken: it branches on a private-key byte.
func Route(sk *bfibe.PrivateKey) int {
	if bfibe.KeyByte(sk, 0) == 0 {
		return 1
	}
	return 0
}
`)
	write("storage/storage.go", `// Package storage couples an fsync to its lock, on purpose.
package storage

import (
	"os"
	"sync"
)

// S is a mutex-guarded file.
type S struct {
	mu sync.Mutex
	f  *os.File
}

// Flush fsyncs under the lock; the ignore below sanctions it.
func (s *S) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//mwslint:ignore lockheld scratch: this flush couples fsync to its lock by design
	return s.f.Sync()
}
`)
	return tmp
}

// builtLint builds the binary once per test run: unlike `go run`, which
// flattens every nonzero child exit to 1, executing the binary directly
// preserves the 1-findings / 2-usage exit-code contract under test.
var builtLint struct {
	once sync.Once
	path string
	err  error
}

// runLintIn runs the built binary against a seeded module and returns
// its combined output and exit code.
func runLintIn(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	builtLint.once.Do(func() {
		tmp, err := os.MkdirTemp("", "mwslint-test-*")
		if err != nil {
			builtLint.err = err
			return
		}
		builtLint.path = filepath.Join(tmp, "mwslint")
		cmd := exec.Command("go", "build", "-o", builtLint.path, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			builtLint.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if builtLint.err != nil {
		t.Fatalf("building mwslint: %v", builtLint.err)
	}
	cmd := exec.Command(builtLint.path, append([]string{"-C", dir}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running mwslint: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestSeededCTFlowCrossPackage is the acceptance check for the
// constant-time verifier: a secret-dependent branch whose taint crosses
// a package boundary through a summary must fail the build.
func TestSeededCTFlowCrossPackage(t *testing.T) {
	tmp := seedCTModule(t)
	out, code := runLintIn(t, tmp, "./...")
	if code != 1 {
		t.Fatalf("mwslint exit code = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "ctflow") {
		t.Fatalf("mwslint output does not name ctflow:\n%s", out)
	}
	if !strings.Contains(out, "branch condition depends on an extracted identity private key") {
		t.Fatalf("mwslint output does not describe the cross-package secret branch:\n%s", out)
	}
	if !strings.Contains(out, "gateway.go") {
		t.Fatalf("finding not attributed to the consuming package:\n%s", out)
	}
}

// TestAnalyzerSelection pins the -only/-skip contract: selection changes
// which findings surface, a typo is a hard error (exit 2, never a
// silently wrong set), and the two flags are mutually exclusive.
func TestAnalyzerSelection(t *testing.T) {
	tmp := seedCTModule(t)

	out, code := runLintIn(t, tmp, "-only=ctflow", "./...")
	if code != 1 || !strings.Contains(out, "ctflow") {
		t.Fatalf("-only=ctflow should surface the ctflow finding (exit 1), got %d:\n%s", code, out)
	}
	if strings.Contains(out, "unknown analyzer") {
		t.Fatalf("-only=ctflow invalidated a checked-in ignore for an unselected analyzer:\n%s", out)
	}

	out, code = runLintIn(t, tmp, "-skip=ctflow", "./...")
	if code != 0 {
		t.Fatalf("-skip=ctflow should leave a clean tree (exit 0), got %d:\n%s", code, out)
	}

	for _, args := range [][]string{
		{"-only=nosuch", "./..."},
		{"-skip=nosuch", "./..."},
		{"-only=ctflow", "-skip=lockheld", "./..."},
	} {
		out, code = runLintIn(t, tmp, args...)
		if code != 2 {
			t.Errorf("%v should exit 2, got %d:\n%s", args, code, out)
		}
	}
	out, _ = runLintIn(t, tmp, "-only=nosuch", "./...")
	if !strings.Contains(out, "unknown analyzer") {
		t.Errorf("-only=nosuch error does not say unknown analyzer:\n%s", out)
	}
}

// TestJSONGoldenSchema locks the -json wire shape: the exact key sets of
// the diagnostic, suppression, declassification, and summary objects.
// CI tooling greps these fields; adding or renaming one is a reviewed
// interface change, and this test is where the review starts.
func TestJSONGoldenSchema(t *testing.T) {
	tmp := seedCTModule(t)
	out, code := runLintIn(t, tmp, "-json", "./...")
	if code != 1 {
		t.Fatalf("seeded tree should exit 1, got %d:\n%s", code, out)
	}

	keysOf := func(raw json.RawMessage) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("non-object JSON %q: %v", raw, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}

	const (
		wantDiag    = "analyzer,col,file,line,message"
		wantSummary = "declassified,findings,summary,suppressed,timings"
		wantSupp    = "analyzer,col,file,line,reason"
		wantDecl    = "col,file,line,reason"
		wantTiming  = "analyzer,ms"
	)

	var sawDiag, sawSummary bool
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // the trailing "mwslint: N finding(s)" stderr line
		}
		var probe struct {
			Summary      bool              `json:"summary"`
			Suppressed   []json.RawMessage `json:"suppressed"`
			Declassified []json.RawMessage `json:"declassified"`
			Timings      []json.RawMessage `json:"timings"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		if !probe.Summary {
			sawDiag = true
			if got := keysOf(json.RawMessage(line)); got != wantDiag {
				t.Errorf("diagnostic keys = %q, want %q", got, wantDiag)
			}
			continue
		}
		sawSummary = true
		if got := keysOf(json.RawMessage(line)); got != wantSummary {
			t.Errorf("summary keys = %q, want %q", got, wantSummary)
		}
		if len(probe.Suppressed) != 1 || len(probe.Declassified) != 1 {
			t.Fatalf("want 1 suppression and 1 declassification, got %d/%d:\n%s",
				len(probe.Suppressed), len(probe.Declassified), out)
		}
		if got := keysOf(probe.Suppressed[0]); got != wantSupp {
			t.Errorf("suppression keys = %q, want %q", got, wantSupp)
		}
		if got := keysOf(probe.Declassified[0]); got != wantDecl {
			t.Errorf("declassification keys = %q, want %q", got, wantDecl)
		}
		if len(probe.Timings) == 0 {
			t.Error("summary carries no timings")
		} else if got := keysOf(probe.Timings[0]); got != wantTiming {
			t.Errorf("timing keys = %q, want %q", got, wantTiming)
		}
	}
	if !sawDiag || !sawSummary {
		t.Fatalf("want at least one diagnostic and one summary object:\n%s", out)
	}
}

// TestSARIFOutput pins the -sarif log far enough for code-scanning
// upload: 2.1.0 versioning, rule metadata for the suite plus the
// declassify pseudo-rule, error/warning/note result levels, inSource
// suppression records, and artifact URIs relative to the lint root.
func TestSARIFOutput(t *testing.T) {
	tmp := seedCTModule(t)
	sarifPath := filepath.Join(tmp, "out.sarif")
	out, code := runLintIn(t, tmp, "-sarif", sarifPath, "./...")
	if code != 1 {
		t.Fatalf("seeded tree should exit 1, got %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("reading SARIF log: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("SARIF log is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version/runs = %q/%d, want 2.1.0/1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "mwslint" {
		t.Errorf("driver name = %q, want mwslint", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"ctflow", "lockheld", "mwslint", "mwslint/declassify"} {
		if !ruleIDs[want] {
			t.Errorf("rules missing %q; have %v", want, ruleIDs)
		}
	}
	var sawError, sawSuppressed, sawNote bool
	for _, r := range run.Results {
		if len(r.Locations) != 1 {
			t.Fatalf("result %q has %d locations, want 1", r.RuleID, len(r.Locations))
		}
		uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if strings.HasPrefix(uri, "/") || strings.Contains(uri, "..") {
			t.Errorf("artifact URI %q is not relative to the lint root", uri)
		}
		if r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %q has no start line", r.RuleID)
		}
		switch {
		case r.RuleID == "ctflow" && r.Level == "error":
			sawError = true
			if uri != "gateway/gateway.go" {
				t.Errorf("ctflow finding URI = %q, want gateway/gateway.go", uri)
			}
		case r.RuleID == "lockheld" && r.Level == "warning":
			sawSuppressed = true
			if len(r.Suppressions) != 1 || r.Suppressions[0].Kind != "inSource" ||
				!strings.Contains(r.Suppressions[0].Justification, "couples fsync to its lock") {
				t.Errorf("suppressed result lacks its inSource record: %+v", r.Suppressions)
			}
		case r.RuleID == "mwslint/declassify" && r.Level == "note":
			sawNote = true
		}
	}
	if !sawError || !sawSuppressed || !sawNote {
		t.Fatalf("missing result classes (error=%v suppressed=%v note=%v):\n%s",
			sawError, sawSuppressed, sawNote, raw)
	}
}

// TestPerAnalyzerBaseline pins the per-analyzer gate: with the analyzers
// map present, an analyzer absent from it has budget zero, so the tree's
// one lockheld suppression fails an empty map and passes a pin of 1.
// ctflow is skipped so the gate — not the seeded finding — decides.
func TestPerAnalyzerBaseline(t *testing.T) {
	tmp := seedCTModule(t)
	write := func(rel, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(tmp, rel), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pin0.json", `{"suppressions": 9, "analyzers": {}}`)
	write("pin1.json", `{"suppressions": 9, "analyzers": {"lockheld": 1}}`)

	out, code := runLintIn(t, tmp, "-skip=ctflow", "-baseline", filepath.Join(tmp, "pin0.json"), "./...")
	if code != 1 {
		t.Fatalf("zero lockheld pin should fail with exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "lockheld") || !strings.Contains(out, "baseline pin") {
		t.Fatalf("per-analyzer failure not attributed to lockheld's pin:\n%s", out)
	}

	out, code = runLintIn(t, tmp, "-skip=ctflow", "-baseline", filepath.Join(tmp, "pin1.json"), "./...")
	if code != 0 {
		t.Fatalf("lockheld pin of 1 should pass, got %d:\n%s", code, out)
	}
}

// TestListNamesEveryAnalyzer keeps -list in sync with the suite.
func TestListNamesEveryAnalyzer(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/mwslint", "-list")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mwslint -list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	suite := lint.DefaultAnalyzers()
	if len(lines) != len(suite) {
		t.Fatalf("-list printed %d lines for a suite of %d:\n%s", len(lines), len(suite), out)
	}
	for i, a := range suite {
		if name, _, _ := strings.Cut(lines[i], " "); name != a.Name {
			t.Errorf("-list line %d names %q, want %q", i+1, name, a.Name)
		}
	}
}
