package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KeyZero polices the lifetime of raw key bytes in the key-handling
// packages: an exported function that returns a key-material slice
// together with a non-nil error hands its caller a partially
// initialized secret on the failure path — the convention everywhere in
// this codebase (e.g. ticket.NewSessionKey) is to wipe the slice and
// return nil instead, so a caller that ignores the error cannot go on
// to use half a key.
var KeyZero = &Analyzer{
	Name: "keyzero",
	Doc: "flags exported functions in key-handling packages that return key-material slices " +
		"alongside a non-nil error without wiping them; failure paths must zero the slice and return nil",
	RunProgram: runKeyZero,
}

// keyMaterial is the single keyzero source label.
const keyMaterial = 0

// keyzeroPkgs are the terminal package names whose exported API is held
// to the wipe-on-error rule.
var keyzeroPkgs = []string{
	"bfibe", "symenc", "papercipher", "kdf", "ticket", "macauth", "keyserver", "tpkg", "peks",
}

func runKeyZero(pass *ProgramPass) {
	runTaint(pass, &taintSpec{
		name:       "keyzero",
		labelDesc:  []string{"key material"},
		reportIn:   func(path string) bool { return pathEndsIn(path, keyzeroPkgs...) },
		seedParam:  keyzeroSeedParam,
		sourceCall: keyzeroSourceCall,
		sanitizes:  plainSanitizes,
		sinkReturn: keyzeroSinkReturn,
	})
}

// keyzeroSeedParam: a byte-slice parameter whose name marks it as key
// material (same naming heuristic as secretlog) is key material on
// entry, wherever the function lives.
func keyzeroSeedParam(_ *types.Func, v *types.Var) labels {
	if isByteSlice(v.Type()) && secretName(v.Name()) {
		return srcLabel(keyMaterial)
	}
	return 0
}

// keyzeroSourceCall labels the key-producing calls: session-key minting,
// KEM decapsulation, and every KDF output.
func keyzeroSourceCall(callee *types.Func) map[int]labels {
	name := callee.Name()
	switch {
	case calleePkgEndsIn(callee, "ticket") && name == "NewSessionKey":
		return map[int]labels{0: srcLabel(keyMaterial)}
	case calleePkgEndsIn(callee, "bfibe") && name == "Decapsulate":
		return map[int]labels{0: srcLabel(keyMaterial)}
	case calleePkgEndsIn(callee, "kdf"):
		sig := calleeSig(callee)
		if sig == nil {
			return nil
		}
		out := make(map[int]labels)
		for i := range sig.Results().Len() {
			if isByteSlice(sig.Results().At(i).Type()) {
				out[i] = srcLabel(keyMaterial)
			}
		}
		return out
	}
	return nil
}

// keyzeroSinkReturn fires on `return key, err` shapes: an exported
// function returning a tainted, unwiped byte slice in the same
// statement as a non-nil-literal error value. `return nil, err` and
// `return key, nil` are the sanctioned shapes and stay silent, as do
// bare returns and tail calls (the callee's own returns were already
// checked).
func keyzeroSinkReturn(fn *types.Func, pkg *Package, ret *ast.ReturnStmt, taints []labels, exprs []ast.Expr, wiped map[types.Object]bool, report func(token.Pos, string)) {
	if !fn.Exported() {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	errIdx := -1
	for i := range sig.Results().Len() {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			errIdx = i
		}
	}
	if errIdx < 0 || errIdx >= len(exprs) || exprs[errIdx] == nil {
		return
	}
	if isNilExpr(pkg.Info, exprs[errIdx]) {
		return
	}
	for i := range exprs {
		if i == errIdx || exprs[i] == nil || exprs[i] == exprs[errIdx] {
			continue // the error itself, bare returns, tail calls
		}
		if taints[i]&srcLabel(keyMaterial) == 0 {
			continue
		}
		if !isByteSlice(sig.Results().At(i).Type()) {
			continue
		}
		if isNilExpr(pkg.Info, exprs[i]) {
			continue
		}
		if id := identOf(exprs[i]); id != nil && wiped[pkg.Info.Uses[id]] {
			continue
		}
		report(exprs[i].Pos(),
			"key material is returned alongside a non-nil error; on failure wipe the slice and return nil instead")
	}
}
