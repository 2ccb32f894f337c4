package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctflow is the constant-time discipline verifier: a secret-dependence
// analysis that is one more taintSpec of the engine in taint.go. The
// engine (numericTaint mode: secret bits, digits, and indices are
// exactly what a timing channel leaks) computes which parameters and
// results of every function carry key material, then replays each body
// under the flow-sensitive environment policy — branch forks with union
// merges, strong updates on plain assignments, every loop interpreted
// until its environment stops growing — and this file's site sinks and
// call sinks report five violation classes:
//
//  1. secret-dependent branch conditions (if/switch/select tags),
//  2. secret-indexed loads and stores (table lookups, slice offsets,
//     map probes),
//  3. secret-dependent loop bounds,
//  4. secret-length allocations (make with a secret size),
//  5. calls into known variable-time routines with secret operands:
//     math/big methods (Bit included), bytes.Equal/Compare-style
//     helpers, string ==/!= on secrets, the public variable-time
//     ec.ScalarMult, and the residual big.Int boundary of the
//     fixed-limb ff layer (Exp's exponent-driven schedule, the
//     NewElement/FromInt64 inputs, String) — each checked only in its
//     timing-sensitive operand, so a secret base under a public exponent
//     stays clean.
//
// Sources: bfibe.MasterKey / bfibe.PrivateKey / tpkg.Share by type
// (every expression of those types is key material, so struct fields
// reached through untainted receivers are still seen), secret scalars
// from pairing.System.RandomScalar, session keys from kdf.SessionKey /
// bfibe.Encapsulate / Decapsulate / ticket.NewSessionKey /
// macauth.Register/Key, and key-named []byte parameters in the crypto
// packages.
//
// Declassification is explicit, three ways: crypto/* and hash stdlib
// primitives launder (a digest or AEAD output is public even when the
// input was secret; crypto/subtle comparison results are the sanctioned
// way to turn a secret comparison public), symenc Seal/Open and
// kdf.Mask launder at the module boundary, and //mwslint:declassify
// <reason> marks a line whose values the analyst asserts are public
// (mandatory reason, listed in the report).
//
// Precision decisions, deliberate:
//   - The result of a secret-indexed load is clean: the leak is the
//     access pattern, reported at the load site; propagating through the
//     loaded value would light up every consumer of a table-driven
//     constant-time routine (Joye–Tunstall selection) without naming a
//     new leak. A load *from* a secret-valued slice at a public index
//     stays secret — contents, not access pattern, flow.
//   - Variable-time callees propagate taint (report-and-flow, not
//     report-and-cut): big.Int.Set on the master key is both a finding
//     and still the master key.
//   - Bodies in internal/ff are not walked: the fixed-limb Montgomery
//     core is constant-time by construction (masked selects, loop
//     bounds fixed by the public limb count) and verified differentially
//     against math/big in its own tests; the surviving variable-time
//     surface — the big.Int boundary functions — is accounted at every
//     call site into it.
//   - Lengths are public (len/cap return clean), nil checks are public,
//     and only explicit flows are tracked — a branch on a secret does
//     not taint values assigned under it (no implicit-flow tracking).
var CTFlow = &Analyzer{
	Name: "ctflow",
	Doc: "secret-dependent branches, table indices, loop bounds, allocations, " +
		"and variable-time calls on key material (constant-time discipline)",
	RunProgram: runCTFlow,
}

// ctflow's source labels.
const (
	ctMasterKey  = iota // IBE master secret (bfibe.MasterKey)
	ctPrivateKey        // extracted identity private key (bfibe.PrivateKey)
	ctScalar            // secret scalar or threshold share
	ctSymKey            // symmetric session/MAC key bytes
)

// ctAll selects every ctflow label.
const ctAll = labels(1)<<(ctSymKey+1) - 1

// ctCryptoPkgs are the package tails whose key-named []byte parameters
// are seeded as key material. Storage and wire packages are excluded on
// purpose: a KV lookup key is not a cryptographic key.
var ctCryptoPkgs = []string{
	"symenc", "papercipher", "kdf", "macauth", "ticket", "bfibe", "peks",
	"ibs", "tpkg", "keyserver", "userdb", "ec", "pairing",
}

// ctCorePkgs are the pure-math packages whose structs are small
// key-bearing values — cipher state, Jacobian points, extension-field
// elements — where a tainted struct really does mean every field is
// secret. Everywhere else structs are wiring that happens to hold a key
// in one field (a bfibe.Params caching extracted keys, a service config,
// a Device), and ctFieldRead cuts the container's taint at the field
// boundary; the key-bearing fields themselves are re-labeled by type
// (MasterKey, PrivateKey, Share) or name (ticket SessionKey).
var ctCorePkgs = []string{
	"symenc", "papercipher", "ec", "pairing", "ff",
}

// ctFieldRead scopes struct-field reads: inside the core math packages a
// field inherits its container's taint (object granularity is right
// there); outside them it inherits only when the container's static type
// is itself key material (m.s on a MasterKey is the master scalar), so a
// service struct wired with a key does not turn every config-field
// branch into a finding. Type- and name-carried fields (MasterKey,
// PrivateKey, Share, ticket SessionKey) are re-labeled by ctSourceExpr
// regardless.
func ctFieldRead(pkg *Package, info *types.Info, sel *ast.SelectorExpr, containerTaint labels) labels {
	if pathEndsIn(pkg.Path, ctCorePkgs...) {
		return containerTaint
	}
	if tvx, ok := info.Types[sel.X]; ok && tvx.Type != nil {
		// Key-typed containers pass their taint to exactly their
		// secret-bearing fields; the sibling fields (a share's index, a
		// private key's identity) are public.
		switch name := sel.Sel.Name; {
		case typeIsNamed(tvx.Type, "bfibe", "MasterKey") && name == "s",
			typeIsNamed(tvx.Type, "bfibe", "PrivateKey") && name == "D",
			typeIsNamed(tvx.Type, "tpkg", "Share") && name == "Scalar":
			return containerTaint
		}
	}
	return 0
}

func ctSpec() *taintSpec {
	return &taintSpec{
		name: "ctflow",
		labelDesc: []string{
			"IBE master-key material",
			"an extracted identity private key",
			"a secret scalar",
			"symmetric key material",
		},
		// internal/ff bodies are skipped: the fixed-limb core is
		// constant-time by construction, and its big.Int boundary (the Exp
		// schedules, NewElement) is accounted at call sites.
		reportIn:      func(path string) bool { return !pathEndsIn(path, "ff") },
		flowSensitive: true,
		siteSinks: [numSiteKinds]string{
			siteBranch:    "branch condition depends on %s; constant-time code must not branch on secrets",
			siteLoopBound: "loop bound depends on %s; the iteration count leaks the secret",
			siteIndex:     "memory index depends on %s; secret-dependent table lookups leak through the data cache",
			siteAlloc:     "allocation size depends on %s; secret-length allocations leak through the allocator",
			siteCompare:   "variable-time string comparison on %s; compare secrets with crypto/subtle.ConstantTimeCompare",
		},
		numericTaint:    true,
		declassify:      true,
		crossPkg:        true,
		callSiteSources: true,
		seedParam:       ctSeedParam,
		sourceExpr:      ctSourceExpr,
		sourceCall:      ctSourceCall,
		sanitizes:       ctSanitizes,
		passthrough:     ctPassthrough,
		fieldRead:       ctFieldRead,
		sinkCall:        ctSinkCall,
	}
}

// ctSeedParam seeds key-named []byte parameters in the crypto packages.
// Type-carried key material (MasterKey, PrivateKey, Share) is handled by
// ctSourceExpr so it is seen through struct fields too.
func ctSeedParam(fn *types.Func, v *types.Var) labels {
	if !calleePkgEndsIn(fn, ctCryptoPkgs...) {
		return 0
	}
	if !isByteSlice(v.Type()) {
		return 0
	}
	name := v.Name()
	if name == "key" || name == "secret" ||
		(strings.HasSuffix(name, "Key") && !strings.Contains(strings.ToLower(name), "pub")) {
		return srcLabel(ctSymKey)
	}
	return 0
}

// ctSourceExpr labels expressions whose static type is key material, and
// the SessionKey field of ticket structs (a []byte field has no named
// type to match on).
func ctSourceExpr(info *types.Info, e ast.Expr) labels {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return 0
	}
	switch {
	case typeIsNamed(tv.Type, "bfibe", "MasterKey"):
		return srcLabel(ctMasterKey)
	case typeIsNamed(tv.Type, "bfibe", "PrivateKey"):
		return srcLabel(ctPrivateKey)
	case typeIsNamed(tv.Type, "tpkg", "Share"):
		return srcLabel(ctScalar)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "SessionKey" {
		if tvx, ok := info.Types[sel.X]; ok && tvx.Type != nil &&
			(typeIsNamed(tvx.Type, "ticket", "Ticket") || typeIsNamed(tvx.Type, "ticket", "Token")) {
			return srcLabel(ctSymKey)
		}
	}
	return 0
}

// ctByteResults labels every []byte result of fn's signature.
func ctByteResults(fn *types.Func, lab labels) map[int]labels {
	sig := calleeSig(fn)
	if sig == nil {
		return nil
	}
	out := make(map[int]labels)
	for i := range sig.Results().Len() {
		if isByteSlice(sig.Results().At(i).Type()) {
			out[i] = lab
		}
	}
	return out
}

func ctSourceCall(fn *types.Func) map[int]labels {
	name := fn.Name()
	switch {
	case name == "RandomScalar" && calleePkgEndsIn(fn, "pairing", "ec"):
		return map[int]labels{0: srcLabel(ctScalar)}
	case name == "SessionKey" && calleePkgEndsIn(fn, "kdf"):
		return map[int]labels{0: srcLabel(ctSymKey)}
	case (name == "Encapsulate" || name == "Decapsulate") && calleePkgEndsIn(fn, "bfibe"):
		return ctByteResults(fn, srcLabel(ctSymKey))
	case name == "NewSessionKey" && calleePkgEndsIn(fn, "ticket"):
		return ctByteResults(fn, srcLabel(ctSymKey))
	case (name == "Register" || name == "Key") && calleePkgEndsIn(fn, "macauth"):
		return ctByteResults(fn, srcLabel(ctSymKey))
	case name == "CredentialKey" && calleePkgEndsIn(fn, "userdb"):
		return ctByteResults(fn, srcLabel(ctSymKey))
	}
	return nil
}

// ctSanitizes: stdlib crypto and hash primitives launder — a digest,
// AEAD output, or crypto/subtle comparison result is public even when
// the input was secret (subtle's int result is the sanctioned way to
// branch on a secret comparison). At the module boundary, symenc
// Seal/Open (ciphertext out / message plaintext out — neither is key
// material) and kdf.Mask (pad-XOR output is ciphertext) launder too.
func ctSanitizes(fn *types.Func) bool {
	if pkg := fn.Pkg(); pkg != nil {
		p := pkg.Path()
		if p == "crypto" || strings.HasPrefix(p, "crypto/") || p == "hash" || strings.HasPrefix(p, "hash/") {
			return true
		}
	}
	name := fn.Name()
	if (name == "Seal" || name == "Open") && calleePkgEndsIn(fn, "symenc") {
		return true
	}
	// Point-multiplication outputs are public commitments: publishing
	// rP is the protocol (encapsulation points, public keys), and
	// recovering r from rP is the discrete log. The secret operand's
	// variable-time use is still reported at the call site (class 5);
	// the resulting point must not keep the scalar's label or every
	// consumer of a public key would light up. Key material typed as
	// PrivateKey/MasterKey/Share is re-tainted by type regardless, so
	// Extract's d = s·Q_ID stays secret.
	if calleePkgEndsIn(fn, "ec") {
		switch name {
		case "ScalarMult", "ScalarMultSecret", "Mul": // Mul is Comb.Mul, fixed-base
			return true
		}
	}
	return name == "Mask" && calleePkgEndsIn(fn, "kdf")
}

// ctPassthrough: kdf.ScalarSeed and kdf.Stream hash their inputs, but the
// output is exactly as secret as what went in — a Fujisaki–Okamoto
// re-encryption scalar reduced from the seed of a secret σ is secret,
// while the public IBS challenge derived from public bytes stays clean.
func ctPassthrough(fn *types.Func) bool {
	return calleePkgEndsIn(fn, "kdf") && (fn.Name() == "ScalarSeed" || fn.Name() == "Stream")
}

// ctSinkCall is class 5: callees whose execution time depends on operand
// values. The sink reports and the call still propagates — big.Int.Set
// on the master key is a finding and still the master key. Its operand
// selector scopes the check to the callee's timing-sensitive operands:
// ff.Exp on a secret base with a public exponent is constant-time and
// clean, the same call with a secret exponent is the finding.
//
// internal/ff is fixed-limb Montgomery arithmetic: Add/Sub/Mul/Inv/
// Equal/Bytes and the rest of the element surface run a schedule fixed
// by the public limb count, so they are not classified here. What
// survives is the deliberate big.Int boundary, variable-time only in
// the big.Int (or small-integer) operand: Exp's square/multiply window
// schedule follows the exponent's bits (the base is constant-time —
// secret exponents belong in pairing.GTExpSecret or ec.ScalarMultSecret),
// NewElement and FromInt64 reduce their input with math/big, and String
// formats the value it is called on.
func ctSinkCall(_ *sinkCtx, fn *types.Func) []sinkArg {
	every := func(int) bool { return true }
	argOnly := func(i int) bool { return i == 1 }
	recvOnly := func(i int) bool { return i == 0 }
	sink := func(desc string, operands func(int) bool) []sinkArg {
		return []sinkArg{{operands: operands, mask: ctAll,
			message: "%s flows into variable-time " + desc + "; use crypto/subtle or fixed-limb arithmetic"}}
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "math/big":
			return sink("math/big."+name, every)
		case "bytes":
			switch name {
			case "Equal", "Compare", "HasPrefix", "HasSuffix", "Index", "Contains":
				return sink("bytes."+name, every)
			}
		case "strings":
			switch name {
			case "Compare", "EqualFold", "Index", "HasPrefix", "HasSuffix", "Contains":
				return sink("strings."+name, every)
			}
		}
	}
	if calleePkgEndsIn(fn, "ff") {
		switch name {
		case "Exp":
			return sink("ff."+name+" (exponent-driven schedule)", argOnly)
		case "NewElement", "FromInt64":
			return sink("ff."+name+" (big.Int boundary)", argOnly)
		case "String":
			return sink("ff."+name, recvOnly)
		}
		return nil
	}
	if name == "ScalarMult" && calleePkgEndsIn(fn, "ec") {
		return sink("ec.ScalarMult", every)
	}
	return nil
}

func runCTFlow(pass *ProgramPass) {
	runTaint(pass, ctSpec())
}

// typeIsNamed reports whether t is (a pointer to, or a slice of) the
// named type pkgTail.name, matching the declaring package by its import
// path's final segment.
func typeIsNamed(t types.Type, pkgTail, name string) bool {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Slice:
			t = v.Elem()
		case *types.Named:
			obj := v.Obj()
			return obj.Name() == name && obj.Pkg() != nil && pathEndsIn(obj.Pkg().Path(), pkgTail)
		default:
			return false
		}
	}
}
