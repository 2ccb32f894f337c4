package lint

import (
	"go/types"
)

// PlainFlow is the paper's core storage invariant (PAPER.md §III, §V)
// as a dataflow property: the warehouse side of the system must only
// ever persist, frame, or write out ciphertext. Values originating from
// a symmetric Open, an IBE decrypt, or a private-key extraction are
// tracked interprocedurally; reaching a storage/wal write (the
// provider layer's Append/Put included), a wire message, or any
// io.Writer without first passing through an encrypting call is a
// finding.
var PlainFlow = &Analyzer{
	Name: "plainflow",
	Doc: "tracks decrypted plaintext, pre-Seal plaintext, and extracted IBE private keys " +
		"interprocedurally; they must not reach storage/wal writes, wire messages, or io.Writers " +
		"on the warehouse side unless re-encrypted via symenc.Seal",
	RunProgram: runPlainFlow,
}

// Plainflow source labels.
const (
	plainOpened  = iota // output of symenc.Open / bfibe decrypt
	plainPreSeal        // plaintext argument handed to symenc.Seal
	plainPrivKey        // extracted IBE private key / decapsulated KEM key
)

// plainAll selects every plainflow label.
var plainAll = srcLabel(plainOpened) | srcLabel(plainPreSeal) | srcLabel(plainPrivKey)

// plainReportIn are the terminal package names where plaintext sinks are
// violations. Client-side packages (device, rclient) legitimately hold
// plaintext; the warehouse, the PKG, and the storage/framing layers must
// not.
var plainReportIn = []string{"mws", "keyserver", "storage", "wal", "wire", "ticket"}

func runPlainFlow(pass *ProgramPass) {
	runTaint(pass, &taintSpec{
		name: "plainflow",
		labelDesc: []string{
			"decrypted plaintext (symenc.Open output)",
			"pre-encryption plaintext (symenc.Seal input)",
			"extracted IBE private key",
		},
		reportIn:      func(path string) bool { return pathEndsIn(path, plainReportIn...) },
		sourceCall:    plainSourceCall,
		sourceArgs:    plainSourceArgs,
		sanitizes:     plainSanitizes,
		sinkCall:      plainSinkCall,
		sinkComposite: plainSinkComposite,
	})
}

// plainSourceCall labels the results of decrypting and key-extracting
// calls. Matching is by callee name within the crypto packages'
// terminal names, so interface methods (symenc.Scheme) and fixture
// packages hit the same rules.
func plainSourceCall(callee *types.Func) map[int]labels {
	name := callee.Name()
	switch {
	case calleePkgEndsIn(callee, "symenc") && name == "Open":
		return map[int]labels{0: srcLabel(plainOpened)}
	case calleePkgEndsIn(callee, "bfibe") && (name == "DecryptBasic" || name == "DecryptFull"):
		return map[int]labels{0: srcLabel(plainOpened)}
	case calleePkgEndsIn(callee, "bfibe") && (name == "Extract" || name == "Decapsulate"):
		return map[int]labels{0: srcLabel(plainPrivKey)}
	case calleePkgEndsIn(callee, "tpkg") && (name == "Combine" || name == "PartialExtract"):
		return map[int]labels{0: srcLabel(plainPrivKey)}
	}
	return nil
}

// plainSourceArgs marks the plaintext handed to an encrypting call: the
// ciphertext result is clean, but the input buffer itself is plaintext
// from that point on and must not leak past the seal.
func plainSourceArgs(callee *types.Func) map[int]labels {
	if !calleePkgEndsIn(callee, "symenc") || callee.Name() != "Seal" {
		return nil
	}
	sig := calleeSig(callee)
	if sig == nil {
		return nil
	}
	out := make(map[int]labels)
	for i := range sig.Params().Len() {
		switch sig.Params().At(i).Name() {
		case "plaintext", "msg", "message", "pt", "data":
			out[i] = srcLabel(plainPreSeal)
		}
	}
	return out
}

// plainSanitizes: encryption launders taint — what comes out is
// ciphertext regardless of what went in.
func plainSanitizes(callee *types.Func) bool {
	name := callee.Name()
	switch {
	case calleePkgEndsIn(callee, "symenc") && name == "Seal":
		return true
	case calleePkgEndsIn(callee, "bfibe") &&
		(name == "EncryptBasic" || name == "EncryptFull" || name == "Encapsulate"):
		return true
	case calleePkgEndsIn(callee, "peks") && name == "NewTag":
		return true
	}
	return false
}

// plainSinkCall flags tainted arguments crossing into the storage or
// framing layers, and any tainted byte flowing into an io.Writer.
func plainSinkCall(cx *sinkCtx, callee *types.Func) []sinkArg {
	sig := calleeSig(callee)
	if sig == nil {
		return nil
	}
	calleePath := ""
	if callee.Pkg() != nil {
		calleePath = callee.Pkg().Path()
	}
	crossing := calleePath != cx.callerPkg.Path

	var sinks []sinkArg
	addAll := func(msg string) {
		for j := range sig.Params().Len() {
			if taintableType(sig.Params().At(j).Type()) {
				sinks = append(sinks, sinkArg{param: j, mask: plainAll, message: msg})
			}
		}
	}
	switch {
	case crossing && pathEndsIn(calleePath, "storage", "wal"):
		addAll("%s flows into a storage write; the warehouse must persist only ciphertext (seal with symenc.Seal first)")
	case crossing && pathEndsIn(calleePath, "wire"):
		addAll("%s flows into the wire layer; frames must carry only ciphertext")
	default:
		hasWriter := false
		for j := range sig.Params().Len() {
			if isIOWriter(sig.Params().At(j).Type()) {
				hasWriter = true
				break
			}
		}
		if hasWriter {
			for j := range sig.Params().Len() {
				p := sig.Params().At(j)
				if !isIOWriter(p.Type()) && taintableType(p.Type()) {
					sinks = append(sinks, sinkArg{param: j, mask: plainAll,
						message: "%s is written to an io.Writer; plaintext and private keys must never leave the process unencrypted"})
				}
			}
		} else if callee.Name() == "Write" && sig.Recv() != nil &&
			sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) {
			sinks = append(sinks, sinkArg{param: 0, mask: plainAll,
				message: "%s is written to an io.Writer; plaintext and private keys must never leave the process unencrypted"})
		}
	}
	return sinks
}

// plainSinkComposite flags tainted values placed into a wire message
// literal built outside the wire package itself.
func plainSinkComposite(cx *sinkCtx, typ types.Type) (labels, string) {
	named, ok := typ.(*types.Named)
	if !ok {
		return 0, ""
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg.Path() == cx.callerPkg.Path || !pathEndsIn(pkg.Path(), "wire") {
		return 0, ""
	}
	return plainAll, "%s is placed into a wire message; frames must carry only ciphertext"
}

// isIOWriter reports whether t is exactly io.Writer.
func isIOWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "io" && obj.Name() == "Writer"
}
