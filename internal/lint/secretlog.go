package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SecretLog flags identifiers that look like key material flowing into
// fmt/log/slog sinks in the packages that hold secrets. The paper's whole
// trust argument (PAPER.md §III) is that the MWS operator never sees
// plaintext or keys; a %x of a master key in a server log voids that
// against anyone who can read the logs — a far weaker adversary than the
// design defends against. Detection is name-based over direct arguments,
// so wrapping a secret before logging it will evade the check; the
// analyzer is a tripwire, not a proof.
var SecretLog = &Analyzer{
	Name: "secretlog",
	Doc: "flags identifiers matching secret/key naming patterns passed directly to fmt, log, or slog " +
		"sinks — or into tracing span attributes or metric labels — in secret-bearing packages",
	Run: runSecretLog,
}

// secretLogPkgs are the terminal package names SecretLog guards: the IBE
// core, the PKG, both services, and every keyed-crypto helper.
var secretLogPkgs = []string{
	"bfibe", "keyserver", "kdf", "ticket", "mws", "macauth", "userdb", "symenc", "papercipher", "peks", "tpkg",
}

// fmtSinks, logSinks, slogSinks name the formatting functions treated as
// log output. fmt.Errorf is included: error strings routinely end up in
// logs and wire error frames.
var (
	fmtSinks = map[string]bool{
		"Print": true, "Printf": true, "Println": true,
		"Sprint": true, "Sprintf": true, "Sprintln": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Errorf": true,
	}
	logSinks = map[string]bool{
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	}
	slogSinks = map[string]bool{
		"Debug": true, "Info": true, "Warn": true, "Error": true, "Log": true,
		"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
	}
)

// secretName reports whether an identifier's name marks it as likely key
// material.
func secretName(name string) bool {
	l := strings.ToLower(name)
	// Metadata about a secret (its length, size, count) is not the secret.
	for _, suffix := range []string{"len", "size", "count", "bits", "bytes"} {
		if strings.HasSuffix(l, suffix) {
			return false
		}
	}
	switch l {
	case "key", "keys", "sk", "priv", "secret":
		return true
	}
	for _, sub := range []string{
		"secret", "master", "privkey", "privatekey", "password", "passphrase",
		"sessionkey", "mackey", "sharedkey", "credkey", "symkey", "seckey", "hmackey",
	} {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func runSecretLog(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, secretLogPkgs...) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var args []ast.Expr
			var telemetry string // where a span or label sink's text surfaces; "" for a log sink
			switch n := n.(type) {
			case *ast.CallExpr:
				switch {
				case isSpanAttrSink(info, n):
					telemetry = spanAttrSink
				case calleeFromPkg(info, n, "mwskit/internal/obsv") == "L":
					telemetry = labelSink
				case !isLogSink(info, n):
					return true
				}
				args = n.Args
			case *ast.CompositeLit:
				if tv := info.Types[n]; tv.Type == nil || !strings.HasSuffix(tv.Type.String(), "obsv.Label") {
					return true
				}
				telemetry = labelSink
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					args = append(args, el)
				}
			}
			for _, arg := range args {
				name, pos := argIdentName(arg)
				if telemetry != "" && name == "" {
					// These sinks take strings, so the typical violation
					// arrives wrapped in a conversion: string(masterKey).
					name, pos = convArgIdentName(info, arg)
				}
				if name == "" || !secretName(name) {
					continue
				}
				if telemetry != "" {
					pass.Reportf(pos, "%s looks like key material flowing into %s — record identities or digests, never the secret", name, telemetry)
					continue
				}
				pass.Reportf(pos,
					"%s looks like key material flowing into a log/format sink; log a length or fingerprint instead, never the secret", name)
			}
			return true
		})
	}
}

// spanAttrSink and labelSink say, for a diagnostic, where the text handed
// to obsv's two telemetry sinks ends up. A metric label value (obsv.L or
// an obsv.Label literal) is log output as much as a span attribute is.
const (
	spanAttrSink = "a span attribute; attributes reach the trace ring, slow-request logs, /traces, and TTrace responses"
	labelSink    = "a metric label; labels reach /metrics, TStats responses, and the stats log line"
)

// isLogSink reports whether call is a fmt/log/slog output call or a
// method on a slog.Logger.
func isLogSink(info *types.Info, call *ast.CallExpr) bool {
	if name := calleeFromPkg(info, call, "fmt"); fmtSinks[name] {
		return true
	}
	if name := calleeFromPkg(info, call, "log"); logSinks[name] {
		return true
	}
	if name := calleeFromPkg(info, call, "log/slog"); slogSinks[name] {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slogSinks[sel.Sel.Name] {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return strings.Contains(tv.Type.String(), "log/slog.Logger")
}

// isSpanAttrSink reports whether call is obsv's Span.SetAttr. Span
// attributes are log output for confidentiality purposes: they land in
// the in-process span ring and from there flow to slow-request slog
// dumps, the /traces debug endpoint, and TTrace responses to any
// connected peer. Identities and digests are the intended payload; key
// material must never be.
func isSpanAttrSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "SetAttr" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return strings.Contains(tv.Type.String(), "obsv.Span")
}

// convArgIdentName sees through a direct type conversion — string(x),
// []byte(x) — and extracts the converted identifier's name. Hashing or
// truncating a secret breaks the name chain (and genuinely transforms
// the value); a bare conversion does neither.
func convArgIdentName(info *types.Info, arg ast.Expr) (string, token.Pos) {
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", token.NoPos
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", token.NoPos
	}
	return argIdentName(call.Args[0])
}

// argIdentName extracts the trailing identifier name of a direct ident or
// selector argument ("key", "s.masterKey"); other shapes — len(key),
// fingerprints, literals — return "".
func argIdentName(arg ast.Expr) (string, token.Pos) {
	switch e := arg.(type) {
	case *ast.Ident:
		return e.Name, e.Pos()
	case *ast.SelectorExpr:
		return e.Sel.Name, e.Pos()
	}
	return "", token.NoPos
}
