package lint

import (
	"go/ast"
)

// CryptoCompare enforces constant-time comparison in the packages that
// handle authenticator tags, MACs, and key material (PAPER.md §V.D: the
// MWS verifies deposit MACs; §V.B: the PKG verifies ticket
// authenticators). A bytes.Equal on a tag returns at the first differing
// byte, handing a network peer a timing oracle over the secret — the
// classic MAC-forgery side channel. reflect.DeepEqual is both
// variable-time and allocation-happy, so it has no place here either.
var CryptoCompare = &Analyzer{
	Name: "cryptocompare",
	Doc: "flags non-constant-time comparison (bytes.Equal, reflect.DeepEqual) in crypto packages; " +
		"secret material must be compared with hmac.Equal or subtle.ConstantTimeCompare",
	Run: runCryptoCompare,
}

// cryptoComparePkgs are the terminal package names CryptoCompare guards:
// everywhere a MAC tag, PEKS tag, ticket authenticator, or derived key is
// verified.
var cryptoComparePkgs = []string{"bfibe", "peks", "symenc", "papercipher", "macauth", "ticket", "kdf", "userdb"}

func runCryptoCompare(pass *Pass) {
	if !pathEndsIn(pass.Pkg.Path, cryptoComparePkgs...) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeFromPkg(pass.Pkg.Info, call, "bytes") == "Equal" {
				pass.Reportf(call.Pos(),
					"bytes.Equal is not constant-time; compare tags and secrets with hmac.Equal or subtle.ConstantTimeCompare")
			}
			if calleeFromPkg(pass.Pkg.Info, call, "reflect") == "DeepEqual" {
				pass.Reportf(call.Pos(),
					"reflect.DeepEqual is not constant-time; compare tags and secrets with hmac.Equal or subtle.ConstantTimeCompare")
			}
			return true
		})
	}
}
