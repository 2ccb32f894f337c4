package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow guards the request-pipeline context plumbing introduced with
// the wire.Router refactor: every handler runs under a context carrying
// the server's lifetime, the per-request deadline, and the peer address,
// and the service layers check it at cancellation checkpoints. A
// context.Background()/TODO() in library code severs that chain — the
// downstream work outlives the request's deadline and the server's
// shutdown, exactly the slow-handler leak the router's deadline stage
// exists to prevent. Legitimate roots (a server's base context, a
// context-free convenience shim) must say so with an annotation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/context.TODO() in non-main, non-test packages; " +
		"request-path code must propagate its caller's context",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if pass.Pkg.Name == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hasCtx := funcHasCtxParam(info, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeFromPkg(info, call, "context")
				if name != "Background" && name != "TODO" {
					return true
				}
				if hasCtx {
					pass.Reportf(call.Pos(),
						"%s receives a context.Context but calls context.%s; propagate the caller's ctx so deadlines and shutdown reach downstream work",
						fn.Name.Name, name)
				} else {
					pass.Reportf(call.Pos(),
						"context.%s creates a context root in library code; accept a ctx from the caller (annotate a legitimate root with //mwslint:ignore ctxflow <reason>)",
						name)
				}
				return true
			})
		}
	}
}

// funcHasCtxParam reports whether fn has a parameter of type
// context.Context.
func funcHasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && tv.Type != nil &&
			tv.Type.String() == "context.Context" {
			return true
		}
	}
	return false
}
