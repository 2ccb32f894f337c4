package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// DeadExport reports every exported function, method and interface
// method of non-test internal/ code that no non-test code outside
// experiments/ uses (ROADMAP aim 2). Test files are not type-checked, so
// their uses never count. A concrete method is also used when its type
// implements an interface whose method of that name is used, or any
// standard-library interface, whose callers are out of sight. Uses match
// by concFuncKey: a package checked from source and its importers'
// export-data view of it hold two types.Objects for one method.
var DeadExport = &Analyzer{
	Name:       "deadexport",
	Doc:        "report exported internal/ functions and methods that no production code uses",
	RunProgram: runDeadExport,
}

// exportScope classifies an import path by its elements after the last
// "testdata", so that a fixture can mirror the tree.
func exportScope(path string) (internal, experiments bool) {
	if i := strings.LastIndex(path, "/testdata/"); i >= 0 {
		path = path[i:]
	}
	path = "/" + path + "/"
	return strings.Contains(path, "/internal/"), strings.Contains(path, "/experiments/")
}

func runDeadExport(pass *ProgramPass) {
	used := make(map[string]bool)
	// byMethod lists, per method name, the interfaces through which a
	// call may reach a concrete method of that name.
	byMethod := make(map[string][]*types.Interface)
	addAll := func(it *types.Interface) {
		for m := range it.Methods() {
			byMethod[m.Name()] = append(byMethod[m.Name()], it)
		}
	}
	firstParty := make(map[string]bool)
	for _, pkg := range pass.Prog.Packages {
		root, _, _ := strings.Cut(pkg.Path, "/")
		firstParty[root] = true
		if _, exp := exportScope(pkg.Path); exp {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !used[concFuncKey(fn)] {
				used[concFuncKey(fn)] = true
				if recv := calleeSig(fn).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					byMethod[fn.Name()] = append(byMethod[fn.Name()], recv.Type().Underlying().(*types.Interface))
				}
			}
		}
	}

	addAll(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	visited := make(map[string]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p.Path()] {
			return
		}
		visited[p.Path()] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if root, _, _ := strings.Cut(p.Path(), "/"); !firstParty[root] {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					addAll(tn.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	for _, pkg := range pass.Prog.Packages {
		visit(pkg.Types)
	}

	for _, pkg := range pass.Prog.Packages {
		if in, exp := exportScope(pkg.Path); !in || exp {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[concFuncKey(fn)] || implementsUsed(fn, byMethod[fn.Name()]) {
				continue
			}
			if name := fn.Name(); name != "MustField" && name != "MustCurve" && name != "MustSystem" {
				pass.Reportf(fn.Pos(), "%s is exported but no production code uses it; wire it, move it to a test or experiments/, or delete it",
					types.ObjectString(fn, (*types.Package).Name))
			}
		}
	}
}

// implementsUsed reports whether fn is a concrete method whose type
// implements one of ifaces: types.Implements, with signatures compared
// as text, since it may come from an export-data view of fn's package.
func implementsUsed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := calleeSig(fn).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(namedOf(recv.Type())))
next:
	for _, it := range ifaces {
		for m := range it.Methods() {
			if sel := ms.Lookup(m.Pkg(), m.Name()); sel == nil || signatureText(sel.Obj().Type()) != signatureText(m.Type()) {
				continue next
			}
		}
		return true
	}
	return false
}

// signatureText renders a signature's parameter and result types, not
// their names.
func signatureText(t types.Type) string {
	sig := t.(*types.Signature)
	s := fmt.Sprint(sig.Variadic())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += ";"
		for v := range tup.Variables() {
			s += types.TypeString(v.Type(), nil) + ","
		}
	}
	return s
}
