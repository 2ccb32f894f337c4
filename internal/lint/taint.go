package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// This file is the interprocedural dataflow substrate of ctflow: a
// def-use/taint engine over the already-type-checked ASTs. ctflow
// describes its sources, sinks and sanitizers in a taintSpec; the engine
// computes per-function transfer summaries, builds a static call graph
// over the loaded program, and iterates both to a fixpoint, so taint
// introduced in one package is observed at a sink two or more calls away
// in another. A final replay of every body reports the sinks.
//
// The lattice is a bitset. The low sourceLabelBits bits are the spec's
// source labels ("IBE master-key material", ...); the remaining bits
// track, symbolically, "flows from parameter j of the function under
// analysis". A function's summary is the label set of each result with
// every parameter seeded by its own parameter bit, so a caller can
// translate parameter bits into the taint of its concrete arguments.
// Concrete incoming taint per parameter (paramIn) is the other half of
// the fixpoint: every call site with a tainted argument widens the
// callee's paramIn until the program stabilizes.
//
// The intraprocedural transfer is object-granular: taint sticks to the
// *types.Var it touches (a field write taints the whole struct, a slice
// of a tainted slice stays tainted). The one walker runs under two
// environment policies, both constants of the engine (see env). The
// summary pass is sticky, i.e. flow-insensitive: taint is never killed
// by reassignment — only a sanitizer produces clean values — and the
// body is re-walked until nothing grows. The reporting replay is
// flow-sensitive: it starts from a fresh environment that forks at
// branches, joins by union, strong-updates on plain assignments to a
// bare identifier, and iterates each loop until its head environment
// stops growing, so a branch on a variable that was overwritten or
// declassified is not a finding. Every type carries taint — a bit,
// digit or table index derived from a secret is exactly what a timing
// channel leaks.
//
// Known blind spots, accepted for a stdlib-only engine: dynamic calls
// (interface methods, stored func values) propagate no taint into their
// targets' parameters — sources *inside* such targets are still seen,
// and spec hooks match interface callees by name/package so the symenc
// Scheme methods act as sanitizers at every call site; channels and
// global variables propagate only within a single function; and a store
// through a local alias (st := &tbl[i]; f(&st.x, secret)) taints the
// alias, not tbl — kernels pass &tbl[i].x itself.

// labels is the taint lattice element: a bitset of source labels plus
// symbolic parameter bits.
type labels uint64

// sourceLabelBits is the number of low bits reserved for spec-defined
// source labels; the rest track parameter flows.
const sourceLabelBits = 8

// srcLabel returns the bit for spec source label i.
func srcLabel(i int) labels { return labels(1) << i }

// paramLabel returns the symbolic bit for parameter i, or 0 when the
// function has more parameters than the lattice can track (flows from
// the overflow parameters are dropped, never misattributed).
func paramLabel(i int) labels {
	if i >= 64-sourceLabelBits {
		return 0
	}
	return labels(1) << (sourceLabelBits + i)
}

// sourceBits strips the symbolic parameter bits, leaving concrete
// source labels.
func sourceBits(t labels) labels { return t & (labels(1)<<sourceLabelBits - 1) }

// sinkArg marks a call as a sink in the expanded operands it selects
// (receiver first for methods): callees that are variable-time in an
// operand, receiver included, rather than in one parameter slot.
type sinkArg struct {
	// message is the diagnostic; it may contain one %s verb, filled with
	// the description of the first offending label.
	message  string
	operands func(i int) bool
}

// siteKind names a control-flow or memory-access site the walker passes
// through; a spec turns kinds into sinks by giving them a message in
// taintSpec.siteSinks.
type siteKind int

const (
	siteBranch    siteKind = iota // if/switch/type-switch condition
	siteLoopBound                 // for condition, integer range operand
	siteIndex                     // index, slice bound, delete key
	siteAlloc                     // make size
	siteCompare                   // ordered or equality comparison of strings
	numSiteKinds
)

// taintSpec configures the taint analysis: its source labels and the
// hooks classifying calls and expressions as sources, sanitizers, and
// sinks. Every hook is required.
type taintSpec struct {
	// labelDesc describes each source label, indexed by label bit.
	labelDesc []string
	// reportIn limits sink reporting to the packages it accepts.
	// Summaries are still computed over the whole program.
	reportIn func(pkgPath string) bool
	// siteSinks turns the sites of a kind into sinks for every source
	// label: the message (one %s verb, as in sinkArg) is reported where
	// tainted data decides a branch, bounds a loop, indexes memory, sizes
	// an allocation or is compared as a string.
	siteSinks [numSiteKinds]string
	// passthrough reports that the callee's results carry the union of
	// its argument taint, skipping both its summary and sanitizer
	// classification (hash-into-scalar helpers whose body launders
	// through a digest but whose output is as secret as its inputs).
	passthrough func(callee *types.Func) bool
	// fieldRead filters the taint a struct-field read inherits from its
	// container (containerTaint is the container's labels): a service
	// struct wired with a master key must not turn every config-field
	// branch into a "branches on the master key" finding.
	fieldRead func(pkg *Package, info *types.Info, sel *ast.SelectorExpr, containerTaint labels) labels
	// seedParam returns labels a parameter carries at entry regardless of
	// call sites (e.g. "a []byte parameter named key is key material").
	seedParam func(fn *types.Func, v *types.Var) labels
	// sourceExpr returns labels for a non-call expression (key-typed
	// values).
	sourceExpr func(info *types.Info, e ast.Expr) labels
	// sourceCall returns labels for result i of a resolved call. A
	// callee summary's concrete source bits are context-insensitive (see
	// call), so a genuinely secret-producing call is labeled here, at
	// the call site.
	sourceCall func(callee *types.Func) map[int]labels
	// sanitizes reports that the callee's results are clean regardless of
	// argument taint (encryption: ciphertext out, whatever went in).
	sanitizes func(callee *types.Func) bool
	// sinkCall returns the sink a resolved call is, or nil.
	sinkCall func(callee *types.Func) *sinkArg
}

// describe renders the first set label of t for a %s message verb.
func (s *taintSpec) describe(t labels) string {
	for i, d := range s.labelDesc {
		if t&srcLabel(i) != 0 {
			return d
		}
	}
	return "tainted data"
}

// funcFacts is the engine's per-function state: the summary under
// computation plus the concrete taint known to flow into each parameter.
type funcFacts struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	sig  *types.Signature
	// params lists the receiver (if any) followed by the signature
	// parameters; all parameter indices below are into this slice.
	params []*types.Var
	// recvOffset is 1 for methods, 0 otherwise: signature parameter j is
	// params[j+recvOffset].
	recvOffset int
	// paramIn holds concrete source labels flowing into each parameter
	// from seeds and call sites (never parameter bits).
	paramIn []labels
	// retOut is the transfer summary: the labels of each result with
	// parameter i seeded paramIn[i]|paramLabel(i). Parameter bits are
	// preserved so callers can substitute argument taint.
	retOut []labels
	// paramOut is the other way a value leaves a function: what the body
	// stored through each pointer, slice or map parameter (receiver
	// included), in retOut's vocabulary and without the parameter's own
	// bit. z.SetMul(x, y) has no result; its summary is paramOut[z] ∋ x, y.
	paramOut []labels
}

// taintEngine ties a spec to a loaded program. Functions are indexed by
// concFuncKey, not *types.Func identity: every package is type-checked
// against export data, so the callee object seen from a caller package
// is distinct from the defining package's Defs object, and an
// object-keyed map would silently drop all cross-package propagation.
type taintEngine struct {
	spec    *taintSpec
	prog    *Program
	byKey   map[string]*funcFacts
	ordered []*funcFacts // deterministic iteration order
	changed bool
	// declass indexes //mwslint:declassify coverage; expressions on
	// covered lines evaluate clean.
	declass map[declassKey]string
	// pass receives the diagnostics.
	pass *ProgramPass
	// reported dedupes diagnostics: the replay re-walks loop bodies to a
	// fixpoint, and a later round may describe the same site by another
	// label.
	reported map[reportKey]bool
}

// reportKey identifies one diagnostic by where it is and which sink
// message (before label substitution) it instantiates.
type reportKey struct {
	pos    token.Pos
	format string
}

// safetyCap bounds every fixpoint iteration in the engine — the global
// summary fixpoint, the sticky re-walk of one body, the rounds of one
// loop. Labels only accumulate over a finite lattice, so each of them
// terminates on its own; the cap is a net under a bug, not a tuning
// value, and falling into it is itself a diagnostic.
const safetyCap = 64

// fixpoint calls round until it reports no change.
func (e *taintEngine) fixpoint(pos token.Pos, round func() (changed bool)) {
	for range safetyCap {
		if !round() {
			return
		}
	}
	e.reportf(pos, "dataflow did not converge within %d rounds; findings downstream of here may be missing", safetyCap)
}

// reportf emits a diagnostic, once per position and format.
func (e *taintEngine) reportf(pos token.Pos, format string, args ...any) {
	if k := (reportKey{pos, format}); !e.reported[k] {
		e.reported[k] = true
		e.pass.Reportf(pos, format, args...)
	}
}

// runTaint constructs the engine over every function body in the
// program, iterates summaries and parameter taint to a global fixpoint,
// then replays every function once more with sink reporting enabled.
func runTaint(pass *ProgramPass, spec *taintSpec) {
	prog := pass.Prog
	e := &taintEngine{
		spec: spec, prog: prog, pass: pass, byKey: make(map[string]*funcFacts), reported: make(map[reportKey]bool),
		declass: collectDirectives(prog, nil).declass,
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				e.addFunc(fn, fd, pkg)
			}
		}
	}
	e.fixpoint(token.NoPos, func() bool {
		e.changed = false
		for _, fa := range e.ordered {
			e.analyze(fa, false)
		}
		return e.changed
	})
	for _, fa := range e.ordered {
		if spec.reportIn(fa.pkg.Path) {
			e.analyze(fa, true)
		}
	}
}

// declassified reports whether pos sits on a line covered by a
// //mwslint:declassify directive.
func (e *taintEngine) declassified(pos token.Pos) bool {
	if len(e.declass) == 0 || !pos.IsValid() {
		return false
	}
	p := e.prog.Fset.Position(pos)
	_, ok := e.declass[declassKey{p.Filename, p.Line}]
	return ok
}

func (e *taintEngine) addFunc(fn *types.Func, decl *ast.FuncDecl, pkg *Package) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	fa := &funcFacts{fn: fn, decl: decl, pkg: pkg, sig: sig}
	if recv := sig.Recv(); recv != nil {
		fa.params = append(fa.params, recv)
		fa.recvOffset = 1
	}
	for i := range sig.Params().Len() {
		fa.params = append(fa.params, sig.Params().At(i))
	}
	fa.paramIn = make([]labels, len(fa.params))
	for i, v := range fa.params {
		fa.paramIn[i] = sourceBits(e.spec.seedParam(fn, v))
	}
	fa.retOut = make([]labels, sig.Results().Len())
	fa.paramOut = make([]labels, len(fa.params))
	e.byKey[concFuncKey(fn)] = fa
	e.ordered = append(e.ordered, fa)
}

// facts resolves the funcFacts for a callee in any loaded package, or
// nil for external, interface, and unresolved callees.
func (e *taintEngine) facts(fn *types.Func) *funcFacts {
	if fn == nil {
		return nil
	}
	return e.byKey[concFuncKey(fn)]
}

// analyze runs the intraprocedural transfer for one function. The
// summary pass (report false) walks the body under the sticky policy to
// a local fixpoint, propagating into the summary and callee paramIn. The
// reporting replay walks once with sinks enabled, flow-sensitively, from
// a fresh environment holding only the parameters.
func (e *taintEngine) analyze(fa *funcFacts, report bool) {
	b := &bodyState{engine: e, fa: fa, info: fa.pkg.Info, retTaint: make([]labels, len(fa.retOut)), report: report}
	b.env = &env{obj: make(map[types.Object]labels), flow: report}
	for i, p := range fa.params {
		b.setObj(p, fa.paramIn[i]|paramLabel(i))
	}
	if report {
		b.stmt(fa.decl.Body)
		return
	}
	e.fixpoint(fa.decl.Pos(), func() bool {
		b.localChanged = false
		b.stmt(fa.decl.Body)
		return b.localChanged
	})
	for i, t := range b.retTaint {
		if t&^fa.retOut[i] != 0 {
			fa.retOut[i] |= t
			e.changed = true
		}
	}
	for i, p := range fa.params {
		if t := b.env.obj[p] &^ paramLabel(i); storesReachCaller(p.Type()) && t&^fa.paramOut[i] != 0 {
			fa.paramOut[i] |= t
			e.changed = true
		}
	}
}

// storesReachCaller reports whether a store through a parameter of type t
// lands in memory the caller still sees.
func storesReachCaller(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// env maps in-scope objects to the labels they hold (parameter bits
// included); a missing object is clean. It implements both environment
// policies of the walker. Sticky (flow false, the summary pass): one map
// for the whole body, fork and join are the identity, nothing is ever
// killed, and the caller re-walks until no object grows. Flow-sensitive
// (flow true, the reporting replay): fork clones at a control-flow
// split, join unions at the merge, and a plain assignment to a bare
// identifier replaces what it held, so an overwritten or declassified
// variable really goes clean.
type env struct {
	obj  map[types.Object]labels
	flow bool
}

// fork returns the environment one arm of a control-flow split runs in.
func (e *env) fork() *env {
	if !e.flow {
		return e
	}
	return &env{obj: maps.Clone(e.obj), flow: true}
}

// join unions o into e (control-flow merge) and reports whether e grew.
func (e *env) join(o *env) bool {
	grew := false
	if o != e {
		for k, t := range o.obj {
			grew = e.add(k, t) || grew
		}
	}
	return grew
}

// add unions t into what o holds and reports whether that grew.
func (e *env) add(o types.Object, t labels) bool {
	if t&^e.obj[o] == 0 {
		return false
	}
	e.obj[o] |= t
	return true
}

// bodyState is the per-analysis mutable state for one function body.
type bodyState struct {
	engine *taintEngine
	fa     *funcFacts
	info   *types.Info
	// env is the environment at the statement being interpreted.
	env *env
	// retTaint accumulates per-result taint across return statements.
	retTaint []labels
	// funcLitDepth guards return-statement attribution inside closures.
	funcLitDepth int
	// localChanged records that some object grew during this walk; the
	// sticky policy re-walks the body until it stays false.
	localChanged bool
	report       bool
}

// concretize substitutes the current function's parameter bits with the
// concrete labels known to flow into those parameters.
func (b *bodyState) concretize(t labels) labels {
	out := sourceBits(t)
	for i := range b.fa.params {
		if pb := paramLabel(i); pb != 0 && t&pb != 0 {
			out |= b.fa.paramIn[i]
		}
	}
	return out
}

// site checks taint t arriving at a site of kind k (the expression at)
// against the spec's site sinks.
func (b *bodyState) site(k siteKind, at ast.Expr, t labels) {
	if msg := b.engine.spec.siteSinks[k]; b.report && msg != "" {
		if eff := b.concretize(t); eff != 0 {
			b.engine.reportf(at.Pos(), msg, b.engine.spec.describe(eff))
		}
	}
}

func (b *bodyState) setObj(o types.Object, t labels) {
	if o == nil || t == 0 {
		return
	}
	if b.env.add(o, t) {
		b.localChanged = true
	}
}

// rootObj resolves the base object an lvalue expression stores into:
// x, x.f, x[i], (*x), x[i:j] and the destination argument &x all root at x.
func (b *bodyState) rootObj(e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if o := b.info.Defs[v]; o != nil {
				return o
			}
			return b.info.Uses[v]
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			e = v.X
		default:
			return nil
		}
	}
}

// setLHS propagates taint into a store target that is not a plain
// assignment (range variables, channel sends, append and copy
// destinations). Writing a tainted value into x.f or x[i] taints x as a
// whole: object granularity.
func (b *bodyState) setLHS(lhs ast.Expr, t labels) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	b.setObj(b.rootObj(lhs), t)
}

// assignTo writes taint t into one assignment target. Under the
// flow-sensitive policy a plain `=`/`:=` onto a bare identifier
// strong-updates (this is where declassification kills happen);
// everything else — op-assigns, field and element stores — unions.
// Evaluating a non-identifier target runs its index sites: a
// secret-indexed store is the same cache leak as a load.
func (b *bodyState) assignTo(tok token.Token, lhs ast.Expr, t labels) {
	if id, ok := lhs.(*ast.Ident); !ok {
		b.expr(lhs)
	} else if b.env.flow && (tok == token.ASSIGN || tok == token.DEFINE) {
		delete(b.env.obj, b.rootObj(id))
	} else if tok == token.DEFINE && b.info.Defs[id] == nil {
		// Sticky, and := merely reassigns this identifier (the err of
		// `v, err := f(x)`): with no kill to precede it, the union would
		// leave one shared err holding the arguments of every call in the
		// body, so it keeps what it held.
		return
	}
	b.setLHS(lhs, t)
}

// --- statements ---

func (b *bodyState) block(list []ast.Stmt) {
	for _, st := range list {
		b.stmt(st)
	}
}

// alt interprets alternative control-flow arms, each from a fork of the
// current environment, and makes the join of their outcomes current.
// open says control may also bypass every arm (a switch without a
// matching case), so the entry environment joins too.
func (b *bodyState) alt(open bool, arms []ast.Stmt, walk func(ast.Stmt)) {
	entry := b.env
	var out *env
	if open {
		out = entry.fork()
	}
	for _, arm := range arms {
		b.env = entry.fork()
		walk(arm)
		if out == nil {
			out = b.env
		} else {
			out.join(b.env)
		}
	}
	b.env = out
}

// loop interprets a loop: round walks condition, body and post once from
// a fork of the head environment, and the outcome joins back into the
// head until it stops growing (the lattice is finite and the head only
// grows, so this is a fixpoint, not a bound). Under the sticky policy
// the first join is the identity and the enclosing re-walk iterates
// instead.
func (b *bodyState) loop(pos token.Pos, round func()) {
	head := b.env
	b.engine.fixpoint(pos, func() bool {
		b.env = head.fork()
		round()
		return head.join(b.env)
	})
	b.env = head
}

func (b *bodyState) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.block(s.List)
	case *ast.ExprStmt:
		b.expr(s.X)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
			for i, t := range b.exprMulti(s.Rhs[0], len(s.Lhs)) {
				b.assignTo(s.Tok, s.Lhs[i], t)
			}
			return
		}
		for i, lhs := range s.Lhs {
			if i < len(s.Rhs) {
				b.assignTo(s.Tok, lhs, b.expr(s.Rhs[i]))
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == 1 && len(vs.Names) > 1 {
				ts := b.exprMulti(vs.Values[0], len(vs.Names))
				for i, name := range vs.Names {
					b.setObj(b.info.Defs[name], ts[i])
				}
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					b.setObj(b.info.Defs[name], b.expr(vs.Values[i]))
				}
			}
		}
	case *ast.ReturnStmt:
		b.ret(s)
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.site(siteBranch, s.Cond, b.expr(s.Cond))
		// A missing else is the arm that does nothing.
		b.alt(false, []ast.Stmt{s.Body, s.Else}, b.stmt)
	case *ast.ForStmt:
		b.stmt(s.Init)
		b.loop(s.Pos(), func() {
			if s.Cond != nil {
				b.site(siteLoopBound, s.Cond, b.expr(s.Cond))
			}
			b.stmt(s.Body)
			b.stmt(s.Post)
		})
	case *ast.RangeStmt:
		t := b.expr(s.X)
		// The key is a public index or map key, not the container's
		// contents — `for id, dev := range devices` must not mark the
		// identifier string with the devices' key material. Channel and
		// integer ranges are the exception: there the key IS the element
		// (or a value bounded by the secret, which makes the operand a loop
		// bound as well).
		kt := rangeKeyTaint(b.info, s.X, t)
		if basicInfo(b.info, s.X)&types.IsInteger != 0 {
			b.site(siteLoopBound, s.X, t)
		}
		b.setLHS(s.Key, kt) // an absent key or value roots at no object
		b.setLHS(s.Value, t)
		b.loop(s.Pos(), func() { b.stmt(s.Body) })
	case *ast.SwitchStmt:
		b.stmt(s.Init)
		if s.Tag != nil {
			b.site(siteBranch, s.Tag, b.expr(s.Tag))
		}
		b.alt(true, s.Body.List, func(cc ast.Stmt) {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				// Without a tag every case expression is a condition of
				// its own.
				if t := b.expr(e); s.Tag == nil {
					b.site(siteBranch, e, t)
				}
			}
			b.block(clause.Body)
		})
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init)
		var guard ast.Expr // x.(type), bare or as the right side of v := x.(type)
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			guard = a.Rhs[0]
		case *ast.ExprStmt:
			guard = a.X
		}
		var tagTaint labels
		if ta, ok := guard.(*ast.TypeAssertExpr); ok {
			tagTaint = b.expr(ta.X)
			b.site(siteBranch, ta.X, tagTaint)
		}
		b.alt(true, s.Body.List, func(cc ast.Stmt) {
			clause := cc.(*ast.CaseClause)
			// The per-clause implicit object carries the switched value.
			b.setObj(b.info.Implicits[clause], tagTaint)
			b.block(clause.Body)
		})
	case *ast.SelectStmt:
		b.alt(true, s.Body.List, func(cc ast.Stmt) {
			clause := cc.(*ast.CommClause)
			b.stmt(clause.Comm)
			b.block(clause.Body)
		})
	case *ast.SendStmt:
		// Channel contents collapse onto the channel object: a receive
		// from it elsewhere in this function sees the taint.
		t := b.expr(s.Value)
		b.expr(s.Chan)
		b.setLHS(s.Chan, t)
	case *ast.IncDecStmt:
		b.expr(s.X)
	case *ast.GoStmt:
		b.expr(s.Call)
	case *ast.DeferStmt:
		b.expr(s.Call)
	case *ast.LabeledStmt:
		b.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// exprMulti evaluates a single expression feeding n targets: a
// multi-valued call, or a comma-ok form whose first target takes the
// value.
func (b *bodyState) exprMulti(e ast.Expr, n int) []labels {
	out := make([]labels, n)
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		copy(out, b.call(call))
	} else {
		out[0] = b.expr(e)
	}
	return out
}

func (b *bodyState) ret(s *ast.ReturnStmt) {
	if b.funcLitDepth > 0 {
		// A closure's returns are not this function's results; evaluate
		// for side effects only.
		for _, e := range s.Results {
			b.expr(e)
		}
		return
	}
	switch {
	case len(s.Results) == 0:
		// Bare return: named results carry whatever they hold.
		res := b.fa.sig.Results()
		for i := range b.retTaint {
			if v := res.At(i); v.Name() != "" {
				b.retTaint[i] |= b.env.obj[v]
			}
		}
	case len(s.Results) == len(b.retTaint):
		for i, e := range s.Results {
			b.retTaint[i] |= b.expr(e)
		}
	case len(s.Results) == 1:
		// Tail call: return f() with f multi-valued.
		for i, t := range b.exprMulti(s.Results[0], len(b.retTaint)) {
			b.retTaint[i] |= t
		}
	}
}

// --- expressions ---

func (b *bodyState) expr(e ast.Expr) labels {
	if e == nil {
		return 0
	}
	var t labels
	switch v := e.(type) {
	case *ast.Ident:
		if o := b.info.Uses[v]; o != nil {
			t = b.env.obj[o]
		}
	case *ast.BasicLit:
	case *ast.ParenExpr:
		t = b.expr(v.X)
	case *ast.SelectorExpr:
		if pkgNameOf(b.info, identOf(v.X)) != nil {
			// Qualified identifier pkg.Name: package-level state is not
			// tracked across functions.
			t = 0
		} else {
			t = b.expr(v.X)
			if t != 0 {
				if sel, ok := b.info.Selections[v]; ok && sel.Kind() == types.FieldVal {
					t = b.engine.spec.fieldRead(b.fa.pkg, b.info, v, t)
				}
			}
		}
	case *ast.IndexExpr:
		// The index taints nothing: where it is a sink the leak is the
		// access pattern, reported here, and the loaded value is as public
		// as the table it came from.
		t = b.expr(v.X)
		if tv, ok := b.info.Types[v.Index]; !ok || !tv.IsType() { // a generic instantiation has a type operand
			b.site(siteIndex, v.Index, b.expr(v.Index))
		}
	case *ast.IndexListExpr:
		t = b.expr(v.X)
	case *ast.SliceExpr:
		t = b.expr(v.X)
		for _, bound := range []ast.Expr{v.Low, v.High, v.Max} {
			if bound != nil {
				b.site(siteIndex, bound, b.expr(bound))
			}
		}
	case *ast.StarExpr:
		t = b.expr(v.X)
	case *ast.UnaryExpr:
		t = b.expr(v.X)
	case *ast.BinaryExpr:
		t = b.expr(v.X) | b.expr(v.Y)
		switch v.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			if isNilExpr(b.info, v.X) || isNilExpr(b.info, v.Y) {
				t = 0 // pointer identity, not content
			} else if basicInfo(b.info, v.X)&types.IsString != 0 {
				b.site(siteCompare, v, t) // byte-wise, so variable-time
			}
		}
	case *ast.TypeAssertExpr:
		t = b.expr(v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			t |= b.expr(el)
		}
	case *ast.CallExpr:
		for _, r := range b.call(v) {
			t |= r
		}
	case *ast.FuncLit:
		// Analyze the closure body in the enclosing frame: captured
		// objects are shared, so taint flows in and out naturally. Its
		// own parameters start clean.
		b.funcLitDepth++
		b.stmt(v.Body)
		b.funcLitDepth--
	case *ast.KeyValueExpr:
		b.expr(v.Key)
		t = b.expr(v.Value)
	}
	t |= b.engine.spec.sourceExpr(b.info, e)
	// Declassification: an expression on a covered line is, by the
	// analyst's explicit claim, public from here on.
	if t != 0 && b.engine.declassified(e.Pos()) {
		return 0
	}
	return t
}

// identOf unwraps an expression to a bare identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// staticCallee resolves the *types.Func a call statically invokes:
// package functions, methods (concrete or interface), and instantiated
// generics. Calls through stored function values resolve to nil.
func staticCallee(info *types.Info, c *ast.CallExpr) *types.Func {
	fun := ast.Unparen(c.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// call evaluates a call expression, returning per-result taint and, as
// side effects: argument evaluation, sink checking, and interprocedural
// propagation into the callee's paramIn.
func (b *bodyState) call(c *ast.CallExpr) []labels {
	info := b.info
	spec := b.engine.spec

	// Type conversion: taint passes through.
	if tv, ok := info.Types[c.Fun]; ok && tv.IsType() {
		var t labels
		for _, a := range c.Args {
			t |= b.expr(a)
		}
		return []labels{t}
	}

	// Builtins.
	if id := identOf(c.Fun); id != nil {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return b.builtin(id.Name, c)
		}
	}

	callee := staticCallee(info, c)

	// Expanded arguments: receiver first for method calls.
	var args []ast.Expr
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			args = append(args, sel.X)
		} else {
			b.expr(sel.X) // qualified ident or func-typed field: evaluate
		}
	} else {
		b.expr(c.Fun) // e.g. immediately-invoked closure, chained call
	}
	recvOffset := len(args)
	args = append(args, c.Args...)
	argTaint := make([]labels, len(args))
	var union labels
	for i, a := range args {
		argTaint[i] = b.expr(a)
		union |= argTaint[i]
	}
	// f(g()) with g multi-valued: every parameter sees the union of g's
	// results (argTaint already holds that union; spreadAll makes the
	// parameter mapping below use it for each position).
	spreadAll := false
	if len(c.Args) == 1 {
		if inner, ok := ast.Unparen(c.Args[0]).(*ast.CallExpr); ok {
			if tv, ok := info.Types[inner]; ok {
				if tup, ok := tv.Type.(*types.Tuple); ok && tup.Len() > 1 {
					spreadAll = true
				}
			}
		}
	}

	// sigParamTaint folds the expanded arguments onto signature parameter
	// j (receiver excluded), merging variadic tails.
	var sigParams *types.Tuple
	variadic := false
	if callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok {
			sigParams = sig.Params()
			variadic = sig.Variadic()
		}
	}
	sigParamTaint := func(j int) labels {
		i := j + recvOffset
		if spreadAll {
			i = recvOffset
		}
		if i >= len(args) {
			return 0
		}
		t := argTaint[i]
		if variadic && sigParams != nil && j == sigParams.Len()-1 {
			for k := i + 1; k < len(args); k++ {
				t |= argTaint[k]
			}
		}
		return t
	}

	// Sinks, reported at the call.
	if b.report && callee != nil {
		if s := spec.sinkCall(callee); s != nil {
			var t labels
			for i, at := range argTaint {
				if s.operands(i) {
					t |= at
				}
			}
			if eff := b.concretize(t); eff != 0 {
				b.engine.reportf(c.Pos(), s.message, spec.describe(eff))
			}
		}
	}

	// Results: go/types records a *types.Tuple for zero or multiple
	// results and the bare type for exactly one.
	nres := 1
	if tv, ok := info.Types[c]; ok && tv.Type != nil {
		if tup, ok := tv.Type.(*types.Tuple); ok {
			nres = tup.Len()
		}
	}
	out := make([]labels, max(nres, 1))

	if callee != nil && spec.passthrough(callee) {
		// The callee's output is exactly as secret as its inputs; its body
		// (typically a digest) is neither a launderer nor a summary worth
		// consulting.
		for i := range out {
			out[i] = union
		}
		return out
	}

	// Interprocedural propagation: widen the callee's incoming parameter
	// taint with this site's concrete argument taint. This runs even for
	// sanitizing callees — a sanitizer launders its *result*, but its body
	// still computes on the secret arguments and must be analyzed with
	// them (ec.ScalarMultSecret's ladder sees the secret scalar regardless
	// of its output being a public commitment).
	fa := b.engine.facts(callee)
	if fa != nil {
		for j := range fa.params {
			var t labels
			if j < fa.recvOffset {
				if recvOffset > 0 {
					t = argTaint[0]
				}
			} else {
				t = sigParamTaint(j - fa.recvOffset)
			}
			conc := b.concretize(t)
			if conc&^fa.paramIn[j] != 0 {
				fa.paramIn[j] |= conc
				b.engine.changed = true
			}
		}
	}

	if callee != nil && spec.sanitizes(callee) {
		return out
	}

	if fa != nil {
		// Translate the callee summary: parameter bits substitute this
		// site's argument taint, and concrete source bits are dropped. The
		// flow-insensitive fixpoint seeds each body with the union of every
		// call site's taint, so those bits are context-insensitive: once
		// one caller passes a private key into ec.IsOnCurve, its result
		// would read as "private key" at every other call site. Genuinely
		// secret-producing calls are labeled at the site instead, by
		// sourceCall (generators) or sourceExpr (key-typed results).
		translate := func(ro labels) labels {
			var t labels
			for j := range fa.params {
				if pb := paramLabel(j); pb != 0 && ro&pb != 0 {
					if j < fa.recvOffset {
						if recvOffset > 0 {
							t |= argTaint[0]
						}
					} else {
						t |= sigParamTaint(j - fa.recvOffset)
					}
				}
			}
			return t
		}
		for i := 0; i < nres && i < len(fa.retOut); i++ {
			out[i] = translate(fa.retOut[i])
		}
		// What the callee stored through a destination parameter now sits
		// in the caller's object behind that argument (an argument that is
		// itself a call roots at no object).
		for j, po := range fa.paramOut {
			if i := j - fa.recvOffset + recvOffset; po != 0 && i >= 0 && i < len(args) {
				b.setObj(b.rootObj(args[i]), translate(po))
			}
		}
	} else {
		// Unresolved or external callee: conservatively, every result
		// carries the union of the argument (and receiver) taint.
		for i := range out {
			out[i] = union
		}
	}

	if callee != nil {
		for i, lab := range spec.sourceCall(callee) {
			if i < len(out) {
				out[i] |= lab
			}
		}
	}
	return out
}

func (b *bodyState) builtin(name string, c *ast.CallExpr) []labels {
	switch name {
	case "append":
		var t labels
		for _, a := range c.Args {
			t |= b.expr(a)
		}
		if len(c.Args) > 0 {
			// append may write into the first argument's backing array.
			b.setLHS(c.Args[0], t)
		}
		return []labels{t}
	case "copy":
		if len(c.Args) == 2 {
			t := b.expr(c.Args[1])
			b.expr(c.Args[0])
			b.setLHS(c.Args[0], t)
		}
		return []labels{0}
	case "min", "max":
		var t labels
		for _, a := range c.Args {
			t |= b.expr(a)
		}
		return []labels{t}
	case "make":
		for _, size := range c.Args[1:] { // after the type operand
			b.site(siteAlloc, size, b.expr(size))
		}
		return []labels{0}
	case "delete":
		if len(c.Args) == 2 {
			b.expr(c.Args[0])
			b.site(siteIndex, c.Args[1], b.expr(c.Args[1]))
		}
		return []labels{0}
	default:
		// len, cap, new, clear, panic, print, println, close, complex,
		// real, imag, recover: evaluate arguments; lengths are public and
		// the other results (if any) carry no secret bytes worth tracking.
		for _, a := range c.Args {
			b.expr(a)
		}
		return []labels{0}
	}
}

// calleePkgEndsIn reports whether the callee is declared in a package
// whose import path's final segment is one of names.
func calleePkgEndsIn(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return pathEndsIn(fn.Pkg().Path(), names...)
}

// calleeSig returns the callee's signature, or nil.
func calleeSig(fn *types.Func) *types.Signature {
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

// basicInfo returns the flags of e's underlying basic type, or 0 when it
// has none.
func basicInfo(info *types.Info, e ast.Expr) types.BasicInfo {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok {
			return basic.Info()
		}
	}
	return 0
}

// rangeKeyTaint is the taint a range key inherits when the ranged
// container carries t: the container's taint for channels (the key is
// the received element) and integer ranges (the key is bounded by the
// secret), clean for slice/array/map/string keys (a position or map key
// is public; secret map keys are caught at the indexing sites instead).
func rangeKeyTaint(info *types.Info, x ast.Expr, t labels) labels {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return t
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); isChan || basicInfo(info, x)&types.IsInteger != 0 {
		return t
	}
	return 0
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tv, ok := info.Types[e]; ok {
		if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			return true
		}
	}
	id := identOf(e)
	return id != nil && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}
