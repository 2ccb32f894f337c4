// conc.go is the concurrency abstract-interpretation layer under the
// lockorder, lockheld, atomicmix, and goleak analyzers. It mirrors the
// taint engine's architecture — per-function transfer summaries iterated
// to a global fixpoint, then a reporting replay — but tracks lock sets
// instead of label sets, and flow-sensitively: the walker carries the
// set of abstract mutexes held at each program point through branches,
// loops, and defers.
//
// Abstract identities are strings, not types.Object pointers. Each
// package type-checks its imports from export data (see load.go), so
// the same mutex or function is a *different* object on each side of a
// package boundary; a canonical string key — import-path tail plus type
// and field name — is stable everywhere. The cost is instance blindness:
// every element of a shard slice shares one abstract lock. That is the
// right trade for this codebase, where lock *classes* (shard mutex,
// provider mutex, WAL mutex) are what the ordering discipline is about.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"
)

// concKeyKind classifies how stable an abstract identity is.
type concKeyKind int

const (
	concKeyNone   concKeyKind = iota
	concKeyField              // pkgTail.Type.field — stable program-wide
	concKeyPkgVar             // pkgTail.var — stable program-wide
	concKeyLocal              // funcKey.var — stable within one function
)

// concRef is the abstract identity of a mutex, channel, or counter
// expression: a canonical key, how trustworthy it is, and the import
// path of the declaring package (so analyzers can tell in-program
// objects from external ones like time.Ticker.C).
type concRef struct {
	key  string
	kind concKeyKind
	path string
}

// concRefOf derives the abstract identity of e. Struct fields key by the
// named type that declares them (deref'd through pointers), package-level
// variables by their package, and locals by the enclosing function key.
func concRefOf(pkg *Package, fnKey string, e ast.Expr) concRef {
	info := pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if pn := pkgNameOf(info, id); pn != nil {
				p := pn.Imported().Path()
				return concRef{key: pkgTailOf(p) + "." + x.Sel.Name, kind: concKeyPkgVar, path: p}
			}
		}
		v, ok := info.Uses[x.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return concRef{}
		}
		tv, ok := info.Types[x.X]
		if !ok {
			return concRef{}
		}
		named := namedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return concRef{}
		}
		tn := named.Obj()
		p := tn.Pkg().Path()
		return concRef{key: pkgTailOf(p) + "." + tn.Name() + "." + x.Sel.Name, kind: concKeyField, path: p}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return concRef{}
		}
		p := v.Pkg().Path()
		if v.Parent() == v.Pkg().Scope() {
			return concRef{key: pkgTailOf(p) + "." + v.Name(), kind: concKeyPkgVar, path: p}
		}
		return concRef{key: fnKey + "." + v.Name(), kind: concKeyLocal, path: p}
	}
	return concRef{}
}

// pkgTailOf returns the final segment of an import path.
func pkgTailOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// concFuncKey canonicalizes a function across package boundaries:
// import path, receiver type name (if any), and function name.
func concFuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path()
	if sig := calleeSig(fn); sig != nil && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			key += "." + named.Obj().Name()
		}
	}
	return key + "." + fn.Name()
}

// concFunc is one function body under analysis.
type concFunc struct {
	key  string
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// concIndex maps canonical function keys to declarations across the
// loaded program.
type concIndex struct {
	prog    *Program
	byKey   map[string]*concFunc
	ordered []*concFunc
	inProg  map[string]bool // import paths loaded from source
}

func buildConcIndex(prog *Program) *concIndex {
	idx := &concIndex{prog: prog, byKey: make(map[string]*concFunc), inProg: make(map[string]bool)}
	for _, pkg := range prog.Packages {
		idx.inProg[pkg.Path] = true
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
				cf := &concFunc{key: concFuncKey(fn), fn: fn, decl: fd, pkg: pkg}
				idx.byKey[cf.key] = cf
				idx.ordered = append(idx.ordered, cf)
			}
		}
	}
	return idx
}

// lockOp classifies a call as a sync.Mutex/RWMutex operation.
type lockOp int

const (
	lockOpNone lockOp = iota
	lockOpLock
	lockOpRLock
	lockOpUnlock
	lockOpRUnlock
)

// lockCall recognizes Lock/RLock/Unlock/RUnlock on sync.Mutex or
// sync.RWMutex and returns the receiver expression the mutex identity
// derives from. TryLock variants are excluded: they cannot deadlock.
func lockCall(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOpNone, nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOpNone, nil
	}
	sig := calleeSig(fn)
	if sig == nil || sig.Recv() == nil {
		return lockOpNone, nil
	}
	if !typeIsNamed(sig.Recv().Type(), "sync", "Mutex") && !typeIsNamed(sig.Recv().Type(), "sync", "RWMutex") {
		return lockOpNone, nil
	}
	switch fn.Name() {
	case "Lock":
		return lockOpLock, sel.X
	case "RLock":
		return lockOpRLock, sel.X
	case "Unlock":
		return lockOpUnlock, sel.X
	case "RUnlock":
		return lockOpRUnlock, sel.X
	}
	return lockOpNone, nil
}

// blockingCall reports whether callee is one of the primitive blocking
// operations lockheld guards, returning a short description ("" if not).
// sync.Cond.Wait is deliberately absent: it releases its coupled lock
// while waiting, which is the sanctioned handoff shape.
func blockingCall(callee *types.Func) string {
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	path, name := callee.Pkg().Path(), callee.Name()
	sig := calleeSig(callee)
	recvNamed := func(pkgTail, typeName string) bool {
		return sig != nil && sig.Recv() != nil && typeIsNamed(sig.Recv().Type(), pkgTail, typeName)
	}
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "os" && name == "Sync" && recvNamed("os", "File"):
		return "os.(*File).Sync"
	case path == "sync" && name == "Wait" && recvNamed("sync", "WaitGroup"):
		return "sync.WaitGroup.Wait"
	case path == "net" && (name == "Read" || name == "Write") && sig != nil && sig.Recv() != nil:
		return "net connection I/O"
	case pathEndsIn(path, "wire"):
		switch {
		case name == "Dial" || name == "DialContext":
			return "a wire dial"
		case name == "Call":
			return "a wire RPC (wire.Call)"
		case recvNamed("wire", "Client") && name == "Do":
			return "a wire RPC (Client.Do)"
		}
	}
	return ""
}

// heldLock records where a currently-held lock was acquired.
type heldLock struct {
	pos  token.Pos
	read bool
}

// lockSummary is the interprocedural abstract of one function: the locks
// it may acquire (transitively, with a witness position), the locks it
// leaves held for or releases on behalf of the caller, and whether it
// may block (blockDesc is the root primitive description).
type lockSummary struct {
	acquires   map[string]token.Pos
	heldAtExit map[string]token.Pos
	releases   map[string]bool
	blockDesc  string
	blockPos   token.Pos
}

// lockHooks receives walker events during the reporting replay.
type lockHooks struct {
	// onAcquire fires for a direct Lock/RLock with the held set *before*
	// the acquisition.
	onAcquire func(key string, read bool, pos token.Pos, held map[string]heldLock)
	// onCalleeAcquires fires at a call site whose callee may acquire
	// locks, before those locks merge into the held set.
	onCalleeAcquires func(cs *lockSummary, callee string, pos token.Pos, held map[string]heldLock)
	// onBlock fires for a blocking operation with the current held set.
	onBlock func(desc string, pos token.Pos, held map[string]heldLock)
}

// lockEngine owns the per-function summaries for one loaded program.
type lockEngine struct {
	idx     *concIndex
	sums    map[string]*lockSummary
	changed bool
}

// newLockEngine builds empty summaries and iterates every function to a
// global fixpoint. All summary components only grow, so this terminates;
// the cap is a safety net.
func newLockEngine(idx *concIndex) *lockEngine {
	e := &lockEngine{idx: idx, sums: make(map[string]*lockSummary)}
	for _, cf := range idx.ordered {
		e.sums[cf.key] = &lockSummary{
			acquires:   make(map[string]token.Pos),
			heldAtExit: make(map[string]token.Pos),
			releases:   make(map[string]bool),
		}
	}
	for range 64 {
		e.changed = false
		for _, cf := range idx.ordered {
			e.walk(cf, nil)
		}
		if !e.changed {
			break
		}
	}
	return e
}

// concState caches one program's index and engine so the four analyzers
// share a single fixpoint instead of each paying for their own.
var concState struct {
	sync.Mutex
	prog *Program
	idx  *concIndex
	eng  *lockEngine
}

// concFor returns the (cached) index and lock engine for prog.
func concFor(prog *Program) (*concIndex, *lockEngine) {
	concState.Lock()
	defer concState.Unlock()
	if concState.prog != prog {
		idx := buildConcIndex(prog)
		concState.prog, concState.idx, concState.eng = prog, idx, newLockEngine(idx)
	}
	return concState.idx, concState.eng
}

// walk runs the flow-sensitive walker over cf, updating its summary;
// with non-nil hooks the walk also emits reporting events.
func (e *lockEngine) walk(cf *concFunc, hooks *lockHooks) {
	w := &lockWalker{
		eng: e, cf: cf, sum: e.sums[cf.key], hooks: hooks,
		held: make(map[string]heldLock), deferred: make(map[string]bool),
	}
	if !w.stmts(cf.decl.Body.List) {
		w.exit()
	}
}

// lockWalker carries the abstract lock state through one function body.
// Function literals are opaque to it except goroutine bodies, which the
// reporting replay walks with a fresh (empty) held set.
type lockWalker struct {
	eng      *lockEngine
	cf       *concFunc
	sum      *lockSummary // nil for goroutine-literal walks
	hooks    *lockHooks
	held     map[string]heldLock
	deferred map[string]bool // shared across forks: defers fire at exit
}

// fork clones the walker with a copied held set for one branch; the
// deferred map is intentionally shared.
func (w *lockWalker) fork() *lockWalker {
	c := *w
	c.held = make(map[string]heldLock, len(w.held))
	for k, v := range w.held {
		c.held[k] = v
	}
	return &c
}

// merge unions a maybe-executed branch's exit state into w.
func (w *lockWalker) merge(br *lockWalker) {
	for k, v := range br.held {
		if _, ok := w.held[k]; !ok {
			w.held[k] = v
		}
	}
}

// join replaces w.held with the union of the non-terminated exits of an
// if/else pair.
func (w *lockWalker) join(a *lockWalker, aTerm bool, b *lockWalker, bTerm bool) {
	switch {
	case aTerm && bTerm:
		// Unreachable fall-through; keep the entry state.
	case aTerm:
		w.held = b.held
	case bTerm:
		w.held = a.held
	default:
		w.held = a.held
		w.merge(b)
	}
}

// exit folds the caller-visible lock state at a return point into the
// summary: held locks minus pending deferred unlocks.
func (w *lockWalker) exit() {
	if w.sum == nil {
		return
	}
	for k, v := range w.held {
		if w.deferred[k] {
			continue
		}
		if _, ok := w.sum.heldAtExit[k]; !ok {
			w.sum.heldAtExit[k] = v.pos
			w.eng.changed = true
		}
	}
}

// stmts walks a statement list, returning true when control provably
// leaves the enclosing function or loop before the end.
func (w *lockWalker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
		w.exit()
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.block("channel send", s.Arrow)
	case *ast.GoStmt:
		w.goStmt(s)
	case *ast.DeferStmt:
		w.deferStmt(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		then := w.fork()
		tTerm := then.stmts(s.Body.List)
		els := w.fork()
		eTerm := false
		if s.Else != nil {
			eTerm = els.stmt(s.Else)
		}
		w.join(then, tTerm, els, eTerm)
		return tTerm && eTerm
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		body := w.fork()
		body.stmts(s.Body.List)
		body.stmt(s.Post)
		w.merge(body)
	case *ast.RangeStmt:
		w.expr(s.X)
		if tv, ok := w.cf.pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block("range over a channel", s.For)
			}
		}
		body := w.fork()
		body.stmts(s.Body.List)
		w.merge(body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.cases(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.cases(s.Body)
	case *ast.SelectStmt:
		w.selectStmt(s)
	}
	return false
}

// cases union-merges each clause body into the incoming state; switches
// are conservatively never terminating.
func (w *lockWalker) cases(body *ast.BlockStmt) {
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.expr(e)
		}
		br := w.fork()
		br.stmts(cc.Body)
		w.merge(br)
	}
}

// selectStmt treats a default-less select as one blocking operation and
// walks each arm as a branch. Channel operations in the arms are not
// re-counted: the select already accounts for them, and an arm with a
// default sibling never blocks.
func (w *lockWalker) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.block("select without a default case", s.Select)
	}
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		br := w.fork()
		br.commStmt(cc.Comm)
		br.stmts(cc.Body)
		w.merge(br)
	}
}

// commStmt walks a select communication op without emitting its own
// channel-block event.
func (w *lockWalker) commStmt(s ast.Stmt) {
	skipArrow := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.expr(u.X)
			return
		}
		w.expr(e)
	}
	switch s := s.(type) {
	case nil:
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.ExprStmt:
		skipArrow(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			skipArrow(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	default:
		w.stmt(s)
	}
}

// goStmt evaluates the call's arguments in the spawner. The goroutine
// body runs under its own empty lock set: during the reporting replay,
// literal bodies are walked with a fresh walker (summaries off) so lock
// misuse inside them still surfaces; named callees are covered by their
// own top-level walk.
func (w *lockWalker) goStmt(s *ast.GoStmt) {
	for _, a := range s.Call.Args {
		w.expr(a)
	}
	if w.hooks == nil {
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		gw := &lockWalker{
			eng: w.eng, cf: w.cf, hooks: w.hooks,
			held: make(map[string]heldLock), deferred: make(map[string]bool),
		}
		if !gw.stmts(lit.Body.List) {
			gw.exit()
		}
	}
}

// deferStmt tracks deferred unlocks — direct, inside an immediate
// literal, or via a callee whose summary releases locks. Deferred
// blocking work is not modeled: it runs at exit, where the held set is
// unknowable here.
func (w *lockWalker) deferStmt(s *ast.DeferStmt) {
	for _, a := range s.Call.Args {
		w.expr(a)
	}
	info := w.cf.pkg.Info
	if op, recv := lockCall(info, s.Call); op == lockOpUnlock || op == lockOpRUnlock {
		if ref := concRefOf(w.cf.pkg, w.cf.key, recv); ref.key != "" {
			w.deferred[ref.key] = true
		}
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, recv := lockCall(info, call); op == lockOpUnlock || op == lockOpRUnlock {
					if ref := concRefOf(w.cf.pkg, w.cf.key, recv); ref.key != "" {
						w.deferred[ref.key] = true
					}
				}
			}
			return true
		})
		return
	}
	if callee := staticCallee(info, s.Call); callee != nil {
		if cs := w.eng.sums[concFuncKey(callee)]; cs != nil {
			for k := range cs.releases {
				w.deferred[k] = true
			}
		}
	}
}

// expr scans an expression in pre-order for lock operations, blocking
// operations, and calls. Function literals are opaque: their bodies run
// when invoked, not where written.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.call(n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block("channel receive", n.OpPos)
			}
		}
		return true
	})
}

// call applies a call's effect on the lock state: direct lock ops first,
// then primitive blocking operations, then the callee's summary.
func (w *lockWalker) call(call *ast.CallExpr) {
	info := w.cf.pkg.Info
	if op, recv := lockCall(info, call); op != lockOpNone {
		ref := concRefOf(w.cf.pkg, w.cf.key, recv)
		key := ref.key
		if key == "" {
			// Unkeyable receiver (e.g. a function-call result): give it a
			// per-function identity so balance still tracks.
			key = w.cf.key + ".<anon>"
		}
		switch op {
		case lockOpLock, lockOpRLock:
			read := op == lockOpRLock
			if w.hooks != nil && w.hooks.onAcquire != nil {
				w.hooks.onAcquire(key, read, call.Pos(), w.held)
			}
			if w.sum != nil {
				if _, ok := w.sum.acquires[key]; !ok {
					w.sum.acquires[key] = call.Pos()
					w.eng.changed = true
				}
			}
			if _, ok := w.held[key]; !ok {
				w.held[key] = heldLock{pos: call.Pos(), read: read}
			}
		case lockOpUnlock, lockOpRUnlock:
			if _, ok := w.held[key]; ok {
				delete(w.held, key)
			} else if w.sum != nil && !w.sum.releases[key] {
				w.sum.releases[key] = true
				w.eng.changed = true
			}
		}
		return
	}
	callee := staticCallee(info, call)
	if desc := blockingCall(callee); desc != "" {
		w.block(desc, call.Pos())
		return
	}
	if callee == nil {
		return
	}
	cs := w.eng.sums[concFuncKey(callee)]
	if cs == nil {
		return
	}
	if cs.blockDesc != "" {
		w.blockRoot("call to "+callee.Name()+", which may block ("+cs.blockDesc+")", cs.blockDesc, call.Pos())
	}
	if w.hooks != nil && w.hooks.onCalleeAcquires != nil && len(cs.acquires) > 0 {
		w.hooks.onCalleeAcquires(cs, callee.Name(), call.Pos(), w.held)
	}
	if w.sum != nil {
		for k := range cs.acquires {
			if _, ok := w.sum.acquires[k]; !ok {
				w.sum.acquires[k] = call.Pos()
				w.eng.changed = true
			}
		}
	}
	for k := range cs.releases {
		delete(w.held, k)
	}
	for k := range cs.heldAtExit {
		if _, ok := w.held[k]; !ok {
			w.held[k] = heldLock{pos: call.Pos()}
		}
	}
}

// block records a primitive blocking operation.
func (w *lockWalker) block(desc string, pos token.Pos) {
	w.blockRoot(desc, desc, pos)
}

// blockRoot emits a block event with a display description while
// propagating only the root primitive description into the summary, so
// deep call chains report their actual cause instead of nesting.
func (w *lockWalker) blockRoot(display, root string, pos token.Pos) {
	if w.hooks != nil && w.hooks.onBlock != nil {
		w.hooks.onBlock(display, pos, w.held)
	}
	if w.sum != nil && w.sum.blockDesc == "" {
		w.sum.blockDesc = root
		w.sum.blockPos = pos
		w.eng.changed = true
	}
}

// shortPos renders a position as base-filename:line for diagnostic text.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
