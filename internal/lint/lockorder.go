package lint

import (
	"go/token"
	"sort"
	"strconv"
)

// LockOrder builds a global lock-acquisition graph — an edge A→B for
// every site that acquires B while holding A, interprocedurally — and
// reports every edge on a cycle (a potential deadlock under concurrent
// execution of the two orders) plus every self-edge (double-acquire of
// the same non-reentrant mutex, a guaranteed self-deadlock for Mutex and
// a writer-starvation deadlock for recursive RLock).
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "report lock-acquisition-order cycles and double-acquires of non-reentrant mutexes",
	RunProgram: runLockOrder,
}

// lockEdge is one witnessed ordering: to was acquired at pos while from
// was held (from having been acquired at heldPos).
type lockEdge struct {
	from, to     string
	pos, heldPos token.Pos
}

func runLockOrder(pass *ProgramPass) {
	eng := concFor(pass.Prog)

	var edges []lockEdge
	seen := make(map[string]bool)
	addEdge := func(from, to string, pos, heldPos token.Pos) {
		k := from + "\x00" + to + "\x00" + strconv.Itoa(int(pos))
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, lockEdge{from: from, to: to, pos: pos, heldPos: heldPos})
	}
	hooks := &lockHooks{
		onAcquire: func(key string, pos token.Pos, held map[string]token.Pos) {
			for h, heldPos := range held {
				addEdge(h, key, pos, heldPos)
			}
		},
		onCalleeAcquires: func(cs *lockSummary, pos token.Pos, held map[string]token.Pos) {
			// A callee acquisition of a lock the caller already holds
			// lands as a self-edge: a self-deadlock at this call site.
			for h, heldPos := range held {
				for k := range cs.acquires {
					addEdge(h, k, pos, heldPos)
				}
			}
		},
	}
	for _, cf := range eng.funcs {
		eng.walk(cf, hooks)
	}

	// Cycle detection over the ordering graph (self-edges are reported
	// directly and excluded from reachability).
	adj := make(map[string][]string)
	for _, e := range edges {
		if e.from != e.to {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	reaches := func(src, dst string) bool {
		visited := map[string]bool{src: true}
		queue := []string{src}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n == dst {
				return true
			}
			for _, m := range adj[n] {
				if !visited[m] {
					visited[m] = true
					queue = append(queue, m)
				}
			}
		}
		return false
	}

	fset := pass.Prog.Fset
	for _, e := range edges {
		if e.from == e.to {
			pass.Reportf(e.pos, "lock %s is acquired while already held (acquired at %s): double-acquire of a non-reentrant mutex deadlocks", e.to, shortPos(fset, e.heldPos))
			continue
		}
		if reaches(e.to, e.from) {
			pass.Reportf(e.pos, "lock %s acquired while holding %s (held since %s), but the opposite acquisition order also exists: lock-ordering cycle, potential deadlock", e.to, e.from, shortPos(fset, e.heldPos))
		}
	}
}
