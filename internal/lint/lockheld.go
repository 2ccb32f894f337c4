package lint

import (
	"go/token"
	"sort"
	"strings"
)

// LockHeld reports blocking operations — fsync, net I/O, wire RPCs,
// channel operations without a default, time.Sleep — performed while a
// mutex belonging to the warehouse's data plane (storage, mws, wal) is
// held. A blocked goroutine holding a shard or WAL lock stalls
// every other request on that shard, so the sites that *intend* the
// coupling (fsync-under-lock is the WAL's durability contract) carry
// //mwslint:ignore annotations explaining why.
var LockHeld = &Analyzer{
	Name:       "lockheld",
	Doc:        "report blocking operations performed while a storage/mws/wal mutex is held",
	RunProgram: runLockHeld,
}

// lockHeldScopes are the package tails whose mutexes the analyzer
// guards; locks declared elsewhere (metrics, obsv, fixtures' own
// helper packages) are out of scope.
var lockHeldScopes = []string{"storage", "mws", "wal"}

// scopedLockKey reports whether an abstract lock key belongs to a
// guarded package (keys begin with the declaring package's tail).
func scopedLockKey(k string) bool {
	head, _, _ := strings.Cut(k, ".")
	for _, s := range lockHeldScopes {
		if head == s {
			return true
		}
	}
	return false
}

func runLockHeld(pass *ProgramPass) {
	idx, eng := concFor(pass.Prog)
	fset := pass.Prog.Fset
	type site struct {
		pos  token.Pos
		lock string
	}
	seen := make(map[site]bool)
	hooks := &lockHooks{
		onBlock: func(desc string, pos token.Pos, held map[string]heldLock) {
			keys := make([]string, 0, len(held))
			for k := range held {
				if scopedLockKey(k) {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if seen[site{pos, k}] {
					continue
				}
				seen[site{pos, k}] = true
				pass.Reportf(pos, "blocking operation (%s) while %s is held (acquired at %s)", desc, k, shortPos(fset, held[k].pos))
			}
		},
	}
	for _, cf := range idx.ordered {
		eng.walk(cf, hooks)
	}
}
