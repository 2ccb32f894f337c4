package macauth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testMAC(i int) []byte {
	return binary.BigEndian.AppendUint64([]byte("mac-"), uint64(i))
}

// TestReplayGuardAgainstModel drives the guard and a trivial reference —
// the time each MAC was last accepted — through seeded random arrivals:
// duplicates, timestamps on and just past the freshness boundary, forward
// leaps of 1, 2, 3 and 10 windows and backward steps. Safety: the guard
// refuses every MAC accepted at most 2 × window ago — ago by the highest
// clock reading so far: expiry never looks at a clock that stepped back,
// as the walked map's prune did not. Expiry: it accepts a MAC never seen,
// or last accepted three windows before that reading, and Len never
// exceeds the MACs accepted within three windows.
func TestReplayGuardAgainstModel(t *testing.T) {
	const w = time.Minute
	type accepted struct{ at, highWater time.Time }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewReplayGuard(w)
		model := map[int]accepted{}
		now := time.Unix(1278000000, 0)
		highWater := now
		fresh := 1000
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 80:
				now = now.Add(time.Duration(rng.Int63n(int64(w / 8))))
			case r < 84:
				now = now.Add(w) // exactly one window on
			case r < 92:
				now = now.Add(time.Duration([]int{1, 2, 3, 10}[rng.Intn(4)])*w + time.Duration(rng.Int63n(int64(w))))
			default:
				now = now.Add(-time.Duration(rng.Int63n(int64(3 * w / 2))))
			}
			id := rng.Intn(48) // a small pool, so duplicates are common
			if rng.Intn(4) == 0 {
				id, fresh = fresh, fresh+1
			}
			ts, stale := now, false
			switch rng.Intn(8) {
			case 0:
				ts = now.Add(w)
			case 1:
				ts = now.Add(-w)
			case 2:
				ts, stale = now.Add(w+1), true
			case 3:
				ts, stale = now.Add(-w-1), true
			}
			err := g.Check(testMAC(id), ts, now)
			if stale {
				if err != ErrStale {
					t.Fatalf("seed %d step %d: stale timestamp: err = %v", seed, step, err)
				}
				continue
			}
			if now.After(highWater) {
				highWater = now
			}
			last, seen := model[id]
			switch {
			case err != nil && err != ErrReplay:
				t.Fatalf("seed %d step %d: err = %v", seed, step, err)
			case seen && highWater.Sub(last.at) <= 2*w && err == nil:
				t.Fatalf("seed %d step %d: MAC %d accepted again %v after its last accept", seed, step, id, highWater.Sub(last.at))
			case (!seen || now.Sub(last.highWater) >= 3*w) && err != nil:
				t.Fatalf("seed %d step %d: expired or unseen MAC %d refused", seed, step, id)
			}
			if err == nil {
				model[id] = accepted{at: now, highWater: highWater}
			}
			live := 0
			for _, a := range model {
				if highWater.Sub(a.highWater) < 3*w {
					live++
				}
			}
			if n := g.Len(); n > live {
				t.Fatalf("seed %d step %d: Len = %d, but only %d MACs were accepted within three windows", seed, step, n, live)
			}
		}
	}
}

// TestReplayGuardConcurrent hammers one guard from 8 goroutines that all
// present the same MACs, each starting elsewhere in the set: every MAC
// must be accepted exactly once. Run under -race by scripts/check.sh.
func TestReplayGuardConcurrent(t *testing.T) {
	const workers, macs = 8, 2000
	g := NewReplayGuard(time.Minute)
	now := time.Unix(1278000000, 0)
	var accepts [macs]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < macs; i++ {
				id := (i + w*macs/workers) % macs
				switch err := g.Check(testMAC(id), now, now.Add(time.Duration(i)*time.Millisecond)); err {
				case nil:
					accepts[id].Add(1)
				case ErrReplay:
				default:
					t.Errorf("MAC %d: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	for id := range accepts {
		if n := accepts[id].Load(); n != 1 {
			t.Fatalf("MAC %d accepted %d times", id, n)
		}
	}
	if g.Len() != macs {
		t.Fatalf("Len = %d, want %d", g.Len(), macs)
	}
}

// fillGuard returns a guard holding n live entries at a standing clock,
// and a Check of a fresh MAC against it. With n == 1 the clock instead
// leaps three windows per call, so every call resets the guard — the
// shape of bench's macauth.replay_check_empty_ns rung.
func fillGuard(tb testing.TB, n int) (check func() error) {
	const w = 2 * time.Minute
	g := NewReplayGuard(w)
	clock := time.Unix(1278000000, 0)
	next := 0
	check = func() error {
		if n == 1 {
			clock = clock.Add(3 * w)
		}
		next++
		return g.Check(testMAC(next), clock, clock)
	}
	for i := 0; i < n; i++ {
		if err := check(); err != nil {
			tb.Fatal(err)
		}
	}
	return check
}

// TestReplayGuardCostIsFlat keeps the per-Check walk of every live entry
// from coming back unnoticed: with 65 536 entries that walk costs about
// 2 000 × a Check against one entry; three map probes stay within a few ×.
func TestReplayGuardCostIsFlat(t *testing.T) {
	perCheck := func(n int) time.Duration {
		check := fillGuard(t, n)
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			const calls = 2000
			start := time.Now()
			for i := 0; i < calls; i++ {
				if err := check(); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start) / calls; d < best {
				best = d
			}
		}
		return best
	}
	one, full := perCheck(1), perCheck(65536)
	t.Logf("Check: %v with one entry, %v with 65 536", one, full)
	if full > 20*one {
		t.Fatalf("Check costs %v with 65 536 live entries against %v with one: more than 20×", full, one)
	}
}

func BenchmarkReplayGuardCheck(b *testing.B) {
	for _, n := range []int{1, 8192, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			check := fillGuard(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayGuardCheckParallel is the contention check behind keeping
// one mutex: GOMAXPROCS goroutines (two connections' worth on the bench
// host) share a guard of 8 192 live entries.
func BenchmarkReplayGuardCheckParallel(b *testing.B) {
	g := NewReplayGuard(2 * time.Minute)
	now := time.Unix(1278000000, 0)
	for i := 0; i < 8192; i++ {
		if err := g.Check(testMAC(i), now, now); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	next.Store(8192)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := g.Check(testMAC(int(next.Add(1))), now, now); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
