package mws

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/obsv"
	"mwskit/internal/storage"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wire"
)

// newStorageService builds a service over an explicit storage backend,
// reusing dir so a caller can close and reopen the same data.
func newStorageService(t *testing.T, dir string, opts storage.Options) (*Service, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1278000000, 0)}
	key := make([]byte, 32)
	copy(key, "0123456789abcdef0123456789abcdef")
	s, err := New(Config{
		Dir:       dir,
		MWSPKGKey: key,
		Sync:      storage.SyncNever,
		Now:       clock.Now,
		Storage:   opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

// TestServiceOverStorageBackends runs the deposit → policy → retrieve
// path over one shard, several, and the memory backend, then (for the
// durable ones) reopens the directory with zero options and checks
// nothing was lost.
func TestServiceOverStorageBackends(t *testing.T) {
	for name, opts := range map[string]storage.Options{
		"shards=1": {Shards: 1},
		"shards=4": {Backend: storage.BackendSharded, Shards: 4},
		"memory":   {Backend: storage.BackendMemory},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, clock := newStorageService(t, dir, opts)
			closed := false
			defer func() {
				if !closed {
					s.Close()
				}
			}()
			d := registerTestDevice(t, s, clock, "meter-1")
			login := enrollRC(t, s, clock, "c-services", []byte("pw"))
			attrs := []attr.Attribute{"ELECTRIC-A", "ELECTRIC-B", "WATER-C", "GAS-D"}
			for _, a := range attrs[:2] {
				if _, err := s.Grant("c-services", a); err != nil {
					t.Fatal(err)
				}
			}
			deposited := 0
			for i := 0; i < 12; i++ {
				req, err := d.PrepareDeposit(attrs[i%len(attrs)], []byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Deposit(context.Background(), req); err != nil {
					t.Fatal(err)
				}
				deposited++
				clock.Advance(time.Second)
			}
			if s.MessageCount() != deposited {
				t.Fatalf("MessageCount = %d, want %d", s.MessageCount(), deposited)
			}
			resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "c-services", AuthBlob: login()})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Items) != 6 {
				t.Fatalf("retrieved %d items, want 6 (two of four attributes granted)", len(resp.Items))
			}
			for i := 1; i < len(resp.Items); i++ {
				if resp.Items[i-1].Seq >= resp.Items[i].Seq {
					t.Fatal("items not in sequence order")
				}
			}
			if opts.Backend == storage.BackendMemory {
				return
			}

			// Reopen with zero options: the directory pins its shard count.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			closed = true
			re, clock2 := newStorageService(t, dir, storage.Options{})
			defer re.Close()
			if got := re.Store().Shards(); got != opts.Shards {
				t.Fatalf("reopened shards = %d, want %d", got, opts.Shards)
			}
			if re.MessageCount() != deposited {
				t.Fatalf("reopened MessageCount = %d, want %d", re.MessageCount(), deposited)
			}
			// Fresh replay window; the device shares the first clock, so
			// keep both in step for the post-reopen deposit below.
			clock.Advance(time.Hour)
			clock2.Advance(time.Hour)
			login2 := mintLogin(t, clock2, "c-services", []byte("pw"))
			resp2, err := re.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "c-services", AuthBlob: login2})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp2.Items) != 6 {
				t.Fatalf("reopened retrieve = %d items, want 6", len(resp2.Items))
			}
			// Device keys survived too: deposits still authenticate.
			req, _ := d.PrepareDeposit("ELECTRIC-A", []byte("post-reopen"))
			if _, err := re.Deposit(context.Background(), req); err != nil {
				t.Fatalf("post-reopen deposit: %v", err)
			}
		})
	}
}

// mintLogin mints a login blob for an already-registered RC (used after
// service reopens, where enrollRC's RegisterClient would collide).
func mintLogin(t *testing.T, clock *fakeClock, id string, password []byte) []byte {
	t.Helper()
	cred := userdb.CredentialKey(id, password)
	blob, err := ticket.SealAuthenticator(cred, &ticket.Authenticator{RC: id, Timestamp: clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestAutoCompaction churns the policy store far past the mutation
// threshold and verifies the background sweep rewrites it and bumps the
// store_compactions counter.
func TestAutoCompaction(t *testing.T) {
	s, clock := newStorageService(t, t.TempDir(), storage.Options{})
	defer s.Close()
	enrollRC(t, s, clock, "rc", []byte("pw"))
	// Each Grant+Revoke pair logs ≥3 mutations; 100 rounds ≫ the live key
	// count (~1), so the heuristic must fire.
	for i := 0; i < 100; i++ {
		if _, err := s.Grant("rc", "A1"); err != nil {
			t.Fatal(err)
		}
		if err := s.Revoke("rc", "A1"); err != nil {
			t.Fatal(err)
		}
	}
	before := obsv.CounterMap()["store_compactions"]
	n, err := s.CompactStores(50)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("explicit compaction found nothing to do after heavy churn")
	}
	if got := obsv.CounterMap()["store_compactions"]; got != before+uint64(n) {
		t.Fatalf("store_compactions = %d, want %d", got, before+uint64(n))
	}

	// Now the background sweep: churn again and let the ticker catch it.
	for i := 0; i < 100; i++ {
		if _, err := s.Grant("rc", "A1"); err != nil {
			t.Fatal(err)
		}
		if err := s.Revoke("rc", "A1"); err != nil {
			t.Fatal(err)
		}
	}
	mark := obsv.CounterMap()["store_compactions"]
	s.StartAutoCompact(2*time.Millisecond, 50)
	deadline := time.Now().Add(5 * time.Second)
	for obsv.CounterMap()["store_compactions"] == mark {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction did not run within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// StartAutoCompact is idempotent-replaceable and Close stops it.
	s.StartAutoCompact(time.Hour, 50)
}

// waitSweeps polls until exactly want goroutines run StartAutoCompact's
// sweep loop (matched by its closure's name, which inlining may prefix).
// A stopped sweep closes its done channel a hair before it returns, so an
// instantaneous count can still see it.
func waitSweeps(t *testing.T, want int) {
	t.Helper()
	count := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "StartAutoCompact.func")
	}
	deadline := time.Now().Add(5 * time.Second)
	for count() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d auto-compact sweeps running, want %d", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoCompactExitsOnClose pins what TestAutoCompaction only claims:
// a second StartAutoCompact stops the sweep it replaces, and Close stops
// the last one, so no sweep goroutine outlives the service.
func TestAutoCompactExitsOnClose(t *testing.T) {
	s, _ := newStorageService(t, t.TempDir(), storage.Options{})
	waitSweeps(t, 0)
	s.StartAutoCompact(time.Hour, 50)
	s.StartAutoCompact(time.Hour, 50)
	waitSweeps(t, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitSweeps(t, 0)
}
