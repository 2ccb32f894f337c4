package macauth

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"mwskit/internal/storage"
)

func TestComputeVerify(t *testing.T) {
	key := bytes.Repeat([]byte{7}, KeyLen)
	parts := [][]byte{[]byte("rP"), []byte("C"), []byte("A||nonce"), []byte("meter-1"), []byte("1278000000")}
	mac := Compute(key, parts...)
	if !Verify(key, mac, parts...) {
		t.Fatal("MAC failed to verify")
	}
	// Any part change must break verification.
	for i := range parts {
		mutated := make([][]byte, len(parts))
		copy(mutated, parts)
		mutated[i] = append([]byte(nil), parts[i]...)
		if len(mutated[i]) == 0 {
			mutated[i] = []byte{1}
		} else {
			mutated[i][0] ^= 1
		}
		if Verify(key, mac, mutated...) {
			t.Fatalf("MAC verified despite mutated part %d", i)
		}
	}
	// Wrong key.
	if Verify(bytes.Repeat([]byte{8}, KeyLen), mac, parts...) {
		t.Fatal("MAC verified under wrong key")
	}
}

func TestComputeBoundaryUnambiguity(t *testing.T) {
	key := bytes.Repeat([]byte{1}, KeyLen)
	// ("ab","c") must MAC differently from ("a","bc") — fields are
	// length-prefixed precisely to prevent splice attacks.
	m1 := Compute(key, []byte("ab"), []byte("c"))
	m2 := Compute(key, []byte("a"), []byte("bc"))
	if bytes.Equal(m1, m2) {
		t.Fatal("part boundaries are ambiguous")
	}
}

// openKeyService builds a key service over a standalone KV at dir;
// closeKV releases the KV (also run at test cleanup, where a second close
// is harmless).
func openKeyService(t *testing.T, dir string) (ks *KeyService, closeKV func() error) {
	t.Helper()
	kv, err := storage.OpenKV(dir, storage.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return NewKeyService(kv), kv.Close
}

func TestKeyServiceRegisterAndLookup(t *testing.T) {
	ks, _ := openKeyService(t, t.TempDir())
	key, err := ks.Register("meter-1", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != KeyLen {
		t.Fatalf("key length %d", len(key))
	}
	got, ok := ks.Key("meter-1")
	if !ok || !bytes.Equal(got, key) {
		t.Fatal("stored key mismatch")
	}
	if _, ok := ks.Key("meter-2"); ok {
		t.Fatal("unknown device has a key")
	}
	if _, err := ks.Register("meter-1", rand.Reader); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := ks.Register("", rand.Reader); err == nil {
		t.Fatal("empty device ID accepted")
	}
}

// TestRegisterFailedDrawReturnsNoKey: a key draw that cannot fill the
// key — a reader that runs dry after 5 bytes, or one that errors —
// returns a nil key with the error, never the partly filled slice, and
// registers nothing.
func TestRegisterFailedDrawReturnsNoKey(t *testing.T) {
	ks, _ := openKeyService(t, t.TempDir())
	for name, r := range map[string]io.Reader{
		"short":    io.LimitReader(rand.Reader, 5),
		"erroring": iotest.ErrReader(errors.New("entropy source down")),
	} {
		key, err := ks.Register("meter-1", r)
		if err == nil || key != nil {
			t.Fatalf("%s reader: Register = %d-byte key, %v; want no key and an error", name, len(key), err)
		}
		if _, ok := ks.Key("meter-1"); ok {
			t.Fatalf("%s reader: a failed draw registered a key", name)
		}
	}
}

func TestKeyServiceRevoke(t *testing.T) {
	ks, _ := openKeyService(t, t.TempDir())
	if _, err := ks.Register("meter-1", rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := ks.Revoke("meter-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ks.Key("meter-1"); ok {
		t.Fatal("revoked device still has a key")
	}
}

func TestKeyServiceDurability(t *testing.T) {
	dir := t.TempDir()
	ks, closeKV := openKeyService(t, dir)
	key, err := ks.Register("meter-1", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeKV(); err != nil {
		t.Fatal(err)
	}
	ks2, _ := openKeyService(t, dir)
	got, ok := ks2.Key("meter-1")
	if !ok || !bytes.Equal(got, key) {
		t.Fatal("device key lost across reopen")
	}
}

func TestReplayGuard(t *testing.T) {
	g := NewReplayGuard(time.Minute)
	now := time.Unix(1278000000, 0)
	mac := []byte("mac-bytes-1")

	if err := g.Check(mac, now, now); err != nil {
		t.Fatalf("fresh message rejected: %v", err)
	}
	if err := g.Check(mac, now, now.Add(time.Second)); err != ErrReplay {
		t.Fatalf("replay: err = %v, want ErrReplay", err)
	}
	// Different MAC passes.
	if err := g.Check([]byte("mac-bytes-2"), now, now); err != nil {
		t.Fatalf("distinct message rejected: %v", err)
	}
	// Stale timestamp rejected before cache insert.
	old := now.Add(-5 * time.Minute)
	if err := g.Check([]byte("mac-old"), old, now); err != ErrStale {
		t.Fatalf("stale: err = %v, want ErrStale", err)
	}
	// Future timestamp beyond skew rejected.
	future := now.Add(5 * time.Minute)
	if err := g.Check([]byte("mac-future"), future, now); err != ErrStale {
		t.Fatalf("future: err = %v, want ErrStale", err)
	}
}

func TestReplayGuardPruning(t *testing.T) {
	g := NewReplayGuard(time.Minute)
	base := time.Unix(1278000000, 0)
	for i := 0; i < 100; i++ {
		mac := []byte{byte(i)}
		if err := g.Check(mac, base, base); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 100 {
		t.Fatalf("cache size %d", g.Len())
	}
	// Far in the future, old entries are pruned on the next check.
	later := base.Add(10 * time.Minute)
	if err := g.Check([]byte("new"), later, later); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("cache not pruned: %d entries", g.Len())
	}
}
