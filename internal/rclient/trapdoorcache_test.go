package rclient

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// trapdoorPKG answers each Trapdoor request with the stand-in trapdoor
// "T:" + keyword sealed under one session key, and notes the keywords it
// was asked for. With tamper set, it flips the sealed reply's last byte,
// so the reply does not open.
type trapdoorPKG struct {
	conn *wire.Client

	mu     sync.Mutex
	asked  []string
	tamper bool
}

func newTrapdoorPKG(tb testing.TB, session []byte) *trapdoorPKG {
	tb.Helper()
	f := &trapdoorPKG{}
	f.conn = serveFake(tb, wire.Bind(wire.OpTrapdoor, func(_ context.Context, req *wire.TrapdoorRequest) (*wire.TrapdoorResponse, error) {
		kw, err := ticket.OpenTrapdoorPayload(session, req.SealedKeyword)
		if err != nil {
			return nil, err
		}
		sealed, err := ticket.SealTrapdoorPayload(session, stubTrapdoor(string(kw)))
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.asked = append(f.asked, string(kw))
		if f.tamper {
			sealed[len(sealed)-1] ^= 1
		}
		return &wire.TrapdoorResponse{SealedTrapdoor: sealed}, nil
	}))
	return f
}

func stubTrapdoor(keyword string) []byte { return []byte("T:" + keyword) }

// take returns the keywords asked for since the last take.
func (f *trapdoorPKG) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	asked := f.asked
	f.asked = nil
	return asked
}

func (f *trapdoorPKG) setTamper(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tamper = on
}

// trapdoorClient is a client with a retrieval whose token carries the
// PKG's session key, and a second retrieval whose token does not unwrap.
func trapdoorClient(t testing.TB) (*Client, *trapdoorPKG, *Retrieval, *Retrieval) {
	t.Helper()
	p, _, rsaKey := env(t)
	c := &Client{id: "rc", priv: rsaKey, params: p, now: time.Now}
	good := &Retrieval{}
	pkg := newTrapdoorPKG(t, sealToken(t, c, good))
	return c, pkg, good, &Retrieval{tokenBlob: corruptToken(good.tokenBlob)}
}

// fetch fetches keyword's trapdoor through r and fails unless it is the
// PKG's and the PKG was asked exactly for asked meanwhile.
func fetch(t *testing.T, c *Client, pkg *trapdoorPKG, r *Retrieval, keyword string, asked ...string) []byte {
	t.Helper()
	td, err := c.FetchTrapdoor(pkg.conn, r, keyword)
	if err != nil {
		t.Fatalf("trapdoor for %q: %v", keyword, err)
	}
	if !bytes.Equal(td, stubTrapdoor(keyword)) {
		t.Fatalf("trapdoor for %q is %q", keyword, td)
	}
	if got := pkg.take(); strings.Join(got, ",") != strings.Join(asked, ",") {
		t.Fatalf("trapdoor for %q asked the PKG for %q, want %q", keyword, got, asked)
	}
	return td
}

// TestTrapdoorCacheHit: a keyword's second fetch sends the PKG no frame
// and unwraps no token — it succeeds through a retrieval whose token is
// corrupt — while another keyword needs both. The bytes returned are a
// copy: changing them does not change the next answer.
func TestTrapdoorCacheHit(t *testing.T) {
	c, pkg, good, corrupt := trapdoorClient(t)
	td := fetch(t, c, pkg, good, "outage", "outage")
	td[0] ^= 1
	td = fetch(t, c, pkg, corrupt, "outage")
	td[0] ^= 1
	fetch(t, c, pkg, corrupt, "outage")
	if _, err := c.FetchTrapdoor(pkg.conn, corrupt, "alert"); err == nil || !strings.HasPrefix(err.Error(), "rclient: token: ") {
		t.Fatalf("an uncached keyword under a corrupt token: %v, want the rclient: token: error", err)
	}
	fetch(t, c, pkg, good, "alert", "alert")
	fetch(t, c, pkg, corrupt, "alert")
}

// TestTrapdoorCacheAdmitsOnlyOpenedReplies: a PKG reply that does not
// open under the session key fails the fetch and caches nothing, so the
// next fetch of the keyword asks the PKG again.
func TestTrapdoorCacheAdmitsOnlyOpenedReplies(t *testing.T) {
	c, pkg, good, _ := trapdoorClient(t)
	pkg.setTamper(true)
	if _, err := c.FetchTrapdoor(pkg.conn, good, "outage"); err == nil || !strings.HasPrefix(err.Error(), "rclient: sealed trapdoor: ") {
		t.Fatalf("a reply that does not open: %v", err)
	}
	pkg.take()
	pkg.setTamper(false)
	fetch(t, c, pkg, good, "outage", "outage")
}

// TestTrapdoorCacheBounded: past trapdoorCacheSize keywords the least
// recently used one is dropped and fetched from the PKG again; a keyword
// answered from the cache since counts as recently used.
func TestTrapdoorCacheBounded(t *testing.T) {
	c, pkg, good, _ := trapdoorClient(t)
	kw := func(i int) string { return fmt.Sprintf("kw-%d", i) }
	for i := range trapdoorCacheSize {
		fetch(t, c, pkg, good, kw(i), kw(i))
	}
	fetch(t, c, pkg, good, kw(0))
	fetch(t, c, pkg, good, kw(trapdoorCacheSize), kw(trapdoorCacheSize))
	fetch(t, c, pkg, good, kw(0))
	fetch(t, c, pkg, good, kw(1), kw(1))
}

// TestTrapdoorCacheConcurrent: fetches of one keyword racing on a cold
// cache all return the PKG's trapdoor (run under -race).
func TestTrapdoorCacheConcurrent(t *testing.T) {
	c, pkg, good, _ := trapdoorClient(t)
	var wg sync.WaitGroup
	tds := make([][]byte, 8)
	errs := make([]error, len(tds))
	for i := range tds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tds[i], errs[i] = c.FetchTrapdoor(pkg.conn, good, "outage")
		}()
	}
	wg.Wait()
	for i, td := range tds {
		if errs[i] != nil || !bytes.Equal(td, stubTrapdoor("outage")) {
			t.Fatalf("fetch %d: %q, %v", i, td, errs[i])
		}
	}
	if asked := pkg.take(); len(asked) == 0 || len(asked) > len(tds) {
		t.Fatalf("%d racing fetches asked the PKG %d times", len(tds), len(asked))
	}
	fetch(t, c, pkg, good, "outage")
}

// BenchmarkFetchTrapdoor is a search's trapdoor fetch against a PKG on
// loopback that does no arithmetic. cold asks for a keyword the client
// does not hold: one sealed request and reply. cached asks again for one
// it holds, which sends no frame and reads in nanoseconds to a few µs;
// cached ≈ cold means the cache missed.
func BenchmarkFetchTrapdoor(b *testing.B) {
	c, pkg, good, _ := trapdoorClient(b)
	b.Run("cold", func(b *testing.B) {
		i := 0
		for b.Loop() {
			i++
			if _, err := c.FetchTrapdoor(pkg.conn, good, fmt.Sprintf("cold-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := c.FetchTrapdoor(pkg.conn, good, "outage"); err != nil {
			b.Fatal(err)
		}
		pkg.take()
		for b.Loop() {
			if _, err := c.FetchTrapdoor(pkg.conn, good, "outage"); err != nil {
				b.Fatal(err)
			}
		}
		if asked := pkg.take(); len(asked) != 0 {
			b.Fatalf("cached fetches asked the PKG %d times", len(asked))
		}
	})
}
