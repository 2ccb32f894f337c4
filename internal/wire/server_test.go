package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerManyParallelClients hammers one server from many connections
// at once; run with -race to exercise the accept/serve/close paths.
func TestServerManyParallelClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		if Peer(ctx) == nil {
			return ErrorFrame(CodeInternal, "no peer in context")
		}
		return Frame{Type: TPong, Payload: f.Payload}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, reqs = 16, 50
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c, err := Dial(addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < reqs; i++ {
				want := []byte(fmt.Sprintf("%d-%d", g, i))
				resp, err := c.Do(Frame{Type: TPing, Payload: want})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(resp.Payload, want) {
					errs <- fmt.Errorf("client %d req %d: payload mismatch", g, i)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerPanicMidStream panics on some requests of a connection and
// checks the same connection keeps serving afterwards: a handler panic is
// a response, not a disconnect.
func TestServerPanicMidStream(t *testing.T) {
	var n atomic.Int64
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		if n.Add(1)%2 == 0 {
			panic("every other request explodes")
		}
		return Frame{Type: TPong}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		resp, err := c.Do(Frame{Type: TPing})
		if i%2 == 0 {
			if err != nil || resp.Type != TPong {
				t.Fatalf("req %d: %+v, %v", i, resp, err)
			}
			continue
		}
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != CodeInternal {
			t.Fatalf("req %d: err = %v, want internal error", i, err)
		}
	}
}

// TestServerIdleDisconnect checks the idle deadline: a silent connection
// is dropped, while an active one with the same timing survives.
func TestServerIdleDisconnect(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TPong}
	}), nil, WithIdleTimeout(100*time.Millisecond))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	idle, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Do(Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}

	active, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	// Keep the active connection chatty at half the idle budget while the
	// idle one stays silent well past it.
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if _, err := active.Do(Frame{Type: TPing}); err != nil {
			t.Fatalf("active connection dropped at round %d: %v", i, err)
		}
	}
	if _, err := idle.Do(Frame{Type: TPing}); err == nil {
		t.Fatal("idle connection survived past the idle deadline")
	}
}

// TestServerCloseRacesInFlight closes the server while handlers are
// blocked in flight; Close must cancel their context, drain, and return
// without deadlocking (run with -race).
func TestServerCloseRacesInFlight(t *testing.T) {
	started := make(chan struct{}, 8)
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		started <- struct{}{}
		<-ctx.Done() // block until server shutdown cancels the base context
		return ErrorFrame(CodeUnavailable, "shutting down")
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr.String())
			if err != nil {
				return
			}
			defer c.Close()
			c.Do(Frame{Type: TPing}) // error expected: server closes mid-request
		}()
	}
	for g := 0; g < 4; g++ {
		<-started // every request is in flight inside its handler
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with in-flight requests")
	}
	wg.Wait()
	if srv.ConnCount() != 0 {
		t.Fatalf("conns after Close = %d", srv.ConnCount())
	}
}

// TestServerMaxConns verifies the in-flight connection cap: excess
// connections get a structured CodeUnavailable rejection, and capacity
// freed by a disconnect becomes usable again.
func TestServerMaxConns(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TPong}
	}), nil, WithMaxConns(1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Do(Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}

	second, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err) // TCP accept still succeeds; rejection is in-protocol
	}
	_, err = second.Do(Frame{Type: TPing})
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeUnavailable {
		t.Fatalf("over-cap err = %v, want CodeUnavailable", err)
	}
	second.Close()

	first.Close()
	// The slot frees asynchronously once the server reaps the connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr.String())
		if err == nil {
			if _, err = c.Do(Frame{Type: TPing}); err == nil {
				c.Close()
				return
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerStalledReaderReleasesSlot checks the write deadline: a peer
// that asks for a reply larger than the socket buffers and never reads it
// must not pin its goroutine and its max-conns slot past the idle bound.
func TestServerStalledReaderReleasesSlot(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TPong, Payload: make([]byte, MaxFrameLen)}
	}), nil, WithIdleTimeout(100*time.Millisecond), WithMaxConns(1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stalled, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := WriteFrame(stalled, Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}

	// Connections are accepted in the order they were made, so the next
	// one is refused for as long as the stalled one holds the only slot —
	// and is not served ahead of it if the server has yet to accept that.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(addr.String())
		if err == nil {
			_, err = c.Do(Frame{Type: TPing})
			c.Close()
		}
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled reader still holds its slot (%d live connections): %v", srv.ConnCount(), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerHelper covers the no-server path explicitly.
func TestPeerHelper(t *testing.T) {
	if Peer(context.Background()) != nil {
		t.Fatal("peer on bare context")
	}
	addr := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	ctx := context.WithValue(context.Background(), peerKey{}, net.Addr(addr))
	if Peer(ctx) != net.Addr(addr) {
		t.Fatal("peer not returned")
	}
}
