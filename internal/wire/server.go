package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"mwskit/internal/obsv"
)

// Handler answers one request frame with one response frame. The context
// carries the server's base context (canceled when the server closes),
// the peer address (see Peer), and any deadline installed by middleware.
// A Handler cannot fail the connection: every outcome, including an
// internal error, is expressed as a response frame — use ErrorFrame or a
// Router (whose typed routes map handler errors to TError frames). The
// connection closes only on transport errors or peer/server shutdown.
type Handler interface {
	Handle(ctx context.Context, f Frame) Frame
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, f Frame) Frame

// Handle calls the wrapped function.
func (fn HandlerFunc) Handle(ctx context.Context, f Frame) Frame { return fn(ctx, f) }

// ErrorFrame builds a TError response.
func ErrorFrame(code uint32, format string, args ...any) Frame {
	msg := &ErrorMsg{Code: code, Message: fmt.Sprintf(format, args...)}
	return Frame{Type: TError, Payload: msg.Marshal()}
}

// peerKey carries the remote address in the request context.
type peerKey struct{}

// Peer returns the remote address of the connection that produced the
// request, or nil when the handler was invoked without a server (tests,
// in-process dispatch).
func Peer(ctx context.Context) net.Addr {
	a, _ := ctx.Value(peerKey{}).(net.Addr)
	return a
}

// ServerOption tunes a Server.
type ServerOption func(*Server)

// WithIdleTimeout bounds how long a connection may sit between frames and
// how slowly a peer may dribble one in or drain one out: the read deadline
// is re-armed before each frame read, the write deadline before each
// response. Non-positive means no bound.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithMaxConns caps concurrently served connections. A connection over the
// cap receives a CodeUnavailable error frame and is closed immediately,
// so a flood degrades into fast rejections instead of unbounded
// goroutines. Non-positive means no cap.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// Server accepts connections and serves request/response frames; a
// connection may carry many sequential requests.
type Server struct {
	handler Handler
	logger  *slog.Logger

	idleTimeout time.Duration
	maxConns    int

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer builds a server around a handler. A nil logger discards logs.
func NewServer(h Handler, logger *slog.Logger, opts ...ServerOption) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	//mwslint:ignore ctxflow the server base context is the root of every request context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		handler:    h,
		logger:     logger,
		baseCtx:    ctx,
		cancelBase: cancel,
		conns:      make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Listen binds to addr ("127.0.0.1:0" for an ephemeral test port) and
// starts serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, errors.New("wire: server closed")
	}
	s.listener = l
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// rejectConn tells an over-cap peer why it is being dropped, bounded so a
// stalled peer cannot wedge the accept loop.
func (s *Server) rejectConn(conn net.Conn) {
	s.logger.Warn("wire: connection limit reached", "peer", conn.RemoteAddr())
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	bw := bufio.NewWriter(conn)
	if err := WriteFrame(bw, ErrorFrame(CodeUnavailable, "server at connection capacity")); err == nil {
		bw.Flush()
	}
	conn.Close()
}

// countingReader / countingWriter sit between the bufio layer and the
// socket so the conn_in/out_bytes counters measure actual transport
// traffic (headers included), not payload sizes.
type countingReader struct{ r io.Reader }

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	obsv.AddConnInBytes(n)
	return n, err
}

type countingWriter struct{ w io.Writer }

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	obsv.AddConnOutBytes(n)
	return n, err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ctx := context.WithValue(s.baseCtx, peerKey{}, conn.RemoteAddr())
	br := bufio.NewReader(countingReader{r: conn})
	bw := bufio.NewWriter(countingWriter{w: conn})
	for {
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		req, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logger.Debug("wire: read frame", "peer", conn.RemoteAddr(), "err", err)
			}
			return
		}
		var resp Frame
		func() {
			// Transport-level backstop: services are expected to install
			// the Recover middleware, but a bare Handler must not be able
			// to take the connection loop down either.
			defer func() {
				if r := recover(); r != nil {
					s.logger.Error("wire: handler panic", "type", req.Type, "panic", r)
					resp = ErrorFrame(CodeInternal, "internal error")
				}
			}()
			resp = s.handler.Handle(ctx, req)
		}()
		if s.idleTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.idleTimeout))
		}
		if err := WriteFrame(bw, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// ConnCount reports the number of live connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, cancels the base context so in-flight handlers
// observe shutdown, closes every live connection, and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancelBase()
	s.wg.Wait()
	return err
}

// Client is a frame-oriented connection to a Server. Round trips are
// serialized, so one Client can be shared across goroutines.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// broken is the transport error that ended a round trip part-way. The
	// stream may then hold half a request or a late response, so every
	// later call fails with it rather than read an answer that belongs to
	// an earlier request.
	broken error
}

// Dial connects to a wire server. Callers that own a context (anything on
// a request path) should use DialContext so cancellation reaches the dial.
func Dial(addr string) (*Client, error) {
	//mwslint:ignore ctxflow context-free convenience shim for tools and tests; request paths use DialContext
	return DialContext(context.Background(), addr)
}

// DialContext connects with a context governing the dial.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// Do sends a request frame and reads the response frame. A TError
// response is decoded and returned as *ErrorMsg. It is the raw layer
// under Call, which is how everything outside this package and its
// measurements performs an op.
func (c *Client) Do(req Frame) (Frame, error) { return c.roundTrip(time.Time{}, req) }

// roundTrip is the one request/response exchange, bounded by deadline
// unless that is zero. A transport error — the deadline passing mid-read
// included — breaks the client for good.
func (c *Client) roundTrip(deadline time.Time, req Frame) (Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return Frame{}, fmt.Errorf("wire: connection broken by an earlier round trip: %w", c.broken)
	}
	if !deadline.IsZero() {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	resp, err := c.exchange(req)
	if err != nil {
		c.broken = err
		return Frame{}, err
	}
	if resp.Type == TError {
		em, derr := UnmarshalErrorMsg(resp.Payload)
		if derr != nil {
			return Frame{}, fmt.Errorf("wire: undecodable error response: %w", derr)
		}
		return Frame{}, em
	}
	return resp, nil
}

func (c *Client) exchange(req Frame) (Frame, error) {
	if err := WriteFrame(c.bw, req); err != nil {
		return Frame{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Frame{}, err
	}
	return ReadFrame(c.br)
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
