package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// Doer is the client surface shared by the TCP connection and the
// in-process client; the load generator drives either interchangeably.
type Doer interface {
	// Do submits one request and blocks for its response. The client owns
	// correlation-id assignment; Request.ID is overwritten.
	Do(req Request) (Response, error)
	// Close releases the client. In-flight Do calls fail.
	Close() error
}

// InProc is a direct in-process client of a Server — the zero-copy,
// zero-framing path the equivalence tests and in-process load generation
// use. Its Do goes through exactly the same admission, batching, and
// execution pipeline as a TCP request.
type InProc struct {
	srv    *Server
	client string // admission-control identity, unique per InProc
	mu     sync.Mutex
	id     uint64
}

// InProc returns an in-process client of this server. Each client gets
// its own admission-control identity, mirroring the per-connection
// identity TCP clients get from their remote address.
func (s *Server) InProc() *InProc {
	return &InProc{srv: s, client: fmt.Sprintf("inproc-%d", s.inprocSeq.Add(1))}
}

// Do implements Doer.
func (c *InProc) Do(req Request) (Response, error) {
	c.mu.Lock()
	c.id++
	req.ID = c.id
	c.mu.Unlock()
	return <-c.srv.submit(c.client, req, nil), nil
}

// Close implements Doer (nothing to release in-process).
func (c *InProc) Close() error { return nil }

// DoBatch submits requests as preformed accelerator batches: consecutive
// requests sharing a (schema, op) run as one batch (split at MaxBatch),
// bypassing the time-window coalescer. Batch composition is therefore a
// pure function of the request list — independent of worker count and
// scheduling — which is what lets the equivalence tests demand bitwise
// identical responses and telemetry from serial and parallel servers.
// Responses are returned in request order.
func (c *InProc) DoBatch(reqs []Request) ([]Response, error) {
	chans := make([]<-chan Response, len(reqs))
	var group []*pending
	var key batchKey
	flush := func() {
		if len(group) > 0 {
			c.srv.submitPreformed(group, key)
			group = nil
		}
	}
	for i := range reqs {
		c.mu.Lock()
		c.id++
		reqs[i].ID = c.id
		c.mu.Unlock()
		p, ok := c.srv.admit(c.client, reqs[i], nil)
		chans[i] = p.resp
		if !ok {
			continue
		}
		k := batchKey{schema: reqs[i].Schema, op: reqs[i].Op}
		if len(group) > 0 && (k != key || len(group) >= c.srv.opts.MaxBatch) {
			flush()
		}
		key = k
		group = append(group, p)
	}
	flush()
	out := make([]Response, len(reqs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out, nil
}

// Sentinel errors a Conn surfaces to callers. Each wraps into the
// errors returned from Do, so callers test with errors.Is.
var (
	// ErrTimeout reports a request whose per-request wait budget expired
	// with no response. The connection stays usable: the daemon may still
	// answer the abandoned id later, and the read loop drops it.
	ErrTimeout = errors.New("serve: request timed out")
	// ErrClosed reports a Conn used after Close, or one whose transport
	// died. A broken Conn never recovers — reconnecting is the caller's
	// (or the cluster balancer's) job, so redial policy stays explicit
	// rather than hidden inside a client that silently re-sends.
	ErrClosed = errors.New("serve: connection closed")
	// ErrTooLarge reports a request whose frame would exceed the
	// protocol's 64 MiB message limit. Do refuses it before writing any
	// byte, so the connection stays usable and the refusal says nothing
	// about the peer.
	ErrTooLarge = errors.New("serve: message exceeds the frame limit")
)

// DialOptions tunes a Conn.
type DialOptions struct {
	// Timeout bounds every Do call end to end. Zero defers to the
	// per-request budget: Request.Timeout (plus requestGrace for the
	// round trip) when set, otherwise the wait is unbounded — the legacy
	// behavior, for callers who manage their own deadlines.
	Timeout time.Duration
}

const (
	// requestGrace is added to Request.Timeout when it (and not
	// DialOptions.Timeout) bounds the wait, covering queueing and the
	// wire round trip beyond the server-side budget.
	requestGrace = time.Second

	// clientWriteTimeout bounds each request write on the socket. A
	// stalled write — a SIGSTOPped daemon with full TCP buffers — would
	// otherwise hold the write lock forever and wedge every other Do on
	// the connection; on expiry the Conn is failed, waking all waiters.
	clientWriteTimeout = 10 * time.Second
)

// Conn is a TCP client connection. It multiplexes: many goroutines may Do
// concurrently, and responses are matched to callers by correlation id as
// they complete (the server reorders freely across batches).
//
// Requests are coalesced: Do frames its request into a shared buffer,
// and whichever caller finds no flush in progress yields once, so the
// callers woken by the same read frame theirs too, then writes the buffer
// — plus everything other callers frame meanwhile — one Write per round
// until it is empty. A failed flush kills the Conn, failing every waiter.
type Conn struct {
	conn    net.Conn
	timeout time.Duration // DialOptions.Timeout
	// grace and writeTimeout are requestGrace and clientWriteTimeout;
	// tests shorten them.
	grace, writeTimeout time.Duration

	writeMu  sync.Mutex
	nextID   uint64
	wbuf     []byte // framed requests waiting for the next flush round
	spare    []byte // the buffer the last round wrote, reused by the next
	flushing bool   // a caller is writing; it drains wbuf before it stops

	mu       sync.Mutex
	pend     map[uint64]chan Response
	readErr  error
	closed   bool
	done     chan struct{} // closed when the read loop dies; waiters select on it
	readGone chan struct{} // closed when the read loop has returned

	closeOnce sync.Once
	closeErr  error
}

// Dial connects to a protoaccd at addr with default options.
func Dial(addr string) (*Conn, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects to a protoaccd at addr.
func DialWith(addr string, opts DialOptions) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(nc, opts), nil
}

// newConn starts a Conn over an established transport.
func newConn(nc net.Conn, opts DialOptions) *Conn {
	c := &Conn{
		conn:         nc,
		timeout:      opts.Timeout,
		grace:        requestGrace,
		writeTimeout: clientWriteTimeout,
		pend:         make(map[uint64]chan Response),
		done:         make(chan struct{}),
		readGone:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop routes response messages to waiting callers until the
// connection dies, then fails everything still pending. Responses whose
// waiter already gave up (timeout) are dropped.
func (c *Conn) readLoop() {
	defer close(c.readGone)
	r := bufio.NewReaderSize(c.conn, connBufSize)
	for {
		body, err := readFrame(r, maxFrame)
		if err == nil {
			var resp Response
			resp, err = parseResponse(body)
			if err == nil {
				c.mu.Lock()
				ch := c.pend[resp.ID]
				delete(c.pend, resp.ID)
				c.mu.Unlock()
				if ch != nil {
					ch <- resp
				}
				continue
			}
		}
		c.mu.Lock()
		c.readErr = err
		c.pend = make(map[uint64]chan Response)
		c.mu.Unlock()
		// Waiters are buffered(1) channels; closing done (not their
		// channels) wakes them so they can distinguish "connection died"
		// from a zero-value response.
		close(c.done)
		return
	}
}

// Broken reports whether the connection is dead (transport error or
// closed) and can never carry another request. The cluster balancer polls
// this to decide when a node needs a redial.
func (c *Conn) Broken() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// brokenErr builds the caller-facing error for a dead connection.
func (c *Conn) brokenErr() error {
	c.mu.Lock()
	err := c.readErr
	closed := c.closed
	c.mu.Unlock()
	if closed || err == nil || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("serve: connection broken: %w", err)
}

// waitBudget returns the wait bound for one request: the dial-time
// Timeout if set, else the request's own budget plus the grace, else
// zero (unbounded).
func (c *Conn) waitBudget(req *Request) time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	if req.Timeout > 0 {
		return req.Timeout + c.grace
	}
	return 0
}

// Do implements Doer over the wire protocol. The wait is bounded by
// waitBudget; on expiry the caller gets ErrTimeout and the connection
// stays usable (a late response to the abandoned id is dropped by the
// read loop). A request too large to frame is rejected before any byte
// of it is written, and the connection stays usable. A failed write
// returns its error, unless Close tore the transport down under it:
// then Do fails with ErrClosed, like every other waiter.
func (c *Conn) Do(req Request) (Response, error) {
	if c.Broken() {
		return Response{}, c.brokenErr()
	}
	ch := make(chan Response, 1)

	c.writeMu.Lock()
	if c.Broken() { // may have died while we queued for the lock
		c.writeMu.Unlock()
		return Response{}, c.brokenErr()
	}
	req.ID = c.nextID + 1
	b, mark := beginMessage(c.wbuf)
	b, err := endMessage(appendRequest(b, &req), mark)
	c.wbuf = b
	if err != nil {
		c.writeMu.Unlock()
		return Response{}, fmt.Errorf("serve: request not sent: %w", err)
	}
	c.nextID = req.ID
	c.mu.Lock()
	c.pend[req.ID] = ch
	c.mu.Unlock()
	if c.flushing {
		c.writeMu.Unlock() // the flushing caller writes our request in its next round
	} else if err := c.flush(); err != nil {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed { // Close tore the transport down under the write
			return Response{}, ErrClosed
		}
		return Response{}, fmt.Errorf("serve: request write failed: %w", err)
	}

	var timeout <-chan time.Time
	if d := c.waitBudget(&req); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-timeout:
		c.mu.Lock()
		delete(c.pend, req.ID)
		c.mu.Unlock()
		// The read loop may have routed the response between the timer
		// firing and the delete; prefer the real answer.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		return Response{}, fmt.Errorf("serve: request %d: %w", req.ID, ErrTimeout)
	case <-c.done:
		// Drain a response that raced with the shutdown.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		return Response{}, c.brokenErr()
	}
}

// flush writes wbuf, and whatever other callers frame into it while a
// write is on the socket, one Write per round until wbuf is empty. Each
// round carries its own write deadline. Called with writeMu held; returns
// with it released. On a failed write — a partial frame desynchronizes
// the stream — the transport is closed before writeMu is released, so no
// later round can write after the partial frame, and flush returns once
// the read loop has failed every waiter. The first round waits out one
// runtime.Gosched: Go runs the first caller a read woke before the rest,
// so without the yield it writes alone; with it, the callers already
// runnable frame into this round. The server's writer needs none: its
// producers frame many responses before they block.
func (c *Conn) flush() error {
	c.flushing = true
	c.writeMu.Unlock()
	runtime.Gosched()
	c.writeMu.Lock()
	for len(c.wbuf) > 0 {
		out := c.wbuf
		c.wbuf = c.spare[:0]
		c.writeMu.Unlock()
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		_, err := c.conn.Write(out)
		c.writeMu.Lock()
		c.spare = reusable(out)
		if err != nil {
			c.conn.Close()
			c.wbuf = c.wbuf[:0]
			c.flushing = false
			c.writeMu.Unlock()
			<-c.readGone
			return err
		}
	}
	c.flushing = false
	c.writeMu.Unlock()
	return nil
}

// Close implements Doer. It is idempotent and safe to call concurrently
// with Do: the transport closes, the read loop exits failing every
// pending waiter, and Close returns only after the read loop is gone —
// so when Close returns, no Do call is still blocked on this Conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.closeErr = c.conn.Close()
		<-c.readGone
	})
	return c.closeErr
}
