package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeDaemon listens on loopback and hands every accepted connection to
// handle; it stands in for a protoaccd that is hung, half-dead, or
// otherwise misbehaving in ways a real server won't reproduce on demand.
func fakeDaemon(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(nc)
		}
	}()
	return ln.Addr().String()
}

// readAndHold consumes inbound messages forever without ever answering —
// a daemon that accepted the request and then hung.
func readAndHold(nc net.Conn) {
	for {
		if _, err := readFrame(nc, maxFrame); err != nil {
			nc.Close()
			return
		}
	}
}

// Regression: Conn.Do used to wait forever on a server that never
// responds. The dial-level Timeout must bound the wait, return ErrTimeout,
// and leave the connection usable for later requests.
func TestConnDoTimeoutSlowServer(t *testing.T) {
	addr := fakeDaemon(t, readAndHold)
	conn, err := DialWith(addr, DialOptions{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	_, err = conn.Do(Request{Op: OpDeserialize, Schema: "varint"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Do against a hung server: err = %v, want ErrTimeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v, want ~150ms", waited)
	}
	if conn.Broken() {
		t.Error("a request timeout must not kill the connection")
	}
	// The abandoned id must no longer be registered: pend would otherwise
	// leak one channel per timed-out request.
	conn.mu.Lock()
	n := len(conn.pend)
	conn.mu.Unlock()
	if n != 0 {
		t.Errorf("%d pending waiters leaked after timeout", n)
	}
}

// The per-request budget (Request.Timeout + grace) must bound the wait
// when no dial-level Timeout is set.
func TestConnDoTimeoutFromRequestBudget(t *testing.T) {
	addr := fakeDaemon(t, readAndHold)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.grace = 100 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint", Timeout: 50 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do ignored the per-request budget")
	}
}

// Regression: a daemon dying mid-flight used to be survivable only
// because readLoop failed the pend map — but callers with no timeout
// depended entirely on that one path. The waiter must get an error
// promptly, and later Do calls must fail fast with ErrClosed semantics
// instead of touching the dead socket.
func TestConnDaemonDiesMidFlight(t *testing.T) {
	addr := fakeDaemon(t, func(nc net.Conn) {
		// Accept the request, then die without answering.
		readFrame(nc, maxFrame)
		nc.Close()
	})
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Do returned success from a daemon that died mid-flight")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do blocked forever on a dead daemon")
	}
	if !conn.Broken() {
		t.Error("Broken() = false after the transport died")
	}
	if _, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"}); err == nil {
		t.Error("Do on a broken connection returned success")
	}
}

// Regression: Close used to just close the socket; waiters blocked in Do
// with no timeout were freed only by the read loop's error path, and
// Close gave no guarantee it had happened. Now Close must fail every
// pending waiter before returning, and be idempotent.
func TestConnCloseFailsWaiters(t *testing.T) {
	addr := fakeDaemon(t, readAndHold)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"})
			errs <- err
		}()
	}
	// Wait until every waiter is registered before closing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn.mu.Lock()
		pending := len(conn.pend)
		conn.mu.Unlock()
		if pending == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests registered", pending, n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close returning means the read loop is gone — every Do must already
	// be unblocked, so the waitgroup cannot hang.
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("waiter err = %v, want ErrClosed", err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: err = %v, want ErrClosed", err)
	}
}

// Regression: a daemon that stops draining its socket (SIGSTOP) used to
// wedge the writer forever while it held writeMu — every other Do on the
// connection then deadlocked behind the lock, timeout or not. The write
// deadline must fail the stalled write and kill the connection so all
// callers escape.
func TestConnWriteStallFailsFast(t *testing.T) {
	accepted := make(chan net.Conn, 1)
	addr := fakeDaemon(t, func(nc net.Conn) {
		accepted <- nc // hold the conn open but never read from it
	})
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.writeTimeout = 200 * time.Millisecond
	defer func() {
		if nc := <-accepted; nc != nil {
			nc.Close()
		}
	}()
	// Large enough to overrun the kernel socket buffers so the write
	// genuinely stalls mid-message.
	payload := make([]byte, 16<<20)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: payload})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled write reported success")
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("err = %v, want a net timeout", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Do deadlocked on a stalled socket write")
	}
	// The partial frame desynchronized the stream; the Conn must be dead
	// and later calls must fail instead of queueing behind a wedged lock.
	if !conn.Broken() {
		t.Error("Broken() = false after a write timeout")
	}
	if _, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"}); err == nil {
		t.Error("Do on a write-wedged connection returned success")
	}
}

// A broken read stream (garbage response bytes) must surface as a broken
// connection, not a hang or a misrouted response.
func TestConnGarbageResponse(t *testing.T) {
	addr := fakeDaemon(t, func(nc net.Conn) {
		if _, err := readFrame(nc, maxFrame); err != nil {
			nc.Close()
			return
		}
		nc.Write(frame([]byte("not a response")))
	})
	conn, err := DialWith(addr, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"}); err == nil {
		t.Fatal("garbage response bytes accepted")
	}
	if !conn.Broken() {
		t.Error("Broken() = false after a response parse failure")
	}
}

// Sanity: io.EOF from a clean peer shutdown maps to ErrClosed after the
// caller closes, and to a wrapped transport error otherwise. (Guards the
// brokenErr classification the cluster balancer keys off.)
func TestConnBrokenErrClassification(t *testing.T) {
	addr := fakeDaemon(t, func(nc net.Conn) { nc.Close() })
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the read loop to observe the hangup.
	deadline := time.Now().Add(10 * time.Second)
	for !conn.Broken() {
		if time.Now().After(deadline) {
			t.Fatal("read loop never observed the peer hangup")
		}
		time.Sleep(time.Millisecond)
	}
	if err := conn.brokenErr(); !errors.Is(err, io.EOF) {
		t.Errorf("peer hangup err = %v, want io.EOF wrap", err)
	}
	conn.Close()
	if err := conn.brokenErr(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close err = %v, want ErrClosed", err)
	}
}

// Regression: Do with a request too large to frame used to close the
// socket even though no byte had been written, failing every in-flight
// request on the Conn. Only that request may fail; the next Do succeeds.
func TestConnOversizedRequestKeepsConn(t *testing.T) {
	srv, addr := startTCP(t, testOptions())
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: make([]byte, maxFrame)}); err == nil {
		t.Fatal("request over maxFrame accepted")
	}
	if conn.Broken() {
		t.Fatal("an oversized request killed the connection")
	}
	payload := srv.Catalog().Lookup("varint").SamplePayload(0)
	resp, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: payload})
	if err != nil || resp.Status != StatusOK || !bytes.Equal(resp.Payload, payload) {
		t.Fatalf("Do after an oversized request: %v %v", err, resp.Status)
	}
}

// gatedConn wraps a net.Conn: its first Write blocks until release is
// closed, and it records the bytes of every Write.
type gatedConn struct {
	net.Conn
	entered chan struct{} // closed when the first Write starts
	release chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func newGatedConn(nc net.Conn) *gatedConn {
	return &gatedConn{Conn: nc, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedConn) Write(b []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), b...))
	first := len(g.writes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return g.Conn.Write(b)
}

// recorded returns the bytes of every Write so far.
func (g *gatedConn) recorded() [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]byte(nil), g.writes...)
}

// waitEntered waits for the gated first Write to start.
func (g *gatedConn) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no Write reached the socket")
	}
}

// waitPending waits until n requests are registered on conn, i.e. framed.
func waitPending(t *testing.T, conn *Conn, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn.mu.Lock()
		got := len(conn.pend)
		conn.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d requests registered", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Requests issued while a flush is on the socket must leave together in
// exactly one more Write, byte-identical to framing each alone and in
// the order they were issued — a 128 KiB one included.
func TestConnCoalescesWrites(t *testing.T) {
	reqs := []Request{
		{Op: OpDeserialize, Schema: "varint", Payload: []byte{8, 1}},
		{Op: OpSerialize, Schema: "string", Payload: bytes.Repeat([]byte{'s'}, 300)},
		{Op: OpDeserialize, Schema: "big", Timeout: time.Minute, Payload: bytes.Repeat([]byte{'b'}, 128<<10+5)},
		{Op: OpSerialize, Schema: "mixed"},
	}
	got := make(chan struct{}, len(reqs))
	addr := fakeDaemon(t, func(nc net.Conn) {
		for {
			if _, err := readFrame(nc, maxFrame); err != nil {
				nc.Close()
				return
			}
			got <- struct{}{}
		}
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	gc := newGatedConn(nc)
	conn := newConn(gc, DialOptions{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer conn.Close()
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn.Do(req)
		}()
		if i == 0 {
			gc.waitEntered(t)
		}
		waitPending(t, conn, i+1)
	}
	close(gc.release)
	for range reqs {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not receive every request")
		}
	}

	var want [][]byte
	for i, req := range reqs {
		req.ID = uint64(i + 1)
		msg := frame(appendRequest(nil, &req))
		if i < 2 {
			want = append(want, msg)
		} else {
			want[1] = append(want[1], msg...)
		}
	}
	writes := gc.recorded()
	if len(writes) != len(want) {
		t.Fatalf("%d Writes, want %d", len(writes), len(want))
	}
	for i := range want {
		if !bytes.Equal(writes[i], want[i]) {
			t.Errorf("Write %d: %d bytes diverge from the frames of its requests (%d bytes)", i, len(writes[i]), len(want[i]))
		}
	}
}

// countingConn wraps a net.Conn and counts its Writes into n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(b)
}

// Regression: a read that routes a burst of responses wakes many callers,
// but the first one woken used to find no flush in progress and write its
// next request alone, and so did the next, so a closed loop of pipelined
// callers paid about one Write per request. The callers one burst wakes
// must share Writes. One P makes the wake-up order Go's own: the caller
// readied last by the read loop runs first.
func TestConnBurstSharesWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const callers, rounds = 32, 8
	var writes atomic.Int64
	firstRound := make(chan int64, 1) // Writes the first round took
	addr := fakeDaemon(t, func(nc net.Conn) {
		defer nc.Close()
		r := bufio.NewReader(nc)
		for round := 1; ; round++ {
			// Each caller has one request in flight, so a round is one
			// request from every caller; answer them all in one Write.
			var out []byte
			for range callers {
				body, err := readFrame(r, maxFrame)
				if err != nil {
					return
				}
				req, err := parseRequest(body)
				if err != nil {
					return
				}
				b, mark := beginMessage(out)
				out, _ = endMessage(appendResponse(b, &Response{Status: StatusOK, ID: req.ID}), mark)
			}
			if round == 1 {
				firstRound <- writes.Load()
			}
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := newConn(countingConn{Conn: nc, n: &writes}, DialOptions{Timeout: 10 * time.Second})
	defer conn.Close()
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if resp, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"}); err != nil || resp.Status != StatusOK {
					t.Errorf("Do: %v, status %v", err, resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	reqs := callers * (rounds - 1)
	if got := writes.Load() - <-firstRound; got > int64(reqs/4) {
		t.Errorf("rounds 2–%d took %d Writes for %d requests, want at most %d", rounds, got, reqs, reqs/4)
	}
}

// Regression: when Close landed while a caller was inside flush writing
// its round, that caller got the raw write error ("use of closed network
// connection") although the Conn's owner had closed it. It must get
// ErrClosed like every other waiter.
func TestConnCloseDuringFlush(t *testing.T) {
	nc, err := net.Dial("tcp", fakeDaemon(t, readAndHold))
	if err != nil {
		t.Fatal(err)
	}
	gc := newGatedConn(nc)
	conn := newConn(gc, DialOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint"})
		done <- err
	}()
	gc.waitEntered(t)
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(gc.release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Do whose write Close cut short: err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do blocked after Close")
	}
}
