package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// frame prepends a length prefix to body.
func frame(body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return append(hdr[:], body...)
}

// appendFramed frames body in place onto b, as the transports do.
func appendFramed(b, body []byte) ([]byte, error) {
	b, mark := beginMessage(b)
	return endMessage(append(b, body...), mark)
}

// rawFrame builds a frame whose length prefix lies about the body.
func rawFrame(announce uint32, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], announce)
	return append(hdr[:], body...)
}

// hostileMessage is one input readFrame must reject, or read exactly.
type hostileMessage struct {
	name    string
	input   []byte
	wantErr bool
	want    []byte
}

// oldChunkMagic opened the header frame of a chunk train, the framing
// the protocol once used for bodies over 64 KiB. An old peer may still
// send one; it reads as a plain frame, which parseRequest and
// parseResponse then reject for its version byte.
const oldChunkMagic = 2

// oldChunkHeader is a chunk-header body announcing total bytes.
func oldChunkHeader(total uint64) []byte {
	return wire.AppendVarint([]byte{oldChunkMagic}, total)
}

// hostileMessages are the corrupt and hostile streams of
// TestReadMessageHostileInput, which also seed the wire fuzz targets.
func hostileMessages() []hostileMessage {
	// oldChunk is a stream that opens with the frame hdr: it must read as
	// hdr alone, whatever total hdr announces and whatever follows it.
	oldChunk := func(name string, hdr []byte, rest ...[]byte) hostileMessage {
		input := frame(hdr)
		for _, r := range rest {
			input = append(input, r...)
		}
		return hostileMessage{name: name, input: input, want: hdr}
	}
	const oldChunkBody = 64 << 10
	return []hostileMessage{
		{name: "empty frame", input: frame(nil), want: []byte{}},
		{name: "plain frame", input: frame([]byte{protocolVersion, 9, 9}), want: []byte{protocolVersion, 9, 9}},
		{name: "truncated header", input: []byte{0, 0}, wantErr: true},
		{name: "truncated body", input: rawFrame(10, []byte("abc")), wantErr: true},
		{name: "announce 4GiB", input: rawFrame(0xffffffff, nil), wantErr: true},
		{name: "announce over limit", input: rawFrame(maxFrame+1, nil), wantErr: true},
		oldChunk("chunk header truncated varint", []byte{oldChunkMagic, 0x80}),
		oldChunk("chunk header trailing bytes", append(oldChunkHeader(oldChunkBody+1), 0xee)),
		oldChunk("chunk total over limit", oldChunkHeader(maxFrame+1)),
		oldChunk("chunk total absurd", oldChunkHeader(1<<60)),
		oldChunk("chunk total fits one frame", oldChunkHeader(oldChunkBody)),
		oldChunk("chunk total zero", oldChunkHeader(0)),
		oldChunk("chunk continuation truncated", oldChunkHeader(oldChunkBody+1), rawFrame(oldChunkBody, []byte("short"))),
		oldChunk("chunk continuation wrong size", oldChunkHeader(oldChunkBody+10),
			frame(make([]byte, 100)), frame(make([]byte, oldChunkBody))),
	}
}

// A corrupt or hostile stream must produce a clean error from readFrame,
// or exactly its first frame's body — never a hang, a huge trusted
// allocation, or a silently wrong body.
func TestReadMessageHostileInput(t *testing.T) {
	for _, tc := range hostileMessages() {
		t.Run(tc.name, func(t *testing.T) {
			// Plain and buffered readers (the transports read through a
			// bufio.Reader; 16 bytes forces refills mid-frame).
			for _, r := range []io.Reader{bytes.NewReader(tc.input), bufio.NewReaderSize(bytes.NewReader(tc.input), 16)} {
				body, err := readFrame(r, maxFrame)
				if tc.wantErr {
					if err == nil {
						t.Fatalf("%T accepted hostile input, body %d bytes", r, len(body))
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, tc.want) {
					t.Fatalf("%T: body %v, want %v", r, body, tc.want)
				}
			}
		})
	}
}

// The caller-supplied limit must bound a frame below the protocol-wide
// maxFrame, and a limit past maxFrame is cut to it.
func TestReadMessageCallerLimit(t *testing.T) {
	const limit = 1 << 10
	if _, err := readFrame(bytes.NewReader(frame(make([]byte, limit+1))), limit); err == nil {
		t.Error("frame over the caller limit accepted")
	}
	body, err := readFrame(bytes.NewReader(frame(make([]byte, limit))), limit)
	if err != nil || len(body) != limit {
		t.Errorf("at-limit frame rejected: %d bytes, err=%v", len(body), err)
	}
	if _, err := readFrame(bytes.NewReader(rawFrame(maxFrame+1, nil)), 2*maxFrame); err == nil {
		t.Error("frame over maxFrame accepted under a larger caller limit")
	}
}

// The in-place framer and readFrame must round-trip every size from
// empty to several times 64 KiB, each as exactly one frame, alone and
// with every size coalesced into one buffer, read plain and buffered.
func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var bodies [][]byte
	var coalesced, want []byte
	for _, n := range []int{0, 1, 64<<10 - 1, 64 << 10, 64<<10 + 1, 128 << 10, 192<<10 + 17} {
		body := make([]byte, n)
		rng.Read(body)
		if n > 0 {
			body[0] = protocolVersion // real messages always start with the version byte
		}
		bodies = append(bodies, body)
		buf, err := appendFramed(nil, body)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(buf, frame(body)) {
			t.Errorf("size %d: encoding diverges from one length-prefixed frame", n)
		}
		for _, r := range []io.Reader{bytes.NewReader(buf), bufio.NewReader(bytes.NewReader(buf))} {
			got, err := readFrame(r, maxFrame)
			if err != nil {
				t.Fatalf("size %d: %v", n, err)
			}
			if !bytes.Equal(got, body) {
				t.Errorf("size %d: body corrupted in transit", n)
			}
			if k, _ := r.Read(make([]byte, 1)); k != 0 {
				t.Errorf("size %d: trailing bytes after message", n)
			}
		}
		if coalesced, err = appendFramed(coalesced, body); err != nil {
			t.Fatalf("size %d coalesced: %v", n, err)
		}
		want = append(want, frame(body)...)
	}
	if !bytes.Equal(coalesced, want) {
		t.Fatal("coalesced buffer diverges from the frames of its messages")
	}
	for _, r := range []io.Reader{bytes.NewReader(coalesced), bufio.NewReader(bytes.NewReader(coalesced))} {
		for i, body := range bodies {
			got, err := readFrame(r, maxFrame)
			if err != nil {
				t.Fatalf("%T coalesced message %d: %v", r, i, err)
			}
			if !bytes.Equal(got, body) {
				t.Errorf("%T coalesced message %d corrupted in transit", r, i)
			}
		}
		if n, _ := r.Read(make([]byte, 1)); n != 0 {
			t.Errorf("%T: trailing bytes after the coalesced messages", r)
		}
	}
}

// A request's timeout must never wrap: parseRequest rejects a timeout_us
// past what a time.Duration holds, and appendRequest sends a negative
// Timeout as 0, which the server reads as "use the default".
func TestRequestTimeoutBounds(t *testing.T) {
	const maxUS = math.MaxInt64 / uint64(time.Microsecond)
	body := func(us uint64) []byte {
		b := []byte{protocolVersion, byte(OpDeserialize)}
		b = wire.AppendVarint(b, 7)
		b = wire.AppendVarint(b, uint64(len("varint")))
		b = append(b, "varint"...)
		b = wire.AppendVarint(b, us)
		return append(b, 0x08, 0x01)
	}
	for _, tc := range []struct {
		name    string
		us      uint64
		wantErr bool
	}{
		{name: "zero", us: 0},
		{name: "one second", us: 1e6},
		{name: "largest Duration", us: maxUS},
		{name: "one past the largest", us: maxUS + 1, wantErr: true},
		{name: "wraps to 384ns", us: 18446744073709552, wantErr: true},
		{name: "max uint64", us: math.MaxUint64, wantErr: true},
	} {
		req, err := parseRequest(body(tc.us))
		switch {
		case tc.wantErr && err == nil:
			t.Errorf("parse %s: timeout_us %d accepted as %v", tc.name, tc.us, req.Timeout)
		case !tc.wantErr && (err != nil || req.Timeout != time.Duration(tc.us)*time.Microsecond):
			t.Errorf("parse %s: timeout %v, err %v", tc.name, req.Timeout, err)
		}
	}
	for _, tc := range []struct {
		name          string
		timeout, want time.Duration
	}{
		{"zero", 0, 0},
		{"sub-microsecond", 999, 0},
		{"1.5µs", 1500, time.Microsecond},
		{"minus one nanosecond", -1, 0},
		{"minus one second", -time.Second, 0},
		{"most negative", math.MinInt64, 0},
		{"largest", math.MaxInt64, time.Duration(maxUS) * time.Microsecond},
	} {
		req, err := parseRequest(appendRequest(nil, &Request{Op: OpSerialize, Schema: "varint", Timeout: tc.timeout}))
		if err != nil || req.Timeout != tc.want {
			t.Errorf("encode %s: timeout %v parsed back as %v, err %v; want %v", tc.name, tc.timeout, req.Timeout, err, tc.want)
		}
	}
}

// dialRaw opens a bare TCP connection for speaking malformed bytes at a
// live server.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

// waitCounter polls an aggregated counter until it reaches want (counting
// is asynchronous with the connection teardown the client observes).
func waitCounter(t *testing.T, srv *Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := srv.AggregatedCounters()[name]
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want >= %v", name, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A hostile length prefix or unparseable body must terminate only the
// offending connection — counted under serve/protocol/errors — while the
// server keeps serving well-formed clients.
func TestServeTCPHostileFrames(t *testing.T) {
	srv, addr := startTCP(t, testOptions())
	defer srv.Close()

	hostile := [][]byte{
		rawFrame(0xffffffff, nil),                       // 4GiB announcement
		rawFrame(uint32(srv.readLimit()+1), nil),        // just past the server's limit
		frame([]byte("this is not a protocol message")), // fails parseRequest
		frame(nil),                       // empty body
		frame(oldChunkHeader(200 << 10)), // an old peer's chunk header: version byte 2
	}
	for i, raw := range hostile {
		nc := dialRaw(t, addr)
		if _, err := nc.Write(raw); err != nil {
			t.Fatalf("hostile write %d: %v", i, err)
		}
		// The server must hang up on us.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if _, err := nc.Read(one[:]); err == nil {
			t.Errorf("hostile frame %d: server kept the connection open", i)
		}
		nc.Close()
		waitCounter(t, srv, "serve/protocol/errors", float64(i+1))
	}

	// A well-formed client on a fresh connection is unaffected.
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	e := srv.Catalog().Lookup("varint")
	resp, err := conn.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: e.SamplePayload(0)})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("healthy client after hostile peers: %v %v", err, resp.Status)
	}
}

// bigCatalog hosts one schema whose sample payload is a string of
// payloadLen printable bytes plus its field header.
func bigCatalog(t *testing.T, payloadLen int) *Catalog {
	t.Helper()
	bigT := mustType("ServeBigString",
		&schema.Field{Name: "s", Number: 1, Kind: schema.KindString})
	m := dynamic.New(bigT)
	b := make([]byte, payloadLen)
	rng := rand.New(rand.NewSource(7))
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	m.SetBytes(1, b)
	payload, err := codec.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(&Entry{Name: "big", Type: bigT, payloads: [][]byte{payload}})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// Messages of several times 64 KiB must survive the wire in both
// directions as single frames, byte verified end to end.
func TestServeTCPLargeMessages(t *testing.T) {
	opts := testOptions()
	opts.MaxPayload = 512 << 10
	opts.Catalog = bigCatalog(t, 200<<10)
	srv, addr := startTCP(t, opts)
	defer srv.Close()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := srv.Catalog().Lookup("big").SamplePayload(0)
	for _, op := range []Op{OpDeserialize, OpSerialize} {
		resp, err := conn.Do(Request{Op: op, Schema: "big", Payload: payload})
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("op %v: status %v: %s", op, resp.Status, truncate(resp.Payload))
		}
		if !bytes.Equal(resp.Payload, payload) {
			t.Errorf("op %v: large response diverges from canonical payload", op)
		}
	}
	if n := srv.AggregatedCounters()["serve/protocol/errors"]; n != 0 {
		t.Errorf("large messages counted %v protocol errors", n)
	}
}

func truncate(b []byte) string {
	if len(b) > 80 {
		b = b[:80]
	}
	return fmt.Sprintf("%q", b)
}

// Responses completed while the connection's first flush is on the
// socket must leave together in exactly one more Write, byte-identical
// to framing each alone and in completion order.
func TestServeConnCoalescesResponses(t *testing.T) {
	opts := testOptions()
	opts.Workers = 1 // one executor: responses complete in request order
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, sc := net.Pipe()
	defer cli.Close()
	gc := newGatedConn(sc)
	served := make(chan struct{})
	go func() {
		srv.serveConn(newConnWriter(srv, gc))
		close(served)
	}()
	const n = 7
	got := make(chan []byte, n)
	go func() {
		for {
			body, err := readFrame(cli, maxFrame)
			if err != nil {
				return
			}
			got <- body
		}
	}()
	e := srv.Catalog().Lookup("varint")
	send := func(id uint64) {
		req := Request{ID: id, Op: OpDeserialize, Schema: "varint", Payload: e.SamplePayload(int(id))}
		b, err := appendFramed(nil, appendRequest(nil, &req))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	gc.waitEntered(t)
	for id := uint64(2); id <= n; id++ {
		send(id)
	}
	waitCounter(t, srv, "serve/responses/ok", n)
	close(gc.release)
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d/%d responses", i, n)
		}
	}
	cli.Close()
	<-served

	writes := gc.recorded()
	if len(writes) != 2 {
		t.Fatalf("%d Writes, want 2", len(writes))
	}
	var want []byte
	r := bytes.NewReader(writes[1])
	for id := uint64(2); id <= n; id++ {
		body, err := readFrame(r, maxFrame)
		if err != nil {
			t.Fatalf("second Write, response %d: %v", id, err)
		}
		resp, err := parseResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || resp.Status != StatusOK || !bytes.Equal(resp.Payload, e.SamplePayload(int(id))) {
			t.Fatalf("second Write: response %d (status %v), want %d OK with its canonical payload", resp.ID, resp.Status, id)
		}
		want = append(want, frame(appendResponse(nil, &resp))...)
	}
	if !bytes.Equal(writes[1], want) {
		t.Error("second Write diverges from the frames of its responses")
	}
}

// A client that pipelines requests and then half-closes still receives
// every response: the writer flushes what is outstanding before the
// server closes the connection.
func TestServeConnFlushesAfterHalfClose(t *testing.T) {
	srv, addr := startTCP(t, testOptions())
	defer srv.Close()
	nc := dialRaw(t, addr)
	defer nc.Close()
	e := srv.Catalog().Lookup("string")
	const n = 16
	var out []byte
	for id := uint64(1); id <= n; id++ {
		req := Request{ID: id, Op: OpSerialize, Schema: "string", Payload: e.SamplePayload(int(id))}
		out, _ = appendFramed(out, appendRequest(nil, &req))
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(nc)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		body, err := readFrame(r, maxFrame)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		resp, err := parseResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK || !bytes.Equal(resp.Payload, e.SamplePayload(int(resp.ID))) {
			t.Fatalf("response %d: status %v, or payload diverges", resp.ID, resp.Status)
		}
		seen[resp.ID] = true
	}
	if len(seen) != n {
		t.Errorf("%d distinct ids answered, want %d", len(seen), n)
	}
	if _, err := readFrame(r, maxFrame); err != io.EOF {
		t.Errorf("after the last response: err = %v, want EOF", err)
	}
}

// startNonReader dials srv at addr and pipelines deserialize requests for
// the catalog's "big" entry without ever reading a response. Both socket
// buffers are shrunk so the server's writes stall after little data. It
// returns the client connection and the server's writer for it.
func startNonReader(t *testing.T, srv *Server, addr string) (net.Conn, *connWriter) {
	t.Helper()
	nc := dialRaw(t, addr)
	nc.(*net.TCPConn).SetReadBuffer(8 << 10)
	var w *connWriter
	deadline := time.Now().Add(10 * time.Second)
	for w == nil {
		srv.connMu.Lock()
		for c, cw := range srv.conns {
			c.(*net.TCPConn).SetWriteBuffer(8 << 10)
			w = cw
		}
		srv.connMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("server never registered the connection")
		}
		time.Sleep(time.Millisecond)
	}
	payload := srv.Catalog().Lookup("big").SamplePayload(0)
	go func() { // blocks once the server stops reading; exits when nc closes
		for id := uint64(1); ; id++ {
			b, _ := appendFramed(nil, appendRequest(nil, &Request{ID: id, Op: OpDeserialize, Schema: "big", Payload: payload}))
			if _, err := nc.Write(b); err != nil {
				return
			}
		}
	}()
	return nc, w
}

// unflushed reports w's framed-but-unwritten response bytes.
func (w *connWriter) unflushed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf) + w.writing
}

// closeWithin fails the test if srv.Close does not return promptly.
func closeWithin(t *testing.T, srv *Server) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Server.Close did not return")
	}
}

// A client that pipelines requests and never reads must meet TCP
// backpressure: once maxUnflushed response bytes wait on its connection
// the server stops reading, so goroutines and buffered bytes stay
// bounded. Closing the client then lets Server.Close return.
func TestServeConnNonReadingClientBounded(t *testing.T) {
	opts := testOptions()
	opts.MaxPayload = 512 << 10
	opts.Catalog = bigCatalog(t, 200<<10)
	srv, addr := startTCP(t, opts)
	before := runtime.NumGoroutine()
	nc, w := startNonReader(t, srv, addr)
	defer nc.Close()

	deadline := time.Now().Add(20 * time.Second)
	for w.unflushed() <= maxUnflushed {
		if time.Now().After(deadline) {
			t.Fatalf("unflushed bytes %d never reached the cap %d", w.unflushed(), maxUnflushed)
		}
		time.Sleep(time.Millisecond)
	}
	// Past the cap the only growth left is the responses to requests
	// already admitted: at most a full queue plus one batch per executor.
	payload := srv.Catalog().Lookup("big").SamplePayload(0)
	respLen := len(frame(appendResponse(nil, &Response{ID: 1 << 62, Payload: payload})))
	bound := maxUnflushed + (opts.QueueDepth+opts.MaxBatch*(opts.Workers+1)+1)*respLen
	for i := 0; i < 5; i++ {
		time.Sleep(50 * time.Millisecond)
		if n := w.unflushed(); n > bound {
			t.Fatalf("%d unflushed response bytes, bound %d", n, bound)
		}
		if extra := runtime.NumGoroutine() - before; extra > 8 {
			t.Fatalf("%d goroutines over the %d before the client connected", extra, before)
		}
	}
	// The reader is parked: no further request is admitted.
	admitted := srv.AggregatedCounters()["serve/requests/deser"]
	time.Sleep(100 * time.Millisecond)
	if now := srv.AggregatedCounters()["serve/requests/deser"]; now != admitted {
		t.Fatalf("admitted requests moved %v -> %v past the cap: the server kept reading", admitted, now)
	}
	nc.Close()
	closeWithin(t, srv)
}

// A flush that outlives the server's write deadline drops the client and
// counts a protocol error.
func TestServeConnWriteDeadlineDropsClient(t *testing.T) {
	opts := testOptions()
	opts.MaxPayload = 512 << 10
	opts.Catalog = bigCatalog(t, 200<<10)
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.writeTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	nc, _ := startNonReader(t, srv, ln.Addr().String())
	defer nc.Close()
	waitCounter(t, srv, "serve/protocol/errors", 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.connMu.Lock()
		open := len(srv.conns)
		srv.connMu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server kept the stalled connection")
		}
		time.Sleep(time.Millisecond)
	}
	nc.Close()
	closeWithin(t, srv)
	if n := srv.AggregatedCounters()["serve/protocol/errors"]; n != 1 {
		t.Errorf("serve/protocol/errors = %v, want 1", n)
	}
}
