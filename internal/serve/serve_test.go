package serve

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"protoacc/internal/faults"
)

// testOptions keeps test servers small: modest batches, small payloads,
// tight System memory. The default deadline is raised far above any
// race-detector slowdown so only the explicit-timeout admission test
// exercises deadline expiry.
func testOptions() Options {
	return Options{
		MaxBatch:    4,
		QueueDepth:  64,
		Workers:     2,
		MaxPayload:  8 << 10,
		BatchWindow: 100 * time.Microsecond,
		Deadline:    time.Minute,
	}
}

// sampleRequests builds a deterministic mixed request list: both ops over
// every catalog schema.
func sampleRequests(c *Catalog, perSchema int) []Request {
	var reqs []Request
	for _, name := range c.Names() {
		e := c.Lookup(name)
		for i := 0; i < perSchema; i++ {
			op := OpDeserialize
			if i%2 == 1 {
				op = OpSerialize
			}
			reqs = append(reqs, Request{Op: op, Schema: name, Payload: e.SamplePayload(i)})
		}
	}
	return reqs
}

// Every OK response over a canonical sample payload must be byte-identical
// to the payload, for both operations — the serving layer's functional
// contract.
func TestServeRoundTrip(t *testing.T) {
	srv, err := NewServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	for _, name := range srv.Catalog().Names() {
		e := srv.Catalog().Lookup(name)
		for _, op := range []Op{OpDeserialize, OpSerialize} {
			payload := e.SamplePayload(3)
			resp, err := client.Do(Request{Op: op, Schema: name, Payload: payload})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, op, err)
			}
			if resp.Status != StatusOK {
				t.Fatalf("%s/%v: status %v: %s", name, op, resp.Status, resp.Payload)
			}
			if !bytes.Equal(resp.Payload, payload) {
				t.Errorf("%s/%v: response diverges from canonical payload", name, op)
			}
			if resp.FellBack {
				t.Errorf("%s/%v: fault-free request fell back to software", name, op)
			}
			if resp.Cycles <= 0 {
				t.Errorf("%s/%v: no accelerator cycles attributed", name, op)
			}
		}
	}
}

// runBatched drives one server with the given request list through
// preformed batches and returns responses plus the quiescent telemetry
// snapshot.
func runBatched(t *testing.T, opts Options, reqs []Request) ([]Response, map[string]float64) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	resps, err := client.DoBatch(append([]Request(nil), reqs...))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	snap := srv.TelemetrySnapshot()
	counters := make(map[string]float64, snap.Len())
	for _, sm := range snap.Samples() {
		counters[sm.Name] = sm.Value
	}
	return resps, counters
}

// compareRuns asserts two runs produced bitwise-identical responses and
// telemetry.
func compareRuns(t *testing.T, labelA, labelB string, a, b []Response, ca, cb map[string]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("response counts differ: %s=%d %s=%d", labelA, len(a), labelB, len(b))
	}
	for i := range a {
		if a[i].Status != b[i].Status || a[i].FellBack != b[i].FellBack {
			t.Errorf("response %d: status/fallback differ: %s=%+v %s=%+v", i, labelA, a[i], labelB, b[i])
		}
		if !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Errorf("response %d: payload bytes differ between %s and %s", i, labelA, labelB)
		}
		if a[i].Cycles != b[i].Cycles {
			t.Errorf("response %d: cycles differ: %s=%v %s=%v", i, labelA, a[i].Cycles, labelB, b[i].Cycles)
		}
	}
	if len(ca) != len(cb) {
		t.Fatalf("telemetry shapes differ: %s=%d counters, %s=%d", labelA, len(ca), labelB, len(cb))
	}
	for name, va := range ca {
		vb, ok := cb[name]
		if !ok {
			t.Errorf("counter %s present in %s, missing in %s", name, labelA, labelB)
			continue
		}
		if va != vb {
			t.Errorf("counter %s: %s=%v %s=%v", name, labelA, va, labelB, vb)
		}
	}
}

// A single-worker server and a multi-worker server must produce bitwise
// identical responses and telemetry for the same preformed batches —
// parallel batch execution is an implementation detail, not an observable.
func TestServeSerialVsParallelEquivalence(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)
	serialOpts := testOptions()
	serialOpts.Workers = 1
	parallelOpts := testOptions()
	parallelOpts.Workers = 4
	sa, ca := runBatched(t, serialOpts, reqs)
	sb, cb := runBatched(t, parallelOpts, reqs)
	compareRuns(t, "serial", "parallel", sa, sb, ca, cb)
}

// A pooled server (recycled Systems) and a fresh-System-per-batch server
// must also be indistinguishable: ResetAll's bitwise-equivalence guarantee
// extends through the serving path.
func TestServePooledVsFreshEquivalence(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)
	pooled := testOptions()
	pooled.Workers = 1
	fresh := testOptions()
	fresh.Workers = 1
	fresh.fresh = true
	sa, ca := runBatched(t, pooled, reqs)
	sb, cb := runBatched(t, fresh, reqs)
	compareRuns(t, "pooled", "fresh", sa, sb, ca, cb)
}

// Under injected faults every response must still be byte-identical to the
// canonical software-codec answer; the recovery paths (retry, core
// fallback, server degradation) may only show up in flags and counters.
func TestServeChaos(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 10)
	opts := testOptions()
	opts.Faults = faults.Config{Enabled: true, Seed: 1234, Rate: 0.05}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	resps, err := client.DoBatch(reqs)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	fellBack := 0
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %v under faults: %s", i, resp.Status, resp.Payload)
		}
		if !bytes.Equal(resp.Payload, reqs[i].Payload) {
			t.Errorf("request %d: response diverges from software codec under faults", i)
		}
		if resp.FellBack {
			fellBack++
		}
	}
	snap := srv.TelemetrySnapshot()
	injected, _ := snap.Get("faults/arena/injected")
	var total float64
	for _, sm := range snap.Samples() {
		if len(sm.Name) > 7 && sm.Name[:7] == "faults/" {
			total += sm.Value
		}
	}
	if total == 0 {
		t.Errorf("fault schedule at rate 0.05 never fired (arena injected=%v)", injected)
	}
	accelFB, _ := snap.Get("serve/fallbacks/accel")
	serverFB, _ := snap.Get("serve/fallbacks/server")
	if fellBack > 0 && accelFB+serverFB == 0 {
		t.Errorf("responses flagged FellBack but fallback counters are zero")
	}
	if int(accelFB+serverFB) != fellBack {
		t.Errorf("fallback counters (%v accel + %v server) disagree with %d flagged responses",
			accelFB, serverFB, fellBack)
	}
}

// Admission control: unknown schemas, oversized and malformed payloads are
// rejected; expired deadlines answer StatusDeadline; a closed server sheds.
func TestServeAdmission(t *testing.T) {
	opts := testOptions()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	entry := srv.Catalog().Lookup("varint")

	resp, _ := client.Do(Request{Op: OpDeserialize, Schema: "nope", Payload: entry.SamplePayload(0)})
	if resp.Status != StatusBadRequest {
		t.Errorf("unknown schema: status %v, want bad_request", resp.Status)
	}
	resp, _ = client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: make([]byte, opts.MaxPayload+1)})
	if resp.Status != StatusBadRequest {
		t.Errorf("oversized payload: status %v, want bad_request", resp.Status)
	}
	resp, _ = client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: []byte{0xff, 0xff, 0xff}})
	if resp.Status != StatusBadRequest {
		t.Errorf("malformed payload: status %v, want bad_request", resp.Status)
	}
	resp, _ = client.Do(Request{Op: Op(9), Schema: "varint", Payload: entry.SamplePayload(0)})
	if resp.Status != StatusBadRequest {
		t.Errorf("unknown op: status %v, want bad_request", resp.Status)
	}
	resp, _ = client.Do(Request{Op: OpDeserialize, Schema: "varint", Timeout: time.Nanosecond, Payload: entry.SamplePayload(0)})
	if resp.Status != StatusDeadline {
		t.Errorf("expired budget: status %v, want deadline", resp.Status)
	}

	srv.Close()
	resp, _ = client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(0)})
	if resp.Status != StatusShed {
		t.Errorf("closed server: status %v, want shed", resp.Status)
	}
	snap := srv.TelemetrySnapshot()
	if v, _ := snap.Get("serve/responses/bad_request"); v != 4 {
		t.Errorf("bad_request counter = %v, want 4", v)
	}
	if v, _ := snap.Get("serve/responses/deadline"); v != 1 {
		t.Errorf("deadline counter = %v, want 1", v)
	}
	if v, _ := snap.Get("serve/responses/shed"); v != 1 {
		t.Errorf("shed counter = %v, want 1", v)
	}
}

// A saturated single-worker server with a depth-1 queue must shed load
// rather than queue without bound.
func TestServeLoadShedding(t *testing.T) {
	opts := testOptions()
	opts.Workers = 1
	opts.QueueDepth = 1
	opts.MaxBatch = 1
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	entry := srv.Catalog().Lookup("varint")
	const n = 64
	var wg sync.WaitGroup
	shed := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(i)})
			shed[i] = resp.Status == StatusShed
		}(i)
	}
	wg.Wait()
	nShed := 0
	for _, s := range shed {
		if s {
			nShed++
		}
	}
	if nShed == 0 {
		t.Error("64 concurrent requests against a depth-1 queue shed nothing")
	}
	if nShed == n {
		t.Error("every request was shed; the server did no work at all")
	}
}

// The wire protocol round-trips requests and responses and rejects
// truncated or mis-versioned frames.
func TestProtocolRoundTrip(t *testing.T) {
	req := Request{ID: 42, Op: OpSerialize, Schema: "mixed", Timeout: 250 * time.Millisecond, Payload: []byte{1, 2, 3}}
	got, err := parseRequest(appendRequest(nil, &req))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.Op != req.Op || got.Schema != req.Schema ||
		got.Timeout != req.Timeout || !bytes.Equal(got.Payload, req.Payload) {
		t.Fatalf("request round-trip: got %+v want %+v", got, req)
	}

	resp := Response{ID: 42, Status: StatusOK, FellBack: true, Cycles: 123.5, Payload: []byte{9, 8}}
	rgot, err := parseResponse(appendResponse(nil, &resp))
	if err != nil {
		t.Fatal(err)
	}
	if rgot.ID != resp.ID || rgot.Status != resp.Status || rgot.FellBack != resp.FellBack ||
		rgot.Cycles != resp.Cycles || !bytes.Equal(rgot.Payload, resp.Payload) {
		t.Fatalf("response round-trip: got %+v want %+v", rgot, resp)
	}

	if _, err := parseRequest(nil); err == nil {
		t.Error("empty request body accepted")
	}
	if _, err := parseRequest([]byte{99, 0, 1}); err == nil {
		t.Error("wrong protocol version accepted")
	}
	if _, err := parseRequest([]byte{protocolVersion, 7, 1}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := parseResponse([]byte{protocolVersion, 0}); err == nil {
		t.Error("truncated response accepted")
	}
	if _, err := parseResponse(appendResponse(nil, &Response{ID: 1, Status: numStatuses})); err == nil {
		t.Error("unknown status accepted")
	}

	buf, err := appendFramed(nil, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(bytes.NewReader(buf), maxFrame)
	if err != nil || string(body) != "hello" {
		t.Fatalf("frame round-trip: %q %v", body, err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), maxFrame); err == nil {
		t.Error("oversized frame announcement accepted")
	}
}

// startTCP starts a server on a loopback listener and returns its address.
func startTCP(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// The TCP transport must carry the same contract as the in-process path,
// including pipelined concurrent requests on one connection.
func TestServeTCP(t *testing.T) {
	srv, addr := startTCP(t, testOptions())
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	entry := srv.Catalog().Lookup("mixed")
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := entry.SamplePayload(i)
			op := OpDeserialize
			if i%2 == 1 {
				op = OpSerialize
			}
			resp, err := conn.Do(Request{Op: op, Schema: "mixed", Payload: payload})
			if err != nil {
				errs[i] = err
				return
			}
			if resp.Status != StatusOK {
				errs[i] = errResp(resp)
				return
			}
			if !bytes.Equal(resp.Payload, payload) {
				errs[i] = errDiverge(i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// protoaccd under chaos, over the real transport: injected faults must not
// leak through the wire — every TCP response stays byte-identical to the
// software codec.
func TestServeTCPChaos(t *testing.T) {
	opts := testOptions()
	opts.Faults = faults.Config{Enabled: true, Seed: 77, Rate: 0.05}
	srv, addr := startTCP(t, opts)
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, name := range srv.Catalog().Names() {
		e := srv.Catalog().Lookup(name)
		for i := 0; i < 12; i++ {
			payload := e.SamplePayload(i)
			op := OpDeserialize
			if i%2 == 1 {
				op = OpSerialize
			}
			resp, err := conn.Do(Request{Op: op, Schema: name, Payload: payload})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, i, err)
			}
			if resp.Status != StatusOK {
				t.Fatalf("%s/%d: status %v under faults: %s", name, i, resp.Status, resp.Payload)
			}
			if !bytes.Equal(resp.Payload, payload) {
				t.Errorf("%s/%d: response diverges under faults (fellBack=%v)", name, i, resp.FellBack)
			}
		}
	}
}

type errResp Response

func (e errResp) Error() string {
	return "status " + Response(e).Status.String() + ": " + string(Response(e).Payload)
}

type errDiverge int

func (e errDiverge) Error() string { return "response diverges from canonical payload" }
