package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/serve"
)

// serverOptions mirrors the serve package's test sizing: small batches
// and tight memory so a test cluster of 2–4 daemons stays cheap.
func serverOptions() serve.Options {
	return serve.Options{
		MaxBatch:    4,
		QueueDepth:  64,
		Workers:     2,
		MaxPayload:  8 << 10,
		BatchWindow: 100 * time.Microsecond,
		Deadline:    time.Minute,
	}
}

// startServer runs one in-process protoaccd equivalent on loopback.
func startServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// startBlackhole listens and swallows every byte without ever answering —
// a daemon that accepts work and hangs (the failover-on-timeout scenario).
func startBlackhole(t *testing.T) string {
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
			go io.Copy(io.Discard, nc)
		}
	}()
	return ln.Addr().String()
}

// startRefuser accepts and immediately closes every connection — a
// daemon that is reachable but dead (the failover/ejection scenario).
func startRefuser(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			ln.Close()
		}
	}
	t.Cleanup(stop)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			nc.Close()
		}
	}()
	return ln.Addr().String(), stop
}

// sampleRequest builds the i'th canonical request over the default
// catalog's varint schema.
func sampleRequest(srv *serve.Server, i int) serve.Request {
	e := srv.Catalog().Lookup("varint")
	return serve.Request{Op: serve.OpDeserialize, Schema: "varint", Payload: e.SamplePayload(i)}
}

// A balanced pool must answer byte-verified through every node, spread
// load across the pool, and account every request in serve/cluster/.
func TestClusterRoundTrip(t *testing.T) {
	srvA, addrA := startServer(t, serverOptions())
	_, addrB := startServer(t, serverOptions())
	b, err := New(Options{Addrs: []string{addrA, addrB}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 64
	for i := 0; i < n; i++ {
		req := sampleRequest(srvA, i)
		resp, err := b.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != serve.StatusOK {
			t.Fatalf("request %d: status %v: %s", i, resp.Status, resp.Payload)
		}
		if !bytes.Equal(resp.Payload, req.Payload) {
			t.Fatalf("request %d: response diverges from canonical payload", i)
		}
	}
	c := b.Counters()
	if got := c["serve/cluster/requests"]; got != n {
		t.Errorf("serve/cluster/requests = %v, want %d", got, n)
	}
	stats := b.NodeStats()
	var total uint64
	for i, ns := range stats {
		if ns.Requests == 0 {
			t.Errorf("node %d received no traffic", i)
		}
		total += ns.OKs
	}
	if total != n {
		t.Errorf("per-node OK sum = %d, want %d", total, n)
	}
}

// A hung node costs each request routed to it one Conn timeout, then
// the request fails over to the healthy node; after errorThreshold
// timeouts the hung node is ejected. Every caller sees an OK,
// byte-identical answer, and every request the hung node took is one
// failover retry.
func TestClusterStalledNodeFailsOver(t *testing.T) {
	stall := startBlackhole(t)
	srv, healthy := startServer(t, serverOptions())
	const (
		timeout = 300 * time.Millisecond
		workers = 8
		each    = 50
	)
	// Warm every executor of the healthy node first: a batch that builds
	// its System can outlast the timeout, fail over to the hung node and
	// fail there.
	warm := srv.InProc()
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := warm.Do(sampleRequest(srv, i)); err != nil {
					t.Error(err)
				}
			}(round*workers + w)
		}
		wg.Wait()
	}

	b, err := New(Options{
		Addrs: []string{stall, healthy},
		Dial:  serve.DialOptions{Timeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := sampleRequest(srv, w*each+i)
				start := time.Now()
				resp, err := b.Do(req)
				if err != nil || resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
					t.Errorf("worker %d request %d: err=%v status=%v, or payload differs", w, i, err, resp.Status)
					return
				}
				if waited := time.Since(start); waited > timeout+time.Second {
					t.Errorf("worker %d request %d took %v", w, i, waited)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	hung := b.NodeStats()[0]
	if !hung.Ejected {
		t.Error("hung node was never ejected")
	}
	if hung.Requests > 2*workers {
		t.Errorf("hung node took %d requests, want at most %d", hung.Requests, 2*workers)
	}
	if got := b.Counters()["serve/cluster/retries"]; got != float64(hung.Requests) {
		t.Errorf("serve/cluster/retries = %v, want the hung node's %d requests", got, hung.Requests)
	}
}

// A request fails over to each node at most once. For every routing
// sequence start the request must still reach the healthy node, also
// when that node is ejected and only Pick's all-down fallback can name
// it.
func TestClusterFailoverTriesEachNodeOnce(t *testing.T) {
	deadA, _ := startRefuser(t)
	deadB, _ := startRefuser(t)
	srv, healthy := startServer(t, serverOptions())
	for _, ejected := range []bool{false, true} {
		failures := 0
		for seq := uint64(0); seq < 64; seq++ {
			b, err := New(Options{
				Addrs:  []string{deadA, deadB, healthy},
				Health: HealthOptions{EjectDwell: time.Hour},
			})
			if err != nil {
				t.Fatal(err)
			}
			b.seq.Store(seq)
			if ejected {
				n := b.nodes[2]
				n.mu.Lock()
				n.ejectLocked()
				n.mu.Unlock()
			}
			req := sampleRequest(srv, int(seq))
			resp, err := b.Do(req)
			if err != nil || resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
				failures++
			}
			for i, ns := range b.NodeStats() {
				if ns.Requests > 1 {
					t.Errorf("healthy node ejected=%v, seq %d: node %d took %d attempts of one request", ejected, seq, i, ns.Requests)
				}
			}
			b.Close()
		}
		if failures > 0 {
			t.Errorf("healthy node ejected=%v: %d of 64 requests failed", ejected, failures)
		}
	}
}

// Transport errors must fail over to a live node, eject the dead one
// after errorThreshold consecutive errors, and — once a real daemon
// comes back on the same address — recover it through a probe request.
func TestClusterFailoverEjectRecover(t *testing.T) {
	dead, stopDead := startRefuser(t)
	srv, healthy := startServer(t, serverOptions())
	b, err := New(Options{
		Addrs:  []string{dead, healthy},
		Health: HealthOptions{EjectDwell: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 12
	for i := 0; i < n; i++ {
		req := sampleRequest(srv, i)
		resp, err := b.Do(req)
		if err != nil {
			t.Fatalf("request %d: failover did not save it: %v", i, err)
		}
		if resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
			t.Fatalf("request %d: bad response %v", i, resp.Status)
		}
	}
	c := b.Counters()
	if c["serve/cluster/retries"] == 0 {
		t.Error("no failover retries recorded against a dead node")
	}
	if c["serve/cluster/ejections"] == 0 {
		t.Error("dead node was never ejected")
	}
	stats := b.NodeStats()
	if !stats[0].Ejected {
		t.Error("dead node not marked ejected")
	}
	if stats[1].OKs != n {
		t.Errorf("healthy node served %d OKs, want %d", stats[1].OKs, n)
	}

	// Resurrect the dead address with a real daemon; after the dwell the
	// router sends node 0 a probe, which succeeds and restores it.
	stopDead()
	ln, err := net.Listen("tcp", dead)
	if err != nil {
		t.Skipf("could not rebind %s: %v", dead, err)
	}
	srv2, err := serve.NewServer(serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	go srv2.Serve(ln)

	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for i := 0; time.Now().Before(deadline); i++ {
		req := sampleRequest(srv, i)
		if _, err := b.Do(req); err != nil {
			t.Fatalf("request during recovery: %v", err)
		}
		st := b.NodeStats()
		if !st[0].Ejected && st[0].OKs > 0 {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("ejected node never recovered after the daemon came back")
	}
	if b.Counters()["serve/cluster/recoveries"] == 0 {
		t.Error("no recovery accounted")
	}
}

// An ejected node is sent a probe once its dwell has passed, and the
// probe restores it: with health polling off, that probe is the node's
// only way back into service.
func TestClusterEjectedNodeKeepsProbe(t *testing.T) {
	srv, addrA := startServer(t, serverOptions())
	_, addrB := startServer(t, serverOptions())
	const dwell = 20 * time.Millisecond
	b, err := New(Options{
		Addrs:  []string{addrA, addrB},
		Health: HealthOptions{EjectDwell: dwell},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	n0 := b.nodes[0]
	n0.mu.Lock()
	n0.ejectLocked()
	n0.mu.Unlock()
	time.Sleep(2 * dwell)

	for i := 0; i < 400; i++ {
		req := sampleRequest(srv, i)
		resp, err := b.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
			t.Fatalf("request %d: bad response %v", i, resp.Status)
		}
	}
	st := b.NodeStats()[0]
	if st.Requests == 0 {
		t.Error("ejected node never received a request after its dwell")
	}
	if st.Ejected {
		t.Error("ejected node never recovered")
	}
	if got := b.Counters()["serve/cluster/recoveries"]; got < 1 {
		t.Errorf("serve/cluster/recoveries = %v, want >= 1", got)
	}
}

// A request too large to frame is refused before any byte of it is
// written, so it says nothing about the node it was routed to: it must
// come back as serve.ErrTooLarge with no failover and eject no node.
func TestClusterOversizedRequestEjectsNoNode(t *testing.T) {
	_, addrA := startServer(t, serverOptions())
	_, addrB := startServer(t, serverOptions())
	b, err := New(Options{Addrs: []string{addrA, addrB}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	req := serve.Request{Op: serve.OpDeserialize, Schema: "varint", Payload: make([]byte, 64<<20)}
	for i := 0; i < 3; i++ {
		if _, err := b.Do(req); !errors.Is(err, serve.ErrTooLarge) {
			t.Errorf("request %d: err = %v, want serve.ErrTooLarge", i, err)
		}
	}
	for i, ns := range b.NodeStats() {
		if ns.Ejected || ns.Ejections > 0 {
			t.Errorf("node %d ejected by oversized requests: %+v", i, ns)
		}
	}
	if got := b.Counters()["serve/cluster/retries"]; got != 0 {
		t.Errorf("serve/cluster/retries = %v, want 0", got)
	}
}

// An oversized request routed to a half-open node as its probe was
// never sent, so the node must keep that probe.
func TestClusterOversizedRequestKeepsProbe(t *testing.T) {
	_, addrA := startServer(t, serverOptions())
	_, addrB := startServer(t, serverOptions())
	const dwell = 5 * time.Millisecond
	// Round-robin sends the first request to node 0.
	b, err := New(Options{
		Addrs:  []string{addrA, addrB},
		Health: HealthOptions{EjectDwell: dwell},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	n0 := b.nodes[0]
	n0.mu.Lock()
	n0.ejectLocked()
	n0.mu.Unlock()
	time.Sleep(2 * dwell)

	req := serve.Request{Op: serve.OpDeserialize, Schema: "varint", Payload: make([]byte, 64<<20)}
	if _, err := b.Do(req); !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("err = %v, want serve.ErrTooLarge", err)
	}
	if got := b.NodeStats()[0].Requests; got != 1 {
		t.Fatalf("node 0 got %d requests, want the oversized one", got)
	}
	if !n0.routable(time.Now()) {
		t.Error("half-open node lost its probe to a request that was never sent")
	}
}

// startAdmin serves srv's real admin plane (/healthz, /faultz, ...) and
// returns its host:port, the form Options.AdminAddrs takes.
func startAdmin(t *testing.T, srv *serve.Server) string {
	t.Helper()
	hs := httptest.NewServer(serve.NewAdminHandler(srv, serve.AdminOptions{}))
	t.Cleanup(hs.Close)
	return strings.TrimPrefix(hs.URL, "http://")
}

// /healthz-driven ejection against the daemon's own admin handler: a
// fault schedule switched on live through /faultz marks node 0's tile
// degraded, polls eject the node without any data-path error, no request
// reaches it while it is out, and clean polls restore it once /faultz
// switches injection off. Every response stays OK and byte-identical.
func TestClusterHealthEjection(t *testing.T) {
	srvA, addrA := startServer(t, serverOptions())
	srvB, addrB := startServer(t, serverOptions())
	adminA := startAdmin(t, srvA)
	b, err := New(Options{
		Addrs:      []string{addrA, addrB},
		AdminAddrs: []string{adminA, startAdmin(t, srvB)},
		Health: HealthOptions{
			Interval:   10 * time.Millisecond,
			EjectDwell: time.Hour, // recovery must come from polling, not a probe
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// send issues n requests and returns how many node 0 received.
	send := func(n int, phase string) uint64 {
		t.Helper()
		before := b.NodeStats()[0].Requests
		for i := 0; i < n; i++ {
			req := sampleRequest(srvA, i)
			resp, err := b.Do(req)
			if err != nil || resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
				t.Fatalf("%s: request %d: err=%v status=%v, or payload differs", phase, i, err, resp.Status)
			}
		}
		return b.NodeStats()[0].Requests - before
	}
	faultz := func(spec string) {
		t.Helper()
		resp, err := http.Get("http://" + adminA + "/faultz?tile=0&faults=" + spec)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/faultz faults=%s: %s", spec, resp.Status)
		}
	}
	waitState := func(ejected bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for b.NodeStats()[0].Ejected != ejected {
			if time.Now().After(deadline) {
				t.Fatalf("node 0 never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if got := send(8, "healthy"); got == 0 {
		t.Fatal("node 0 got no traffic before the fault")
	}

	faultz("0.9")
	waitState(true, "ejected")
	if b.Counters()["serve/cluster/ejections"] == 0 {
		t.Error("health ejection not accounted")
	}
	if got := send(8, "ejected"); got != 0 {
		t.Errorf("ejected node received %d requests", got)
	}

	faultz("off")
	waitState(false, "restored")
	if b.Counters()["serve/cluster/recoveries"] == 0 {
		t.Error("health recovery not accounted")
	}
	if got := send(8, "restored"); got == 0 {
		t.Error("traffic never returned to the restored node")
	}
}

// pollPartlyDegraded runs a pool whose node 0 is a 2-tile daemon with
// tile 0 under fault injection and the breaker element on or off, polls
// every node's /healthz every 10 ms, and once node 0 has been polled ten
// times sends 8 requests, each checked OK and byte-identical. It returns
// node 0's counters. EjectDwell is an hour, so an ejected node stays out.
func pollPartlyDegraded(t *testing.T, breaker bool) NodeCounters {
	t.Helper()
	faulty := serverOptions()
	faulty.Tiles = 2
	faulty.Faults = faults.Config{Enabled: true, Seed: 91, Rate: 0.9}
	faulty.FaultTiles = []int{0}
	faulty.Elements.Breaker = breaker
	srvA, addrA := startServer(t, faulty)
	srvB, addrB := startServer(t, serverOptions())
	if h := srvA.Health(); !h[0].Degraded || h[1].Degraded {
		t.Fatalf("node 0 tiles degraded = %v, %v, want true, false", h[0].Degraded, h[1].Degraded)
	}
	// Count node 0's polls. The poller polls one node at a time, so once
	// the eleventh /healthz request arrives the tenth report is folded in.
	var polls atomic.Int64
	admin := serve.NewAdminHandler(srvA, serve.AdminOptions{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			polls.Add(1)
		}
		admin.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)

	b, err := New(Options{
		Addrs:      []string{addrA, addrB},
		AdminAddrs: []string{strings.TrimPrefix(hs.URL, "http://"), startAdmin(t, srvB)},
		Health:     HealthOptions{Interval: 10 * time.Millisecond, EjectDwell: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	deadline := time.Now().Add(10 * time.Second)
	for polls.Load() <= 10 {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 was polled %d times in 10s", polls.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		req := sampleRequest(srvA, i)
		resp, err := b.Do(req)
		if err != nil || resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, req.Payload) {
			t.Fatalf("request %d: err=%v status=%v, or payload differs", i, err, resp.Status)
		}
	}
	return b.NodeStats()[0]
}

// A daemon's tile breaker routes around a degraded tile, so /healthz
// polls must not eject a breaker-guarded node while another of its tiles
// still serves: node 0 stays in service through ten polls and keeps
// taking requests.
func TestClusterHealthKeepsPartlyDegradedNode(t *testing.T) {
	if st := pollPartlyDegraded(t, true); st.Ejected || st.Requests == 0 {
		t.Errorf("node 0 after ten polls: ejected=%v requests=%d, want it in service", st.Ejected, st.Requests)
	}
}

// Without the breaker element a daemon keeps routing a degraded tile its
// share of requests, so one degraded tile of two makes the node sick:
// polls eject it and no request reaches it.
func TestClusterHealthEjectsNodeWithoutBreaker(t *testing.T) {
	if st := pollPartlyDegraded(t, false); !st.Ejected || st.Requests != 0 {
		t.Errorf("node 0 after ten polls: ejected=%v requests=%d, want it ejected", st.Ejected, st.Requests)
	}
}

// A /healthz body past maxHealthBody fails the poll instead of being
// decoded whole: fetching a 64 MiB status string must return an error
// and allocate a small fraction of it.
func TestClusterHealthBodyBounded(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"`)
		chunk := bytes.Repeat([]byte{'a'}, 64<<10)
		for i := 0; i < 1024; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		io.WriteString(w, `"}`)
	}))
	t.Cleanup(hs.Close)
	p := &healthPoller{client: &http.Client{Timeout: healthTimeout}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := p.fetch(strings.TrimPrefix(hs.URL, "http://"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("fetch decoded a 64 MiB /healthz body")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("fetch allocated %d MiB, want under 16", grew>>20)
	}
}

// chaos isolation: a fault-injected node degrades alone — its fallbacks
// never appear on the healthy node's counters, and every response from
// either node stays byte-identical to the canonical payload.
func TestClusterChaosIsolation(t *testing.T) {
	faulty := serverOptions()
	faulty.Faults = faults.Config{Enabled: true, Seed: 91, Rate: 0.9}
	srvFaulty, addrFaulty := startServer(t, faulty)
	srvClean, addrClean := startServer(t, serverOptions())

	// Round-robin splits the requests deterministically across both nodes.
	b, err := New(Options{Addrs: []string{addrFaulty, addrClean}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 80
	var fellBack int
	for i := 0; i < n; i++ {
		req := sampleRequest(srvFaulty, i)
		resp, err := b.Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != serve.StatusOK {
			t.Fatalf("request %d: status %v: %s", i, resp.Status, resp.Payload)
		}
		if !bytes.Equal(resp.Payload, req.Payload) {
			t.Fatalf("request %d: chaos leaked through the wire", i)
		}
		if resp.FellBack {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("fault injection at rate 0.9 produced no fallbacks; test is vacuous")
	}
	stats := b.NodeStats()
	if stats[0].Fallbacks == 0 {
		t.Error("faulted node shows no fallbacks")
	}
	if stats[1].Fallbacks != 0 {
		t.Errorf("healthy node shows %d fallbacks — leakage across nodes", stats[1].Fallbacks)
	}
	// And server-side: the clean daemon's own counters must be fallback-free.
	if v := srvClean.AggregatedCounters()["serve/fallbacks/accel"]; v != 0 {
		t.Errorf("clean daemon counted %v accel fallbacks", v)
	}
	if v := srvFaulty.AggregatedCounters()["serve/fallbacks/accel"]; v == 0 {
		t.Error("faulty daemon counted no accel fallbacks")
	}
}
