package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
	"protoacc/internal/serve/elements"
	"protoacc/internal/workloads"
)

// workload names one request path. The trace, rates and in-flight counts
// are the same on every workload, so a difference between two workloads
// is the layer one path has and the other lacks. README.md records why
// each was chosen and which metrics it should move.
type workload struct {
	name    string
	tcp     bool // requests cross loopback TCP through serve.Conn
	cluster bool // two servers behind a cluster.Balancer, element chain on
}

var allWorkloads = []workload{
	{name: "fleet-inproc"},
	{name: "fleet-loopback", tcp: true},
	{name: "cluster-cached", tcp: true, cluster: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Load shape shared by every workload.
const (
	// inFlight is the closed-loop request count of the capacity phase:
	// 8 × MaxBatch. The six (schema, op) streams split the requests in
	// flight, and below ~64 an under-full batch waits out the coalescing
	// window, so throughput falls off a cliff (in a prototype on 2 vCPUs,
	// fleet-inproc did ~12k req/s at 16 in flight and ~190k at 128).
	inFlight = 128
	// pacedRate is the open-loop rate of the latency phase in req/s,
	// under a tenth of each workload's capacity.
	pacedRate = 4000
	// fillRate is the per-client admission rate on cluster-cached, far
	// above what one client connection can offer, so nothing is throttled.
	fillRate = 10_000_000
	// subTraces is how many independently seeded Synthesize traces make up
	// the replayed trace. Zipf keys put a quarter of one trace's records
	// on its hottest key, so one trace's mix, and every metric with it,
	// depends on which schema and size that key drew; interleaving
	// several traces keeps the fleet shape but averages that draw out.
	subTraces = 64
)

// env is one run's system under test: the trace resolved into requests,
// the servers, and the clients the load phases drive.
type env struct {
	w       workload
	cat     *serve.Catalog
	records []workloads.Record
	reqs    []serve.Request // trace records as requests, in trace order
	costs   *workloads.CostTable

	servers []*serve.Server
	addrs   []string
	bal     *cluster.Balancer // cluster-cached only
	clients []serve.Doer      // one per connection; in-flight requests share them

	serveWG sync.WaitGroup // Server.Serve goroutines

	synth, calib time.Duration
	warm         tally
}

// setup builds everything a run needs before its first timed request:
// catalog, trace, servers, listeners, connections, a warm-up pass that
// builds the pools' Systems (and fills both caches on cluster-cached),
// and the Xeon cost calibration the simulated pass divides by.
func setup(w workload, seed int64) (*env, error) {
	e := &env{w: w, cat: serve.DefaultCatalog()}
	t0 := time.Now()
	var err error
	if e.records, err = synthesize(e.cat, seed); err != nil {
		return nil, err
	}
	e.synth = time.Since(t0)
	e.reqs = make([]serve.Request, len(e.records))
	for i, r := range e.records {
		e.reqs[i] = serve.Request{Op: r.Op, Schema: r.Schema, Payload: e.cat.Lookup(r.Schema).SamplePayload(r.Sample)}
	}

	nodes := 1
	opts := serve.Options{Catalog: e.cat}
	if w.cluster {
		nodes = 2
		opts.Elements = elements.Config{Admission: true, Breaker: true, Cache: true, FillRate: fillRate}
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	for i := 0; i < nodes; i++ {
		srv, err := serve.NewServer(opts)
		if err != nil {
			return nil, err
		}
		e.servers = append(e.servers, srv)
	}
	if err := e.connect(); err != nil {
		return nil, err
	}
	if w.cluster {
		// Fill each node's cache with every distinct request, so the
		// measured phases hit on whichever node the balancer picks.
		for _, srv := range e.servers {
			t, _, _ := e.prefill(srv.InProc(), e.distinct())
			e.warm.merge(t)
		}
	}
	e.warm.merge(closedLoop(e, e.clients, nil, len(e.reqs)/subTraces, 0).tally)
	if e.warm.failed() > 0 {
		return nil, fmt.Errorf("warm-up failed: %s", e.warm)
	}
	t0 = time.Now()
	e.costs, err = workloads.CalibrateCosts(e.cat)
	if err != nil {
		return nil, err
	}
	e.calib = time.Since(t0)
	ok = true
	return e, nil
}

// synthesize builds the replayed trace: subTraces Synthesize traces
// seeded from seed, interleaved record by record so every stretch of the
// replay samples every sub-trace.
func synthesize(cat *serve.Catalog, seed int64) ([]workloads.Record, error) {
	var subs [][]workloads.Record
	for i := int64(0); i < subTraces; i++ {
		tr, err := workloads.Synthesize(workloads.SynthOptions{Seed: seed*subTraces + i, Catalog: cat})
		if err != nil {
			return nil, err
		}
		subs = append(subs, tr.Records)
	}
	var out []workloads.Record
	for j := range subs[0] {
		for _, sub := range subs {
			out = append(out, sub[j])
		}
	}
	return out, nil
}

// connect opens the workload's client connections: nproc in-process
// clients, nproc loopback connections, or one balancer holding one
// connection per node.
func (e *env) connect() error {
	nconn := runtime.GOMAXPROCS(0)
	if !e.w.tcp {
		for i := 0; i < nconn; i++ {
			e.clients = append(e.clients, e.servers[0].InProc())
		}
		return nil
	}
	for _, srv := range e.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.addrs = append(e.addrs, ln.Addr().String())
		e.serveWG.Add(1)
		go func(srv *serve.Server) {
			defer e.serveWG.Done()
			_ = srv.Serve(ln) // nil once Server.Close closes the listener; a failed accept loop shows as failed requests
		}(srv)
	}
	if e.w.cluster {
		bal, err := cluster.New(cluster.Options{Addrs: e.addrs})
		if err != nil {
			return err
		}
		e.bal = bal
		e.clients = []serve.Doer{bal}
		return nil
	}
	for i := 0; i < nconn; i++ {
		c, err := serve.Dial(e.addrs[0])
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	return nil
}

// close stops clients, then servers, waits for the accept loops, and
// hands the servers' simulated memory back to the OS, so later phases of
// the run do not hold two servers' worth of it.
func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	for _, srv := range e.servers {
		srv.Close()
	}
	e.serveWG.Wait()
	e.clients, e.servers, e.bal = nil, nil, nil
	debug.FreeOSMemory()
}

// distinct returns the index of the first trace record of every
// distinct (schema, op, payload).
func (e *env) distinct() []int {
	type key struct {
		schema string
		op     serve.Op
		sample int
	}
	seen := make(map[key]bool)
	var out []int
	for i, r := range e.records {
		k := key{r.Schema, r.Op, r.Sample}
		if !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// prefillChunk is the DoBatch chunk size for preformed batches: four
// MaxBatch batches, far below the tile queue's 1024 slots, so a chunk
// never sheds. One DoBatch over a 4096-request trace sheds most of it.
const prefillChunk = 64

// grouped returns the indices of e.reqs in (schema, op) order, trace
// order inside a group, so consecutive DoBatch requests form full
// MaxBatch batches.
func (e *env) grouped(idx []int) []int {
	out := append([]int(nil), idx...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := e.reqs[out[i]], e.reqs[out[j]]
		if a.Schema != b.Schema {
			return a.Schema < b.Schema
		}
		return a.Op < b.Op
	})
	return out
}

// prefill runs the requests e.reqs[idx] through c as preformed batches in
// grouped order and byte-checks every response. It returns the responses
// parallel to order.
func (e *env) prefill(c *serve.InProc, idx []int) (t tally, order []int, resps []serve.Response) {
	order = e.grouped(idx)
	resps = make([]serve.Response, len(order))
	for lo := 0; lo < len(order); lo += prefillChunk {
		hi := min(lo+prefillChunk, len(order))
		chunk := make([]serve.Request, 0, hi-lo)
		for _, i := range order[lo:hi] {
			chunk = append(chunk, e.reqs[i])
		}
		out, err := c.DoBatch(chunk)
		for j := range chunk {
			if err == nil {
				resps[lo+j] = out[j]
			}
			t.note(resps[lo+j], err, chunk[j].Payload)
		}
	}
	return t, order, resps
}

// tally counts one phase's outcomes.
type tally struct {
	attempted, ok, shed, throttled, deadline, bad, errored, mismatch uint64
}

// note classifies one response; OK responses must equal want byte for
// byte (sample payloads are canonical, so both ops echo them).
func (t *tally) note(resp serve.Response, err error, want []byte) bool {
	t.attempted++
	switch {
	case err != nil:
		t.errored++
	case resp.Status == serve.StatusOK:
		if !bytes.Equal(resp.Payload, want) {
			t.mismatch++
			return false
		}
		t.ok++
		return true
	case resp.Status == serve.StatusShed:
		t.shed++
	case resp.Status == serve.StatusThrottled:
		t.throttled++
	case resp.Status == serve.StatusDeadline:
		t.deadline++
	case resp.Status == serve.StatusBadRequest:
		t.bad++
	default:
		t.errored++
	}
	return false
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.shed += o.shed
	t.throttled += o.throttled
	t.deadline += o.deadline
	t.bad += o.bad
	t.errored += o.errored
	t.mismatch += o.mismatch
}

// failed is every attempted request that did not end in a verified OK.
func (t tally) failed() uint64 { return t.attempted - t.ok }

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d ok=%d shed=%d throttled=%d deadline=%d bad=%d error=%d mismatch=%d",
		t.attempted, t.ok, t.shed, t.throttled, t.deadline, t.bad, t.errored, t.mismatch)
}
