package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/telemetry"
)

// Routing.Pick over a fixed candidate set. The p2c cases run at seq 4 →
// 5, whose hash names candidates 0 and 2 of 4 and scans forward 3, 0, 1,
// 2; at seq 1 → 2 both candidates are tile 2.
func TestRoutingPick(t *testing.T) {
	cases := []struct {
		name     string
		policy   Routing
		n        int
		seq      uint64
		exclude  int
		down     []int
		score    []uint64
		want     int
		rerouted bool
	}{
		{name: "rr in order", policy: RouteRoundRobin, n: 3, seq: 1, exclude: -1, want: 1},
		{name: "rr wraps", policy: RouteRoundRobin, n: 3, seq: 3, exclude: -1, want: 0},
		{name: "rr skips down", policy: RouteRoundRobin, n: 3, seq: 0, exclude: -1, down: []int{0}, want: 1, rerouted: true},
		{name: "rr skip wraps", policy: RouteRoundRobin, n: 3, seq: 2, exclude: -1, down: []int{2}, want: 0, rerouted: true},
		{name: "rr exclude is not a reroute", policy: RouteRoundRobin, n: 3, seq: 0, exclude: 0, want: 1},
		{name: "rr all down", policy: RouteRoundRobin, n: 3, seq: 1, exclude: -1, down: []int{0, 1, 2}, want: 1},
		{name: "rr all down own excluded", policy: RouteRoundRobin, n: 3, seq: 1, exclude: 1, down: []int{0, 1, 2}, want: 2},
		{name: "p2c lower score", n: 4, seq: 4, exclude: -1, score: []uint64{5, 0, 3, 0}, want: 2},
		{name: "p2c tie to lower index", n: 4, seq: 4, exclude: -1, score: []uint64{3, 0, 3, 0}, want: 0},
		{name: "p2c one down", n: 4, seq: 4, exclude: -1, down: []int{2}, score: []uint64{9, 0, 1, 0}, want: 0, rerouted: true},
		{name: "p2c other down", n: 4, seq: 4, exclude: -1, down: []int{0}, want: 2, rerouted: true},
		{name: "p2c exclude is not a reroute", n: 4, seq: 4, exclude: 0, score: []uint64{0, 0, 9, 0}, want: 2},
		{name: "p2c both down scans", n: 4, seq: 4, exclude: -1, down: []int{0, 2}, want: 3, rerouted: true},
		{name: "p2c scan skips exclude", n: 4, seq: 4, exclude: 3, down: []int{0, 2}, want: 1, rerouted: true},
		{name: "p2c all down own choice", n: 4, seq: 4, exclude: -1, down: []int{0, 1, 2, 3}, score: []uint64{5, 0, 3, 0}, want: 2},
		{name: "p2c all down never exclude", n: 4, seq: 4, exclude: 2, down: []int{0, 1, 2, 3}, score: []uint64{5, 0, 3, 0}, want: 0},
		{name: "p2c same candidate", n: 4, seq: 1, exclude: -1, want: 2},
		{name: "p2c all down pair excluded", n: 4, seq: 1, exclude: 2, down: []int{0, 1, 2, 3}, want: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			down := make([]bool, tc.n)
			for _, i := range tc.down {
				down[i] = true
			}
			score := func(i int) uint64 {
				if tc.score == nil {
					return 0
				}
				return tc.score[i]
			}
			var seq atomic.Uint64
			seq.Store(tc.seq)
			got, rerouted := tc.policy.Pick(tc.n, &seq, tc.exclude, func(i int) bool { return !down[i] }, score)
			if got != tc.want || rerouted != tc.rerouted {
				t.Errorf("Pick = %d, rerouted %v; want %d, %v", got, rerouted, tc.want, tc.rerouted)
			}
			if seq.Load() != tc.seq+1 {
				t.Errorf("seq advanced to %d, want %d", seq.Load(), tc.seq+1)
			}
		})
	}

	// One candidate: returned at once, routable or not and excluded or
	// not, without advancing the sequence or asking anything.
	for _, policy := range []Routing{RoutePowerOfTwo, RouteRoundRobin} {
		var seq atomic.Uint64
		asked := false
		ask := func(int) bool { asked = true; return false }
		got, rerouted := policy.Pick(1, &seq, 0, ask, func(int) uint64 { asked = true; return 0 })
		if got != 0 || rerouted || asked || seq.Load() != 0 {
			t.Errorf("%v n=1: Pick = %d, rerouted %v, asked %v, seq %d", policy, got, rerouted, asked, seq.Load())
		}
	}
}

// runBatchedCounters drives one server with preformed batches and returns
// responses plus the tile-count-independent aggregated counter view.
func runBatchedCounters(t *testing.T, opts Options, reqs []Request) ([]Response, map[string]float64) {
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
	return resps, srv.AggregatedCounters()
}

// A 1-tile server and an N-tile server in deterministic round-robin mode
// must produce bitwise-identical responses and identical aggregated
// serve/ counters for the same preformed batches: sharding is a capacity
// knob, not an observable. (Responses are tile-independent under any
// routing; the aggregated counters are compared in round-robin mode,
// where batch→tile placement is a pure function of submission order.)
func TestServeTileDeterminism(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)

	one := testOptions()
	one.Tiles = 1
	one.Routing = RouteRoundRobin

	four := testOptions()
	four.Tiles = 4
	four.Routing = RouteRoundRobin
	four.Workers = 4

	ra, ca := runBatchedCounters(t, one, reqs)
	rb, cb := runBatchedCounters(t, four, reqs)

	if len(ra) != len(rb) {
		t.Fatalf("response counts differ: 1-tile=%d 4-tile=%d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Status != rb[i].Status || ra[i].FellBack != rb[i].FellBack {
			t.Errorf("response %d: status/fallback differ: 1-tile=%+v 4-tile=%+v", i, ra[i], rb[i])
		}
		if !bytes.Equal(ra[i].Payload, rb[i].Payload) {
			t.Errorf("response %d: payload bytes differ between 1-tile and 4-tile runs", i)
		}
		if ra[i].Cycles != rb[i].Cycles {
			t.Errorf("response %d: cycles differ: 1-tile=%v 4-tile=%v", i, ra[i].Cycles, rb[i].Cycles)
		}
	}
	if len(ca) != len(cb) {
		t.Fatalf("aggregated counter shapes differ: 1-tile=%d 4-tile=%d", len(ca), len(cb))
	}
	for name, va := range ca {
		vb, ok := cb[name]
		if !ok {
			t.Errorf("counter %s present in 1-tile run, missing in 4-tile run", name)
			continue
		}
		if va != vb {
			t.Errorf("counter %s: 1-tile=%v 4-tile=%v", name, va, vb)
		}
	}
}

// The per-tile groups must partition the aggregate: summing each
// execution counter across serve/tile<i>/ groups must reproduce the
// serve/ total, and with round-robin routing every tile must have run
// batches.
func TestServeTileCountersPartitionAggregate(t *testing.T) {
	opts := testOptions()
	opts.Tiles = 4
	opts.Routing = RouteRoundRobin
	opts.Workers = 4
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	if _, err := client.DoBatch(sampleRequests(DefaultCatalog(), 8)); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	snap := srv.TelemetrySnapshot()
	counters := make(map[string]float64, snap.Len())
	for _, sm := range snap.Samples() {
		counters[sm.Name] = sm.Value
	}
	for _, name := range []string{
		"batches", "batch_requests", "fallbacks/accel", "fallbacks/server", "retries",
		"queue/depth", "cycles/accel", "cycles/fsm", "cycles/supply", "cycles/spill", "cycles/adt_stall",
	} {
		var sum float64
		for i := 0; i < opts.Tiles; i++ {
			sum += counters[fmt.Sprintf("serve/tile%d/%s", i, name)]
		}
		if total := counters["serve/"+name]; sum != total {
			t.Errorf("%s: per-tile sum %v != aggregate %v", name, sum, total)
		}
	}
	for i := 0; i < opts.Tiles; i++ {
		if counters[fmt.Sprintf("serve/tile%d/batches", i)] == 0 {
			t.Errorf("tile %d ran no batches under round-robin routing", i)
		}
	}
}

// With the fault schedule confined to one tile, that tile must degrade
// alone: its neighbours keep serving on the accelerator path with zero
// fault activity (no injections in their System aggregates, no fallbacks
// or retries in their serve counters), and every response — from the
// poisoned tile included — stays byte-identical to the software codec.
func TestServeTileFaultQuarantine(t *testing.T) {
	const faultTile = 1
	opts := testOptions()
	opts.Tiles = 4
	opts.Routing = RouteRoundRobin
	opts.Workers = 4
	opts.Faults = faults.Config{Enabled: true, Seed: 1234, Rate: 0.2}
	opts.FaultTiles = []int{faultTile}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sampleRequests(DefaultCatalog(), 16)
	client := srv.InProc()
	resps, err := client.DoBatch(reqs)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %v under quarantined faults: %s", i, resp.Status, resp.Payload)
		}
		if !bytes.Equal(resp.Payload, reqs[i].Payload) {
			t.Errorf("request %d: response diverges from software codec (fellBack=%v)", i, resp.FellBack)
		}
	}
	var faultActivity float64
	for i, tile := range srv.tiles {
		tile.mu.Lock()
		var injected float64
		for _, sm := range tile.sysSum.Snapshot().Samples() {
			if len(sm.Name) > 7 && sm.Name[:7] == "faults/" {
				injected += sm.Value
			}
		}
		tile.mu.Unlock()
		accelFB, serverFB, retries := tile.accelFallbacks.Load(), tile.serverFallbacks.Load(), tile.retries.Load()
		if i == faultTile {
			faultActivity = injected + float64(retries+accelFB+serverFB)
			continue
		}
		if accelFB != 0 || serverFB != 0 || retries != 0 {
			t.Errorf("healthy tile %d shows fault recovery: accelFB=%d serverFB=%d retries=%d",
				i, accelFB, serverFB, retries)
		}
		if injected != 0 {
			t.Errorf("healthy tile %d injected %v faults", i, injected)
		}
		if tile.batches.Load() == 0 {
			t.Errorf("healthy tile %d served no batches while tile %d was poisoned", i, faultTile)
		}
	}
	if faultActivity == 0 {
		t.Errorf("fault schedule at rate 0.2 never fired on tile %d", faultTile)
	}
}

// runBatchSnapshot runs one exact-mode batch on tl the way runBatch does,
// and returns the batch System's counter snapshot taken just before the
// tile adds the System into its sum.
func runBatchSnapshot(t *testing.T, srv *Server, tl *tile, reqs []Request) telemetry.Snapshot {
	t.Helper()
	live := make([]*pending, len(reqs))
	for i, r := range reqs {
		p, ok := srv.admit("test", r, nil)
		if !ok {
			t.Fatalf("request %d rejected at admission: %+v", i, <-p.resp)
		}
		live[i] = p
	}
	sys, err := tl.checkout(live[0].entry)
	if err != nil {
		t.Fatal(err)
	}
	sys.Telemetry().EnableAttribution(true)
	if reqs[0].Op == OpSerialize {
		tl.runSerialize(sys, live, nil, time.Now())
	} else {
		tl.runDeserialize(sys, live, nil, time.Now())
	}
	snap := sys.Telemetry().Registry.Snapshot()
	tl.absorb(sys)
	tl.pool.Put(sys)
	for i, p := range live {
		if resp := <-p.resp; resp.Status != StatusOK || !bytes.Equal(resp.Payload, reqs[i].Payload) {
			t.Fatalf("request %d: status %v, payload equal %v", i, resp.Status, bytes.Equal(resp.Payload, reqs[i].Payload))
		}
	}
	return snap
}

// A tile adds its batch Systems' counters by position. That must equal
// the by-name Aggregate of the batches' snapshots, sample for sample, also
// across a SetTileFaults swap mid-run: Systems built under the new fault
// schedule have the old Systems' counter shape.
func TestTileSumMatchesAggregate(t *testing.T) {
	opts := testOptions() // MaxBatch 4
	opts.Workers = 1
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tl := srv.tiles[0]
	reqs := sampleRequests(srv.Catalog(), 8)
	var agg telemetry.Aggregate
	var shapes [2][]string
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if err := srv.SetTileFaults(0, faults.Config{Enabled: true, Seed: 7, Rate: 0.2}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(reqs); {
			j := i + 1
			for j < len(reqs) && j-i < opts.MaxBatch && reqs[j].Schema == reqs[i].Schema && reqs[j].Op == reqs[i].Op {
				j++
			}
			snap := runBatchSnapshot(t, srv, tl, reqs[i:j])
			agg.Add(snap)
			if shapes[pass] == nil {
				for _, sm := range snap.Samples() {
					shapes[pass] = append(shapes[pass], sm.Name)
				}
			}
			i = j
		}
	}
	if !reflect.DeepEqual(shapes[0], shapes[1]) {
		t.Fatalf("Systems changed counter shape across the fault swap:\n%v\n%v", shapes[0], shapes[1])
	}
	tl.mu.Lock()
	got := tl.sysSum.Snapshot().Samples()
	tl.mu.Unlock()
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	want := agg.Snapshot().Samples()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tile sum differs from the aggregate of its batches:\n got %v\nwant %v", got, want)
	}
	var trials float64
	for _, sm := range want {
		if strings.HasPrefix(sm.Name, "faults/") && strings.HasSuffix(sm.Name, "/trials") {
			trials += sm.Value
		}
	}
	if trials == 0 {
		t.Error("no fault trials after the swap: the batches never ran on the new schedule")
	}
}

// Absorbing a batch on a warmed tile allocates nothing: the tile's sum
// holds the Systems' counter shape after the first batch, and adding a
// System by position builds no counter name.
func TestTileAbsorbAllocs(t *testing.T) {
	srv, err := NewServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.InProc().DoBatch(sampleRequests(srv.Catalog(), 4)); err != nil {
		t.Fatal(err)
	}
	tl := srv.tiles[0]
	sys, err := tl.checkout(srv.Catalog().Lookup("mixed"))
	if err != nil {
		t.Fatal(err)
	}
	defer tl.pool.Put(sys)
	if n := testing.AllocsPerRun(100, func() { tl.absorb(sys) }); n != 0 {
		t.Errorf("absorb allocates %v per batch on a warmed tile, want 0", n)
	}
}

// A queued job carrying more pendings than MaxBatch must be flushed in
// MaxBatch-sized chunks: submitting the accumulated group whole would
// produce a batch larger than the Systems were sized for. 9 pendings at
// MaxBatch 4 must run as ceil(9/4) = 3 batches, not 1.
func TestDispatchFlushChunksAtMaxBatch(t *testing.T) {
	opts := testOptions() // MaxBatch 4
	opts.Workers = 1
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	entry := srv.Catalog().Lookup("varint")
	const n = 9
	var pendings []*pending
	for i := 0; i < n; i++ {
		p, ok := srv.admit("test", Request{ID: uint64(i + 1), Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(i)}, nil)
		if !ok {
			t.Fatalf("request %d rejected at admission: %+v", i, <-p.resp)
		}
		pendings = append(pendings, p)
	}
	// A single non-preformed job carrying every pending: the dispatcher
	// must not hand this to an executor in one piece.
	srv.tiles[0].queue <- batchJob{key: batchKey{schema: "varint", op: OpDeserialize}, pendings: pendings}
	for i, p := range pendings {
		resp := <-p.resp
		if resp.Status != StatusOK {
			t.Fatalf("pending %d: status %v: %s", i, resp.Status, resp.Payload)
		}
		if !bytes.Equal(resp.Payload, entry.SamplePayload(i)) {
			t.Errorf("pending %d: payload diverges", i)
		}
	}
	srv.Close()
	snap := srv.TelemetrySnapshot()
	batches, _ := snap.Get("serve/batches")
	batchReqs, _ := snap.Get("serve/batch_requests")
	if batchReqs != n {
		t.Errorf("batch_requests = %v, want %d", batchReqs, n)
	}
	want := float64((n + opts.MaxBatch - 1) / opts.MaxBatch)
	if batches != want {
		t.Errorf("a %d-pending job at MaxBatch %d ran as %v batches, want %v (MaxBatch-sized chunks)",
			n, opts.MaxBatch, batches, want)
	}
}

// The dispatcher's arrival record, fed fabricated take times. With a
// weight of 1/8, a 2 ms mean gap falls below a 200µs window after 20
// gaps of 50µs, not 19.
func TestArrivalSparse(t *testing.T) {
	const window = 200 * time.Microsecond
	repeat := func(n int, d time.Duration) []time.Duration {
		gaps := make([]time.Duration, n)
		for i := range gaps {
			gaps[i] = d
		}
		return gaps
	}
	cases := []struct {
		name   string
		takes  int             // takes before the gaps below
		gaps   []time.Duration // then one take after each gap
		sparse bool
	}{
		{name: "never taken", sparse: true},
		{name: "one take, no gap yet", takes: 1, sparse: true},
		{name: "steady gaps under the window", takes: 1, gaps: repeat(16, 50*time.Microsecond), sparse: false},
		{name: "one gap just under", takes: 1, gaps: []time.Duration{window - 1}, sparse: false},
		{name: "one gap equal to the window", takes: 1, gaps: []time.Duration{window}, sparse: false},
		{name: "steady gaps over the window", takes: 1, gaps: repeat(16, 2*time.Millisecond), sparse: true},
		{name: "sparse, 19 short gaps", takes: 1, gaps: append(repeat(8, 2*time.Millisecond), repeat(19, 50*time.Microsecond)...), sparse: true},
		{name: "sparse, 20 short gaps", takes: 1, gaps: append(repeat(8, 2*time.Millisecond), repeat(20, 50*time.Microsecond)...), sparse: false},
		{name: "dense, one long gap", takes: 1, gaps: append(repeat(8, 50*time.Microsecond), 2*time.Millisecond), sparse: true},
	}
	for _, c := range cases {
		var a arrival
		now := time.Unix(1000, 0)
		for i := 0; i < c.takes; i++ {
			a.note(now)
		}
		for _, g := range c.gaps {
			now = now.Add(g)
			a.note(now)
		}
		if got := a.sparse(window); got != c.sparse {
			t.Errorf("%s: sparse = %v (mean gap %v, has gap %v), want %v", c.name, got, a.gap, a.hasGap, c.sparse)
		}
	}
}

// On an idle server every key is sparse (no arrival gap yet), so the
// first request on each (schema, op) is answered without waiting out the
// window, however long the window is.
func TestSparseKeyFlushesAtOnce(t *testing.T) {
	opts := testOptions()
	opts.BatchWindow = time.Second
	opts.Deadline = 10 * time.Second
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	for _, name := range srv.Catalog().Names() {
		payload := srv.Catalog().Lookup(name).SamplePayload(0)
		for _, op := range []Op{OpDeserialize, OpSerialize} {
			start := time.Now()
			resp, err := client.Do(Request{Op: op, Schema: name, Payload: payload})
			took := time.Since(start)
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("%s/%v: status %v, err %v", name, op, resp.Status, err)
			}
			if took >= opts.BatchWindow/2 {
				t.Errorf("%s/%v: first request on an idle server took %v; a sparse key must not wait out the %v window",
					name, op, took, opts.BatchWindow)
			}
		}
	}
}

// A dense key keeps the window: once a key's arrivals are closer together
// than the window, its under-full batch waits for partners even with the
// queue empty, so MaxBatch requests sent together after the key's first
// (sparse, unpartnered) request run as one batch, flushed at MaxBatch.
func TestDenseKeyWaitsForPartners(t *testing.T) {
	opts := testOptions() // MaxBatch 4
	opts.BatchWindow = time.Second
	opts.Deadline = 10 * time.Second
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	req := Request{Op: OpDeserialize, Schema: "varint", Payload: srv.Catalog().Lookup("varint").SamplePayload(0)}
	if resp, err := client.Do(req); err != nil || resp.Status != StatusOK {
		t.Fatalf("first request: status %v, err %v", resp.Status, err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < opts.MaxBatch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := client.Do(req); err != nil || resp.Status != StatusOK {
				t.Errorf("partnered request: status %v, err %v", resp.Status, err)
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	tl := srv.tiles[0]
	batches, reqs := tl.batches.Load(), tl.batchRequests.Load()
	if batches != 2 || reqs != uint64(1+opts.MaxBatch) {
		t.Errorf("%d requests ran as %d batches, want 2: the first alone, then one batch of %d", reqs, batches, opts.MaxBatch)
	}
	if took >= opts.BatchWindow/2 {
		t.Errorf("a full batch took %v; it must flush at MaxBatch, not wait out the %v window", took, opts.BatchWindow)
	}
}

// The dispatcher re-arms its window timer only when a group opens or
// flushes, so every flush must re-arm it for the next open deadline.
// Three dense keys share a 300 ms window: C's group opens first, then A's,
// then B fills to MaxBatch and flushes at once. When C's window expires,
// the timer fires and flushes C, and that flush must re-arm the timer for
// A: A's request comes back about one window after it arrived, not at the
// next unrelated event (here there is none until the server closes).
func TestDispatchRearmsAfterFlush(t *testing.T) {
	const window = 300 * time.Millisecond
	opts := testOptions() // MaxBatch 4
	opts.Workers = 1
	opts.BatchWindow = window
	opts.Deadline = time.Minute
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := func(schema string, op Op) Request {
		return Request{Op: op, Schema: schema, Payload: srv.Catalog().Lookup(schema).SamplePayload(0)}
	}
	a, b, c := req("varint", OpDeserialize), req("string", OpDeserialize), req("mixed", OpSerialize)
	// A key's first request is sparse (no arrival gap yet) and answered at
	// once; the next one, a gap well under the window later, is dense.
	client := srv.InProc()
	for _, r := range []Request{c, a, b} {
		if resp, err := client.Do(r); err != nil || resp.Status != StatusOK {
			t.Fatalf("%s/%v first request: status %v, err %v", r.Schema, r.Op, resp.Status, err)
		}
	}
	wait := func(name string, ch <-chan Response, sent time.Time) time.Duration {
		t.Helper()
		select {
		case resp := <-ch:
			if resp.Status != StatusOK {
				t.Fatalf("%s: status %v: %s", name, resp.Status, resp.Payload)
			}
			return time.Since(sent)
		case <-time.After(5 * window):
			t.Fatalf("%s: no response %v after it arrived; a %v window must flush it (was the timer re-armed after the last flush?)",
				name, time.Since(sent), window)
			return 0
		}
	}

	cSent := time.Now()
	cResp := srv.submit("test", c, nil)
	time.Sleep(window / 6) // C's window ends 50 ms before A's
	aSent := time.Now()
	aResp := srv.submit("test", a, nil)
	bSent := time.Now()
	bResps := make([]<-chan Response, opts.MaxBatch)
	for i := range bResps {
		bResps[i] = srv.submit("test", b, nil)
	}
	for i, ch := range bResps {
		if took := wait(fmt.Sprintf("B %d", i), ch, bSent); took >= window/2 {
			t.Errorf("B request %d took %v; a full batch must flush at MaxBatch, not wait out the %v window", i, took, window)
		}
	}
	if took := wait("C", cResp, cSent); took < window/2 {
		t.Errorf("C came back after %v; a dense key's under-full batch must wait for its %v window", took, window)
	}
	took := wait("A", aResp, aSent)
	if took < window/2 || took >= 2*window {
		t.Errorf("A came back %v after it arrived, want about one %v window", took, window)
	}
	tl := srv.tiles[0]
	if batches := tl.batches.Load(); batches != 6 {
		t.Errorf("ran %d batches, want 6: three first requests, then C, B and A", batches)
	}
}

// Sample payloads for two equal-length schema names must come from
// distinct RNG streams. The original seed — the name's length — made
// "varint" and "string" draw identical random sequences, so their payload
// streams were correlated across schemas.
func TestCatalogSeedsDistinctForEqualLengthNames(t *testing.T) {
	if sampleSeed("varint") == sampleSeed("string") {
		t.Fatal("equal-length schema names still collide on the sample-payload seed")
	}
	// Two entries over the same type with the same population function:
	// only the entry name (same length!) differs, so any payload
	// divergence can come solely from the seed.
	typ := mustType("SeedProbe",
		&schema.Field{Name: "f1", Number: 1, Kind: schema.KindUint64})
	pop := func(i int, rng *rand.Rand) *dynamic.Message {
		m := dynamic.New(typ)
		m.SetUint64(1, rng.Uint64())
		return m
	}
	a := newEntry("aaaa", typ, pop)
	b := newEntry("bbbb", typ, pop)
	same := 0
	for i := 0; i < a.NumSamples(); i++ {
		if bytes.Equal(a.SamplePayload(i), b.SamplePayload(i)) {
			same++
		}
	}
	if same == a.NumSamples() {
		t.Errorf("equal-length names %q and %q produced identical payload streams (%d/%d samples equal)",
			a.Name, b.Name, same, a.NumSamples())
	}
}
