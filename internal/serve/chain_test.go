package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/serve/elements"
	"protoacc/internal/telemetry"
)

// allElements enables the full chain with admission made transparent:
// closed-loop test clients burst far past any realistic per-client rate,
// and these tests exercise the cache and breaker, not throttling.
func allElements() elements.Config {
	return elements.Config{Admission: true, Breaker: true, Cache: true, FillRate: 1e9}
}

// The chain must be byte-transparent: with a fault schedule poisoning one
// tile, a chain-off server and a chain-on server (breaker rerouting, cache
// answering repeats) must produce identical (status, payload) streams for
// the same requests — including the second round, which the chain-on
// server answers partly from cache. FellBack and Cycles may differ (a
// rerouted or cached request legitimately avoids the fault recovery the
// chain-off server went through); the bytes may not.
func TestServeElementsByteTransparency(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 12)
	base := testOptions()
	base.Tiles = 4
	base.Workers = 4
	base.Faults = faults.Config{Enabled: true, Seed: 1234, Rate: 0.2}
	base.FaultTiles = []int{1}

	run := func(opts Options) ([]Response, *Server) {
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		client := srv.InProc()
		var all []Response
		for round := 0; round < 2; round++ {
			resps, err := client.DoBatch(append([]Request(nil), reqs...))
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			all = append(all, resps...)
		}
		srv.Close()
		return all, srv
	}

	off := base
	ra, _ := run(off)

	on := base
	on.Elements = allElements()
	rb, srv := run(on)

	if len(ra) != len(rb) {
		t.Fatalf("response counts differ: off=%d on=%d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Status != rb[i].Status {
			t.Errorf("response %d: status off=%v on=%v", i, ra[i].Status, rb[i].Status)
		}
		if !bytes.Equal(ra[i].Payload, rb[i].Payload) {
			t.Errorf("response %d: payload bytes differ between chain-off and chain-on", i)
		}
	}
	_, hits, _, _, _, _ := srv.Elements().Cache.Stats()
	if hits == 0 {
		t.Error("repeated round produced no cache hits; transparency was not exercised through the cache path")
	}
}

// Per-client admission control: a client pushing past its bucket is
// answered StatusThrottled without the server doing work, the rejection
// shows up in both the serve/responses/ and serve/elements/admission/
// counters, and a second client's fresh bucket is unaffected.
func TestServeElementsAdmissionThrottle(t *testing.T) {
	opts := testOptions()
	opts.Elements = elements.Config{Admission: true, FillRate: 1} // burst = 2
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	entry := srv.Catalog().Lookup("varint")
	var ok, throttled int
	for i := 0; i < 8; i++ {
		resp, err := client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(i)})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusThrottled:
			throttled++
		default:
			t.Fatalf("request %d: status %v", i, resp.Status)
		}
	}
	if ok < 2 {
		t.Errorf("burst of 2 admitted only %d requests", ok)
	}
	if throttled == 0 {
		t.Error("8 rapid requests at fill rate 1/s were never throttled")
	}
	// A distinct client identity starts with its own full bucket.
	resp, err := srv.InProc().Do(Request{Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(0)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Errorf("fresh client throttled by another client's spend: %v", resp.Status)
	}

	srv.Close()
	snap := srv.TelemetrySnapshot()
	if v, _ := snap.Get("serve/responses/throttled"); v != float64(throttled) {
		t.Errorf("serve/responses/throttled = %v, want %d", v, throttled)
	}
	if v, _ := snap.Get("serve/elements/admission/throttled"); v != float64(throttled) {
		t.Errorf("serve/elements/admission/throttled = %v, want %d", v, throttled)
	}
	if v, _ := snap.Get("serve/elements/admission/allowed"); v != float64(ok+1) {
		t.Errorf("serve/elements/admission/allowed = %v, want %d", v, ok+1)
	}
}

// The breaker chaos drill, end to end over the admin plane: faults on one
// tile trip its breaker while the healthy tiles keep serving with zero
// fault recovery of their own; /healthz reports the tripped state;
// clearing the fault schedule through /faultz lets half-open probes
// re-admit the tile without operator action.
func TestServeElementsBreakerTripAndRecover(t *testing.T) {
	const faultTile = 1
	opts := testOptions()
	opts.Tiles = 4
	opts.Workers = 4
	opts.Faults = faults.Config{Enabled: true, Seed: 1234, Rate: 0.9}
	opts.FaultTiles = []int{faultTile}
	opts.Elements = elements.Config{Breaker: true}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewAdminHandler(srv, AdminOptions{}))
	defer ts.Close()
	br := srv.Elements().Breaker
	client := srv.InProc()
	reqs := sampleRequests(DefaultCatalog(), 8)

	drive := func(until func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !until() {
			if time.Now().After(deadline) {
				t.Fatalf("breaker never %s; states=%+v", what, br.TileStates(time.Now()))
			}
			if _, err := client.DoBatch(append([]Request(nil), reqs...)); err != nil {
				t.Fatal(err)
			}
		}
	}

	drive(func() bool { return br.StateOf(faultTile) != elements.StateClosed }, "tripped")

	// While the faulted tile is tripped, its neighbours must be clean:
	// faults are tile-confined and an open breaker cannot push work onto
	// them through fallback paths.
	for i, tile := range srv.tiles {
		if i == faultTile {
			continue
		}
		accelFB, serverFB, retries := tile.accelFallbacks.Load(), tile.serverFallbacks.Load(), tile.retries.Load()
		if accelFB != 0 || serverFB != 0 || retries != 0 {
			t.Errorf("healthy tile %d shows fault recovery while tile %d is tripped: accelFB=%d serverFB=%d retries=%d",
				i, faultTile, accelFB, serverFB, retries)
		}
	}

	// /healthz must expose the breaker state, trip count, and totals.
	var hdoc struct {
		Status string       `json:"status"`
		Totals healthTotals `json:"totals"`
		Tiles  []TileHealth `json:"tiles"`
	}
	body := adminGet(t, ts, "/healthz")
	if err := json.Unmarshal(body, &hdoc); err != nil {
		t.Fatalf("/healthz decode: %v\n%s", err, body)
	}
	th := hdoc.Tiles[faultTile]
	if th.Breaker != "open" && th.Breaker != "half-open" {
		t.Errorf("/healthz tile %d breaker = %q, want open or half-open", faultTile, th.Breaker)
	}
	if th.BreakerTrips == 0 {
		t.Errorf("/healthz tile %d breaker_trips = 0 after a trip", faultTile)
	}
	if !th.Degraded {
		t.Errorf("/healthz tile %d not degraded with a non-closed breaker", faultTile)
	}
	for i, h := range hdoc.Tiles {
		if i != faultTile && h.Breaker != "closed" {
			t.Errorf("/healthz healthy tile %d breaker = %q", i, h.Breaker)
		}
	}

	// Stop injection through the chaos-drill control, then keep routing
	// pressure on: the open dwell expires, half-open probes run clean, and
	// the breaker re-closes.
	body = adminGet(t, ts, fmt.Sprintf("/faultz?tile=%d&faults=off", faultTile))
	if srv.TileFaults(faultTile).Enabled {
		t.Fatalf("/faultz did not clear tile %d schedule: %s", faultTile, body)
	}
	drive(func() bool { return br.StateOf(faultTile) == elements.StateClosed }, "re-closed after faults cleared")

	evs := br.Events()
	if len(evs) == 0 {
		t.Fatal("no breaker transition events recorded")
	}
	if evs[0].Tile != faultTile || evs[0].From != "closed" || evs[0].To != "open" {
		t.Errorf("first transition = %+v, want tile %d closed→open", evs[0], faultTile)
	}
	last := evs[len(evs)-1]
	if last.Tile != faultTile || last.To != "closed" {
		t.Errorf("last transition = %+v, want tile %d re-closing", last, faultTile)
	}
	for _, ev := range evs {
		if ev.Tile != faultTile {
			t.Errorf("transition on healthy tile: %+v", ev)
		}
	}

	// /statusz carries the same lifecycle for operators.
	var sdoc Statusz
	body = adminGet(t, ts, "/statusz")
	if err := json.Unmarshal(body, &sdoc); err != nil {
		t.Fatalf("/statusz decode: %v", err)
	}
	if sdoc.Elements == nil || sdoc.Elements.Breaker == nil {
		t.Fatal("/statusz has no elements.breaker section with the breaker enabled")
	}
	if len(sdoc.Elements.Breaker.Events) == 0 {
		t.Error("/statusz breaker event timeline empty after a trip/recover cycle")
	}
	if got := sdoc.Elements.Breaker.Tiles[faultTile].Trips; got == 0 {
		t.Error("/statusz breaker trips = 0 after a trip")
	}

	srv.Close()
	snap := srv.TelemetrySnapshot()
	if v, _ := snap.Get("serve/elements/breaker/trips"); v == 0 {
		t.Error("serve/elements/breaker/trips = 0")
	}
	if v, _ := snap.Get("serve/elements/breaker/closes"); v == 0 {
		t.Error("serve/elements/breaker/closes = 0 after recovery")
	}
	if v, _ := snap.Get("serve/elements/breaker/reroutes"); v == 0 {
		t.Error("serve/elements/breaker/reroutes = 0: the router never steered around the open tile")
	}
}

// A request shed at a full queue never runs, so no outcome grades it: it
// must not spend the probe budget of the half-open tile it was routed
// to, or that tile stays unroutable while any other tile is routable.
func TestShedRequestKeepsHalfOpenProbe(t *testing.T) {
	opts := testOptions()
	opts.Tiles = 2
	opts.Elements = elements.Config{Breaker: true}
	// Two tiles with full queues and no dispatcher, so every job is shed.
	s := &Server{opts: opts.withDefaults()}
	s.elems = elements.New(s.opts.Elements, s.opts.Tiles)
	for id := 0; id < s.opts.Tiles; id++ {
		q := make(chan batchJob, 1)
		q <- batchJob{}
		s.tiles = append(s.tiles, &tile{id: id, srv: s, queue: q})
	}
	br := s.breaker()
	br.Observe(1, 100, 100, time.Now())
	if !br.Routable(1, time.Now().Add(time.Hour)) || br.StateOf(1) != elements.StateHalfOpen {
		t.Fatalf("tile 1 breaker %v after 100 failures and a dwell, want half-open", br.StateOf(1))
	}

	// Round robin routes the first job to tile 0 and the second to tile
	// 1, which takes its 8 pendings as the whole probe budget.
	for i, n := range []int{1, 8} {
		var job batchJob
		for range n {
			job.pendings = append(job.pendings, &pending{})
		}
		if s.enqueue(job) {
			t.Fatalf("job %d queued on a full tile", i)
		}
	}
	if !br.Routable(1, time.Now()) {
		t.Error("tile 1 is unroutable: the shed job spent its probes")
	}
	var probes float64
	br.CollectTelemetry(func(name string, v float64) {
		if name == "probes" {
			probes = v
		}
	})
	if probes != 0 {
		t.Errorf("breaker probes = %v, want 0: no probe was sent", probes)
	}
}

func adminGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// elementCounterNames is the pinned serve/elements/ counter partition:
// these exact families must exist whenever the full chain is enabled, and
// like every aggregate counter they must be tile-count independent.
var elementCounterNames = []string{
	"serve/elements/admission/allowed",
	"serve/elements/admission/throttled",
	"serve/elements/breaker/trips",
	"serve/elements/breaker/reopens",
	"serve/elements/breaker/closes",
	"serve/elements/breaker/half_opens",
	"serve/elements/breaker/probes",
	"serve/elements/breaker/reroutes",
	"serve/elements/cache/lookups",
	"serve/elements/cache/hits",
	"serve/elements/cache/misses",
	"serve/elements/cache/inserts",
	"serve/elements/cache/evictions",
	"serve/elements/cache/collisions",
}

// Tile-count determinism must survive the element chain: a 1-tile and a
// 4-tile server with the full chain enabled produce bitwise
// identical responses and identical aggregated counters — including the
// serve/elements/ groups — for the same two-round workload (round one all
// cache misses, round two, the same requests again, all hits).
func TestServeTileDeterminismWithElements(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)
	run := func(tiles int) ([]Response, map[string]float64) {
		opts := testOptions()
		opts.Tiles = tiles
		opts.Workers = tiles
		opts.Elements = allElements()
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		client := srv.InProc()
		var all []Response
		for round := 0; round < 2; round++ {
			resps, err := client.DoBatch(append([]Request(nil), reqs...))
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			all = append(all, resps...)
		}
		srv.Close()
		return all, srv.AggregatedCounters()
	}

	ra, ca := run(1)
	rb, cb := run(4)
	compareRuns(t, "1-tile", "4-tile", ra, rb, ca, cb)

	n := float64(len(reqs))
	for _, name := range elementCounterNames {
		if _, ok := ca[name]; !ok {
			t.Errorf("pinned element counter %s missing from aggregated counters", name)
		}
	}
	want := map[string]float64{
		"serve/elements/admission/allowed":   2 * n,
		"serve/elements/admission/throttled": 0,
		"serve/elements/cache/lookups":       2 * n,
		"serve/elements/cache/misses":        n,
		"serve/elements/cache/hits":          n,
		"serve/elements/cache/inserts":       n,
		"serve/elements/cache/evictions":     0,
		"serve/elements/cache/collisions":    0,
		"serve/elements/breaker/trips":       0,
	}
	for name, w := range want {
		if got := ca[name]; got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

// The element telemetry must survive the Prometheus exporter: valid
// exposition, element counter families present, and the per-tile breaker
// state gauge labeled like every other per-tile series.
func TestServeElementsPrometheus(t *testing.T) {
	opts := testOptions()
	opts.Elements = allElements()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	entry := srv.Catalog().Lookup("varint")
	for i := 0; i < 2; i++ { // second pass hits the cache
		if _, err := client.Do(Request{Op: OpDeserialize, Schema: "varint", Payload: entry.SamplePayload(0)}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewAdminHandler(srv, AdminOptions{}))
	defer ts.Close()
	metrics := adminGet(t, ts, "/metrics")
	if err := telemetry.ValidatePrometheus(bytes.NewReader(metrics)); err != nil {
		t.Errorf("/metrics exposition invalid with elements on: %v\n%s", err, metrics)
	}
	for _, want := range []string{
		"# TYPE protoacc_serve_elements_admission_allowed counter",
		"# TYPE protoacc_serve_elements_breaker_trips counter",
		"# TYPE protoacc_serve_elements_cache_hits counter",
		"protoacc_serve_elements_cache_hits 1",
		`protoacc_serve_live_breaker_state{tile="0"} 0`,
		"protoacc_serve_elements_admission_live_clients 1",
		"protoacc_serve_elements_cache_live_entries 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
