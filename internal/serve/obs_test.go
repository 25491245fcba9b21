package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/telemetry"
)

// Plain served traffic must populate every lifecycle stage histogram:
// queue wait, coalesce wait, batch build, execute, respond write, the
// end-to-end distribution, and the batch-size histogram.
func TestServeStageHistogramsPopulated(t *testing.T) {
	srv, err := NewServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	if _, err := client.DoBatch(sampleRequests(DefaultCatalog(), 8)); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	byName := make(map[string]StageSummary)
	for _, s := range srv.StageSummaries() {
		byName[s.Stage] = s
	}
	for _, name := range append(StageNames(), "e2e", "batch_size") {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("StageSummaries missing %q", name)
		}
		if s.Count == 0 {
			t.Errorf("stage %s recorded no samples", name)
		}
		if s.P50NS > s.P99NS || s.P99NS > s.MaxNS {
			t.Errorf("stage %s quantiles out of order: p50=%d p99=%d max=%d", name, s.P50NS, s.P99NS, s.MaxNS)
		}
	}
}

// With preformed batches, batch composition is a pure function of the
// request list — so the aggregated batch-size histogram (the one
// deterministic histogram: it counts requests, not wall time) must be
// bucket-identical between a 1-tile and an N-tile server.
func TestServeBatchSizeHistogramDeterminism(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)
	run := func(tiles int) telemetry.HistogramSnapshot {
		opts := testOptions()
		opts.Tiles = tiles
		if tiles > 1 {
			opts.Workers = tiles
		}
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		client := srv.InProc()
		if _, err := client.DoBatch(append([]Request(nil), reqs...)); err != nil {
			srv.Close()
			t.Fatal(err)
		}
		srv.Close()
		return srv.BatchSizeBuckets()
	}
	a, b := run(1), run(4)
	if a.Count != b.Count || a.Sum != b.Sum || a.Max != b.Max {
		t.Fatalf("batch-size histograms diverge: 1-tile {count %d sum %d max %d}, 4-tile {count %d sum %d max %d}",
			a.Count, a.Sum, a.Max, b.Count, b.Sum, b.Max)
	}
	if len(a.Buckets) != len(b.Buckets) {
		t.Fatalf("bucket shapes differ: %d vs %d", len(a.Buckets), len(b.Buckets))
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			t.Errorf("bucket %d differs: 1-tile %+v 4-tile %+v", i, a.Buckets[i], b.Buckets[i])
		}
	}
}

// With 1-in-1 sampling every request must produce a completed span whose
// stage boundaries are monotone and whose placement annotations are
// in-range, and the span provenance counters must match the admitted
// request count exactly.
func TestServeSpanLifecycle(t *testing.T) {
	opts := testOptions()
	opts.SpanSampleN = 1
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sampleRequests(DefaultCatalog(), 4)
	client := srv.InProc()
	resps, err := client.DoBatch(reqs)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("request %d: status %v: %s", i, resp.Status, resp.Payload)
		}
	}
	spans := srv.Spans()
	if len(spans) != len(reqs) {
		t.Fatalf("got %d spans for %d requests at 1-in-1 sampling", len(spans), len(reqs))
	}
	for _, sp := range spans {
		if sp.Status != StatusOK {
			t.Errorf("span %d: status %v", sp.ID, sp.Status)
		}
		if sp.Tile < 0 || sp.Tile >= srv.Tiles() {
			t.Errorf("span %d: tile %d out of range", sp.ID, sp.Tile)
		}
		if sp.BatchSize < 1 {
			t.Errorf("span %d: batch size %d", sp.ID, sp.BatchSize)
		}
		bounds := []struct {
			name string
			at   time.Duration
		}{
			{"admit", sp.AdmitAt}, {"enqueue", sp.EnqueueAt}, {"dequeue", sp.DequeueAt},
			{"batch", sp.BatchAt}, {"exec_start", sp.ExecStartAt}, {"exec_end", sp.ExecEndAt},
			{"done", sp.DoneAt},
		}
		last := time.Duration(0)
		for _, b := range bounds {
			if b.at == 0 {
				t.Errorf("span %d: OK request never crossed %s", sp.ID, b.name)
				continue
			}
			if b.at < last {
				t.Errorf("span %d: %s at %v before previous boundary %v", sp.ID, b.name, b.at, last)
			}
			last = b.at
		}
	}
	snap := srv.TelemetrySnapshot()
	sampled, _ := snap.Get("serve/spans/sampled")
	completed, _ := snap.Get("serve/spans/completed")
	if sampled != float64(len(reqs)) || completed != float64(len(reqs)) {
		t.Errorf("span counters: sampled=%v completed=%v, want %d each", sampled, completed, len(reqs))
	}
	events := srv.SpanEvents()
	if len(events) < len(reqs) {
		t.Fatalf("only %d trace events from %d spans", len(events), len(spans))
	}
	var buf bytes.Buffer
	if err := telemetry.WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("span Perfetto export is not valid JSON")
	}
}

// The admin endpoints must serve a valid Prometheus exposition with the
// stage histogram families present, a per-tile health report, a statusz
// snapshot that round-trips through its JSON schema (including the
// mid-run ?write=1 stats flush), the span trace, and pprof.
func TestAdminEndpoints(t *testing.T) {
	opts := testOptions()
	opts.SpanSampleN = 2
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := srv.InProc()
	if _, err := client.DoBatch(sampleRequests(DefaultCatalog(), 8)); err != nil {
		t.Fatal(err)
	}

	statsPath := filepath.Join(t.TempDir(), "stats.json")
	ts := httptest.NewServer(NewAdminHandler(srv, AdminOptions{
		Manifest: &telemetry.Manifest{Command: "obs-test", Parallelism: srv.Workers()},
		FlushStats: func() (string, error) {
			f, err := os.Create(statsPath)
			if err != nil {
				return "", err
			}
			defer f.Close()
			return statsPath, telemetry.WriteStatsJSON(f, nil, srv.TelemetrySnapshot())
		},
	}))
	defer ts.Close()

	get := func(path string) (int, []byte) {
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
		return resp.StatusCode, body
	}

	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.ValidatePrometheus(bytes.NewReader(metrics)); err != nil {
		t.Errorf("/metrics exposition invalid: %v\n%s", err, metrics)
	}
	for _, want := range []string{
		"# TYPE protoacc_serve_batches counter",
		"# TYPE protoacc_serve_stage_e2e_ns histogram",
		`protoacc_serve_stage_queue_wait_ns_bucket{tile="0",le="`,
		`protoacc_serve_stage_execute_ns_count{tile="0"}`,
		"# TYPE protoacc_serve_live_uptime_seconds gauge",
		`protoacc_serve_live_queue_depth{tile="0"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A counter only rises. The live queue depth is the gauge above, and
	// the tile count and queue bound are configuration (/statusz config).
	for _, bad := range []string{
		"# TYPE protoacc_serve_queue_depth counter",
		"# TYPE protoacc_serve_queue_capacity counter",
		"# TYPE protoacc_serve_tiles counter",
	} {
		if strings.Contains(string(metrics), bad) {
			t.Errorf("/metrics has %q", bad)
		}
	}

	code, health := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, health)
	}
	var hdoc struct {
		Status string       `json:"status"`
		Tiles  []TileHealth `json:"tiles"`
	}
	if err := json.Unmarshal(health, &hdoc); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if hdoc.Status != "ok" || len(hdoc.Tiles) != srv.Tiles() {
		t.Errorf("/healthz = %+v, want ok with %d tiles", hdoc, srv.Tiles())
	}

	code, statusz := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var doc Statusz
	if err := json.Unmarshal(statusz, &doc); err != nil {
		t.Fatalf("/statusz decode: %v", err)
	}
	if doc.Schema != StatuszSchema {
		t.Errorf("/statusz schema = %q", doc.Schema)
	}
	if doc.Build == nil || doc.Build.Command != "obs-test" {
		t.Errorf("/statusz build manifest = %+v", doc.Build)
	}
	if doc.Config.Tiles != srv.Tiles() || doc.Config.SpanSampleN != 2 {
		t.Errorf("/statusz config = %+v", doc.Config)
	}
	if len(doc.Stages) == 0 || doc.Counters["serve/batches"] == 0 {
		t.Errorf("/statusz stages/counters empty: %d stages, batches=%v", len(doc.Stages), doc.Counters["serve/batches"])
	}
	if doc.Spans.Sampled == 0 || doc.Spans.Completed == 0 {
		t.Errorf("/statusz span stats empty: %+v", doc.Spans)
	}

	code, flushed := get("/statusz?write=1")
	if code != http.StatusOK {
		t.Fatalf("/statusz?write=1 status %d: %s", code, flushed)
	}
	var fdoc Statusz
	if err := json.Unmarshal(flushed, &fdoc); err != nil {
		t.Fatalf("/statusz?write=1 decode: %v", err)
	}
	if fdoc.StatsWritten != statsPath {
		t.Errorf("stats_written = %q, want %q", fdoc.StatsWritten, statsPath)
	}
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatalf("flushed stats artifact: %v", err)
	}
	_, counters, err := telemetry.ReadStatsJSON(f)
	f.Close()
	if err != nil {
		t.Fatalf("flushed stats artifact unreadable: %v", err)
	}
	if counters["serve/batches"] == 0 {
		t.Error("flushed stats artifact has no serve/batches")
	}

	code, spans := get("/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	var tdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &tdoc); err != nil {
		t.Fatalf("/spans decode: %v", err)
	}
	if len(tdoc.TraceEvents) == 0 {
		t.Error("/spans exported no trace events despite sampling")
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	// A handler with no stats writer must reject the flush, not panic.
	bare := httptest.NewServer(NewAdminHandler(srv, AdminOptions{}))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/statusz?write=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/statusz?write=1 with no FlushStats: status %d, want 400", resp.StatusCode)
	}
}

// The determinism guard for the whole observability plane: a scraper
// hammering every admin endpoint (well above the 10Hz acceptance bar)
// while the server executes must change neither the responses nor the
// aggregated counters relative to an unscraped run.
func TestAdminScrapeDeterminism(t *testing.T) {
	reqs := sampleRequests(DefaultCatalog(), 8)
	const rounds = 10
	run := func(scrape bool) ([]Response, map[string]float64) {
		opts := testOptions()
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ts *httptest.Server
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if scrape {
			ts = httptest.NewServer(NewAdminHandler(srv, AdminOptions{}))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, ep := range []string{"/metrics", "/statusz", "/healthz", "/spans"} {
						resp, err := http.Get(ts.URL + ep)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
		}
		client := srv.InProc()
		var all []Response
		for r := 0; r < rounds; r++ {
			resps, err := client.DoBatch(append([]Request(nil), reqs...))
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			all = append(all, resps...)
		}
		srv.Close()
		if scrape {
			close(stop)
			wg.Wait()
			ts.Close()
		}
		return all, srv.AggregatedCounters()
	}
	quiet, cq := run(false)
	scraped, cs := run(true)
	if len(quiet) != len(scraped) {
		t.Fatalf("response counts differ: quiet=%d scraped=%d", len(quiet), len(scraped))
	}
	for i := range quiet {
		if quiet[i].Status != scraped[i].Status || quiet[i].FellBack != scraped[i].FellBack {
			t.Errorf("response %d: status/fallback differ under scraping: %+v vs %+v", i, quiet[i], scraped[i])
		}
		if !bytes.Equal(quiet[i].Payload, scraped[i].Payload) {
			t.Errorf("response %d: payload bytes differ under scraping", i)
		}
		if quiet[i].Cycles != scraped[i].Cycles {
			t.Errorf("response %d: cycles differ under scraping: %v vs %v", i, quiet[i].Cycles, scraped[i].Cycles)
		}
	}
	if len(cq) != len(cs) {
		t.Fatalf("aggregated counter shapes differ: quiet=%d scraped=%d", len(cq), len(cs))
	}
	for name, vq := range cq {
		vs, ok := cs[name]
		if !ok {
			t.Errorf("counter %s missing from scraped run", name)
			continue
		}
		if vq != vs {
			t.Errorf("counter %s perturbed by scraping: quiet=%v scraped=%v", name, vq, vs)
		}
	}
}

// Health must flag the quarantined tile and only it, and a closed server
// must report closing.
func TestHealthReportsQuarantinedTile(t *testing.T) {
	opts := testOptions()
	opts.Tiles = 2
	opts.Workers = 2
	opts.Faults = faults.Config{Enabled: true, Seed: 9, Rate: 0.5}
	opts.FaultTiles = []int{1}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.InProc()
	if _, err := client.DoBatch(sampleRequests(DefaultCatalog(), 8)); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if srv.Closed() {
		t.Error("server reports closed while serving")
	}
	srv.Close()
	health := srv.Health()
	if len(health) != 2 {
		t.Fatalf("health entries = %d", len(health))
	}
	if !health[1].FaultInjected || !health[1].Degraded {
		t.Errorf("quarantined tile not flagged: %+v", health[1])
	}
	if health[0].FaultInjected {
		t.Errorf("healthy tile flagged fault-injected: %+v", health[0])
	}
	if !srv.Closed() {
		t.Error("server does not report closed after Close")
	}
}
