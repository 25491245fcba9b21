package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/serve/elements"
	"protoacc/internal/telemetry"
)

// Admin endpoint: a read-only HTTP plane for a running daemon. Every
// handler is a pure observer — it snapshots counters, evaluates gauges,
// and reads histogram shards, but never takes a lock the serving path
// holds across a batch and never writes serving state. The admin
// determinism test pins that contract: a scraper polling these handlers
// at 10Hz changes neither responses nor counters.

// AdminOptions configures the admin handler.
type AdminOptions struct {
	// Manifest describes the build and invocation for /statusz (nil omits
	// the build section).
	Manifest *telemetry.Manifest

	// FlushStats, when non-nil, is invoked by /statusz?write=1 to write
	// the daemon's -stats-out artifact mid-run (the same writer the
	// shutdown path uses). It returns the path written.
	FlushStats func() (string, error)
}

// TileHealth is one tile's entry in the /healthz report. A tile is
// degraded when a fault schedule is injected into it, when its pool has
// dropped poisoned Systems, when its admission queue is saturated (new
// arrivals routed here are shed), or when its circuit breaker is not
// closed. Degraded is a report, not a routing decision: only an open
// breaker makes the router skip a tile.
type TileHealth struct {
	Tile            int    `json:"tile"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	InflightBatches int64  `json:"inflight_batches"`
	FaultInjected   bool   `json:"fault_injected"`
	PoolDrops       uint64 `json:"pool_drops"`
	AccelFallbacks  uint64 `json:"accel_fallbacks"`
	ServerFallbacks uint64 `json:"server_fallbacks"`
	Retries         uint64 `json:"retries"`
	Degraded        bool   `json:"degraded"`

	// Circuit-breaker element state; Breaker is empty when the element is
	// off (the pre-chain /healthz document, field for field).
	Breaker          string  `json:"breaker,omitempty"` // closed / open / half-open
	BreakerTrips     uint64  `json:"breaker_trips,omitempty"`
	BreakerLastTripS float64 `json:"breaker_last_trip_s,omitempty"` // offset since server start; 0 = never
	WindowRequests   uint64  `json:"breaker_window_requests,omitempty"`
	WindowFailures   uint64  `json:"breaker_window_failures,omitempty"`
}

// Health reports per-tile degradation and breaker state.
func (s *Server) Health() []TileHealth {
	var brStates []elements.TileBreaker
	if br := s.breaker(); br != nil {
		brStates = br.TileStates(time.Now())
	}
	out := make([]TileHealth, len(s.tiles))
	for i, t := range s.tiles {
		h := TileHealth{
			Tile:            t.id,
			QueueDepth:      len(t.queue),
			QueueCapacity:   s.opts.QueueDepth,
			InflightBatches: t.obs.inflight.Load(),
			FaultInjected:   t.faultsEnabled(),
			PoolDrops:       t.pool.Counters().Drops,
			AccelFallbacks:  t.accelFallbacks.Load(),
			ServerFallbacks: t.serverFallbacks.Load(),
			Retries:         t.retries.Load(),
		}
		if brStates != nil {
			b := brStates[i]
			h.Breaker = b.State
			h.BreakerTrips = b.Trips
			h.BreakerLastTripS = b.LastTripS
			h.WindowRequests = b.WindowRequests
			h.WindowFailures = b.WindowFailures
		}
		h.Degraded = h.FaultInjected || h.PoolDrops > 0 || h.QueueDepth >= h.QueueCapacity ||
			(h.Breaker != "" && h.Breaker != elements.StateClosed.String())
		out[i] = h
	}
	return out
}

// Closed reports whether the server has begun shutting down (admission
// sheds everything).
func (s *Server) Closed() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.closed
}

// healthTotals carries the admission-side rejection totals in /healthz:
// how much traffic the server is turning away, and why.
type healthTotals struct {
	Shed      uint64 `json:"shed"`
	Throttled uint64 `json:"throttled"`
	Deadline  uint64 `json:"deadline"`
}

// healthzDoc is the /healthz response body.
type healthzDoc struct {
	Status string       `json:"status"` // "ok" or "closing"
	Totals healthTotals `json:"totals"`
	Tiles  []TileHealth `json:"tiles"`
}

// healthTotals snapshots the admission-side rejection counters.
func (s *Server) healthTotals() healthTotals {
	return healthTotals{
		Shed:      s.responses[StatusShed].Load(),
		Throttled: s.responses[StatusThrottled].Load(),
		Deadline:  s.responses[StatusDeadline].Load(),
	}
}

// SpanStats summarizes the span sampler for /statusz.
type SpanStats struct {
	SampleN   int    `json:"sample_n"` // 0 = sampling off
	Sampled   uint64 `json:"sampled"`
	Completed uint64 `json:"completed"`
	Dropped   uint64 `json:"dropped"` // ring overwrites
	Buffered  int    `json:"buffered"`
}

// StatuszConfig echoes the serving configuration in /statusz.
type StatuszConfig struct {
	Tiles         int    `json:"tiles"`
	Workers       int    `json:"workers"`
	MaxBatch      int    `json:"max_batch"`
	BatchWindowNS int64  `json:"batch_window_ns"`
	QueueDepth    int    `json:"queue_depth"`
	MaxPayload    int    `json:"max_payload"`
	SpanSampleN   int    `json:"span_sample_n"`
	Fingerprint   string `json:"config_fingerprint"`
}

// AdmissionStatus summarizes the admission-control element for /statusz.
type AdmissionStatus struct {
	FillRate  float64 `json:"fill_rate"`
	Clients   int     `json:"clients"`
	Allowed   uint64  `json:"allowed"`
	Throttled uint64  `json:"throttled"`
}

// BreakerStatus summarizes the circuit-breaker element for /statusz:
// per-tile state and the transition-event timeline.
type BreakerStatus struct {
	Tiles  []elements.TileBreaker `json:"tiles"`
	Events []elements.Event       `json:"events"`
}

// CacheStatus summarizes the response-cache element for /statusz.
type CacheStatus struct {
	Bytes      int64  `json:"bytes"`
	Entries    int    `json:"entries"`
	Lookups    uint64 `json:"lookups"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Inserts    uint64 `json:"inserts"`
	Evictions  uint64 `json:"evictions"`
	Collisions uint64 `json:"collisions"`
}

// ElementsStatus is the /statusz section for the data-plane element
// chain; per-element blocks are present only when that element is on.
type ElementsStatus struct {
	Spec      string           `json:"spec"` // -elements flag echo
	Enabled   []string         `json:"enabled"`
	Admission *AdmissionStatus `json:"admission,omitempty"`
	Breaker   *BreakerStatus   `json:"breaker,omitempty"`
	Cache     *CacheStatus     `json:"cache,omitempty"`
}

// elementsStatus assembles the /statusz elements section; nil when the
// chain is off (the section is omitted, keeping the pre-chain document).
func (s *Server) elementsStatus() *ElementsStatus {
	if s.elems == nil {
		return nil
	}
	cfg := s.elems.Config()
	es := &ElementsStatus{Spec: cfg.Spec(), Enabled: cfg.Names()}
	if a := s.elems.Admission; a != nil {
		allowed, throttled := a.Totals()
		es.Admission = &AdmissionStatus{FillRate: a.FillRate(), Clients: a.Clients(), Allowed: allowed, Throttled: throttled}
	}
	if b := s.elems.Breaker; b != nil {
		es.Breaker = &BreakerStatus{Tiles: b.TileStates(time.Now()), Events: b.Events()}
	}
	if c := s.elems.Cache; c != nil {
		lookups, hits, misses, inserts, evictions, collisions := c.Stats()
		es.Cache = &CacheStatus{
			Bytes: c.Bytes(), Entries: c.Len(),
			Lookups: lookups, Hits: hits, Misses: misses,
			Inserts: inserts, Evictions: evictions, Collisions: collisions,
		}
	}
	return es
}

// StatuszSchema identifies the /statusz JSON format.
const StatuszSchema = "protoacc-statusz/v1"

// Statusz is the /statusz JSON document: a point-in-time snapshot of
// everything the daemon knows about itself — build and config manifest,
// the exact counter snapshot, live gauges, merged stage summaries, span
// sampler state, and per-tile health.
type Statusz struct {
	Schema        string              `json:"schema"`
	Build         *telemetry.Manifest `json:"build,omitempty"`
	Config        StatuszConfig       `json:"config"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Counters      map[string]float64  `json:"counters"`
	Gauges        map[string]float64  `json:"gauges"`
	Stages        []StageSummary      `json:"stages"`
	Spans         SpanStats           `json:"spans"`
	Elements      *ElementsStatus     `json:"elements,omitempty"`
	Tiles         []TileHealth        `json:"tiles"`
	StatsWritten  string              `json:"stats_written,omitempty"`
}

// StatuszSnapshot assembles the /statusz document.
func (s *Server) StatuszSnapshot(manifest *telemetry.Manifest) *Statusz {
	counters := make(map[string]float64)
	for _, sm := range s.TelemetrySnapshot().Samples() {
		counters[sm.Name] = sm.Value
	}
	gauges := make(map[string]float64)
	for _, g := range s.obs.reg.GaugeValues() {
		gauges[g.Name] = g.Value
	}
	sampled, completed, dropped := s.obs.spanCounters()
	s.obs.spanMu.Lock()
	buffered := len(s.obs.spans)
	s.obs.spanMu.Unlock()
	return &Statusz{
		Schema: StatuszSchema,
		Build:  manifest,
		Config: StatuszConfig{
			Tiles:         len(s.tiles),
			Workers:       s.Workers(),
			MaxBatch:      s.opts.MaxBatch,
			BatchWindowNS: int64(s.opts.BatchWindow),
			QueueDepth:    s.opts.QueueDepth,
			MaxPayload:    s.opts.MaxPayload,
			SpanSampleN:   s.opts.SpanSampleN,
			Fingerprint:   s.ConfigFingerprint(),
		},
		UptimeSeconds: time.Since(s.obs.start).Seconds(),
		Counters:      counters,
		Gauges:        gauges,
		Stages:        s.StageSummaries(),
		Spans: SpanStats{
			SampleN: s.opts.SpanSampleN, Sampled: sampled,
			Completed: completed, Dropped: dropped, Buffered: buffered,
		},
		Elements: s.elementsStatus(),
		Tiles:    s.Health(),
	}
}

// NewAdminHandler builds the admin HTTP mux for a Server:
//
//	/metrics      Prometheus text exposition: counters, live gauges, and
//	              per-tile stage histograms (tile-labeled families)
//	/healthz      per-tile degradation and breaker state; 503 once closing
//	/statusz      JSON snapshot (build/config manifest, counters, gauges,
//	              stage summaries, span stats, tile health); ?write=1
//	              flushes the -stats-out artifact mid-run
//	/spans        buffered lifecycle spans as Perfetto trace JSON
//	/faultz       per-tile fault schedules; ?tile=N&faults=SPEC swaps one
//	              live (the chaos-drill control)
//	/debug/pprof  the standard Go profiling endpoints
func NewAdminHandler(s *Server, opts AdminOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		counters, gauges, hists := s.MetricsSnapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheusMetrics(w, counters, gauges, hists)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		doc := healthzDoc{Status: "ok", Totals: s.healthTotals(), Tiles: s.Health()}
		code := http.StatusOK
		if s.Closed() {
			doc.Status = "closing"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		doc := s.StatuszSnapshot(opts.Manifest)
		if r.URL.Query().Get("write") == "1" {
			if opts.FlushStats == nil {
				http.Error(w, "statusz: no -stats-out configured", http.StatusBadRequest)
				return
			}
			path, err := opts.FlushStats()
			if err != nil {
				http.Error(w, fmt.Sprintf("statusz: stats flush: %v", err), http.StatusInternalServerError)
				return
			}
			doc.StatsWritten = path
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		telemetry.WritePerfetto(w, s.SpanEvents())
	})
	// /faultz is the chaos-drill control (like /statusz?write=1, it is a
	// documented mutator on an otherwise read-only plane): GET with no
	// parameters reports each tile's live fault schedule; with
	// ?tile=N&faults=SPEC[&seed=S] it swaps tile N's schedule — SPEC uses
	// the -faults flag grammar, "off" stops injection — so a drill can
	// fault a live tile, watch its breaker trip, stop injection, and watch
	// the half-open probes re-admit it.
	mux.HandleFunc("/faultz", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if spec := q.Get("faults"); spec != "" {
			tileID, err := strconv.Atoi(q.Get("tile"))
			if err != nil {
				http.Error(w, "faultz: ?faults= requires ?tile=N", http.StatusBadRequest)
				return
			}
			var seed uint64 = 1
			if v := q.Get("seed"); v != "" {
				if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
					http.Error(w, "faultz: bad seed: "+err.Error(), http.StatusBadRequest)
					return
				}
			}
			cfg, err := faults.ParseFlag(spec, seed)
			if err != nil {
				http.Error(w, "faultz: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.SetTileFaults(tileID, cfg); err != nil {
				http.Error(w, "faultz: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		type tileFaults struct {
			Tile    int     `json:"tile"`
			Enabled bool    `json:"enabled"`
			Rate    float64 `json:"rate,omitempty"`
			Seed    uint64  `json:"seed,omitempty"`
		}
		doc := make([]tileFaults, s.Tiles())
		for i := range doc {
			cfg := s.TileFaults(i)
			doc[i] = tileFaults{Tile: i, Enabled: cfg.Enabled, Rate: cfg.Rate, Seed: cfg.Seed}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "protoaccd admin: /metrics /healthz /statusz /spans /faultz /debug/pprof\n")
	})
	return mux
}
