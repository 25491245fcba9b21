package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"protoacc/internal/telemetry"
)

// Live observability plane: while the counter registry answers "how much
// happened", this layer answers "where does a request's time go while
// the daemon runs" — per-tile stage histograms over the full request
// lifecycle, sampled gauges for live occupancy, and sampled per-request
// spans exported on the Perfetto timeline. Everything here is
// read-passive: recording is lock-free (atomic histogram adds), gauges
// are evaluated only when a scraper asks, and nothing in this file feeds
// back into admission, routing, batching, or the counters —
// the admin determinism test pins that an active scraper perturbs
// neither responses nor serve/ counters.

// stageID indexes the per-tile lifecycle stage histograms.
type stageID int

// Lifecycle stages. A request's server-side life partitions into: the
// wait on the tile's admission queue, the coalescing window (waiting for
// batch partners and an executor), batch build (System checkout plus
// input materialization), the accelerator batch operation itself, and
// result readback + response delivery.
const (
	stageQueueWait stageID = iota
	stageCoalesceWait
	stageBatchBuild
	stageExecute
	stageRespondWrite
	numStages
)

var stageNames = [numStages]string{
	"queue_wait", "coalesce_wait", "batch_build", "execute", "respond_write",
}

// StageNames returns the lifecycle stage names in pipeline order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// tileObs is one tile's shard of the observability plane. Histograms are
// per-tile so recording never contends across tiles; scrapers read each
// shard (exported with a tile label) or merge them.
type tileObs struct {
	stages    [numStages]telemetry.Histogram // nanoseconds per stage
	batchSize telemetry.Histogram            // requests per executed batch
	inflight  atomic.Int64                   // batches executing right now
}

func (o *tileObs) record(st stageID, d time.Duration) {
	o.stages[st].Record(d)
}

// Span is one sampled request's lifecycle record: monotonic offsets
// (since server start) of every stage boundary the request crossed, plus
// the placement and resilience annotations that explain them. Zero
// offsets mean the request never reached that boundary (shed or
// bad-request spans end early).
type Span struct {
	ID        uint64 `json:"id"`
	Schema    string `json:"schema"`
	Op        Op     `json:"op"`
	Status    Status `json:"status"`
	Tile      int    `json:"tile"`
	BatchSize int    `json:"batch_size"`
	Retries   uint64 `json:"retries,omitempty"`
	FellBack  bool   `json:"fell_back,omitempty"`

	AdmitAt     time.Duration `json:"admit_ns"`
	EnqueueAt   time.Duration `json:"enqueue_ns,omitempty"`
	DequeueAt   time.Duration `json:"dequeue_ns,omitempty"`
	BatchAt     time.Duration `json:"batch_ns,omitempty"`
	ExecStartAt time.Duration `json:"exec_start_ns,omitempty"`
	ExecEndAt   time.Duration `json:"exec_end_ns,omitempty"`
	DoneAt      time.Duration `json:"done_ns,omitempty"`
}

// spanRingCap bounds the completed-span buffer; past it the ring
// overwrites the oldest spans so a long run keeps its most recent
// history (overwrites are counted in serve/spans/dropped).
const spanRingCap = 4096

// serverObs is the server-wide observability state: the per-tile shards,
// the cross-tile end-to-end histogram, the span sampler, and the
// registry the admin endpoint scrapes histograms and gauges from.
type serverObs struct {
	start time.Time
	e2e   telemetry.Histogram // admit → respond, every admitted request
	tiles []*tileObs
	reg   telemetry.Registry

	spanEvery    uint64 // sample every N'th admitted request; 0 = off
	spanSeq      atomic.Uint64
	spansSampled atomic.Uint64

	spanMu         sync.Mutex
	spans          []*Span // ring, completed spans
	spanNext       int     // ring write cursor
	spansCompleted uint64
	spansDropped   uint64 // ring overwrites
}

func newServerObs(opts Options) *serverObs {
	o := &serverObs{start: time.Now()}
	if opts.SpanSampleN > 0 {
		o.spanEvery = uint64(opts.SpanSampleN)
	}
	for i := 0; i < opts.Tiles; i++ {
		o.tiles = append(o.tiles, &tileObs{})
	}
	o.reg.RegisterHistogram("serve/stage/e2e_ns", &o.e2e)
	for i, to := range o.tiles {
		for st := stageID(0); st < numStages; st++ {
			o.reg.RegisterHistogram(fmt.Sprintf("serve/tile%d/stage/%s_ns", i, stageNames[st]), &to.stages[st])
		}
		o.reg.RegisterHistogram(fmt.Sprintf("serve/tile%d/batch_size", i), &to.batchSize)
	}
	return o
}

// registerGauges wires the live-occupancy gauges once the tiles exist.
// Gauges are callbacks sampled at scrape time; between scrapes they cost
// nothing.
func (o *serverObs) registerGauges(s *Server) {
	for _, t := range s.tiles {
		t := t
		o.reg.RegisterGauge(fmt.Sprintf("serve/tile%d/live/queue_depth", t.id), func() float64 {
			return float64(len(t.queue))
		})
		o.reg.RegisterGauge(fmt.Sprintf("serve/tile%d/live/inflight_batches", t.id), func() float64 {
			return float64(t.obs.inflight.Load())
		})
	}
	o.reg.RegisterGauge("serve/live/uptime_seconds", func() float64 {
		return time.Since(o.start).Seconds()
	})
	// Element-chain gauges register only when their element is on, so a
	// chain-off scrape is shaped exactly like the pre-chain server's.
	if s.elems != nil {
		if a := s.elems.Admission; a != nil {
			o.reg.RegisterGauge("serve/elements/admission/live/clients", func() float64 {
				return float64(a.Clients())
			})
		}
		if b := s.elems.Breaker; b != nil {
			for _, t := range s.tiles {
				id := t.id
				o.reg.RegisterGauge(fmt.Sprintf("serve/tile%d/live/breaker_state", id), func() float64 {
					return float64(b.StateOf(id)) // 0 closed, 1 open, 2 half-open
				})
			}
		}
		if c := s.elems.Cache; c != nil {
			o.reg.RegisterGauge("serve/elements/cache/live/bytes", func() float64 {
				return float64(c.Bytes())
			})
			o.reg.RegisterGauge("serve/elements/cache/live/entries", func() float64 {
				return float64(c.Len())
			})
		}
	}
}

// since returns the monotonic offset used for span timestamps.
func (o *serverObs) since() time.Duration { return time.Since(o.start) }

// at returns the span offset of a time already read, so a stage that has
// read the clock does not read it again for its spans.
func (o *serverObs) at(t time.Time) time.Duration { return t.Sub(o.start) }

// maybeSpan returns a fresh span for every spanEvery'th admitted request
// (the first admitted request always starts one, so short runs still
// produce spans), nil otherwise.
func (o *serverObs) maybeSpan() *Span {
	if o.spanEvery == 0 {
		return nil
	}
	seq := o.spanSeq.Add(1)
	if (seq-1)%o.spanEvery != 0 {
		return nil
	}
	o.spansSampled.Add(1)
	return &Span{ID: seq, Tile: -1, AdmitAt: o.since()}
}

// finish retires a completed span into the ring.
func (o *serverObs) finish(sp *Span) {
	o.spanMu.Lock()
	if len(o.spans) < spanRingCap {
		o.spans = append(o.spans, sp)
	} else {
		o.spans[o.spanNext] = sp
		o.spansDropped++
	}
	o.spanNext = (o.spanNext + 1) % spanRingCap
	o.spansCompleted++
	o.spanMu.Unlock()
}

// spanCounters reports the sampling provenance counters.
func (o *serverObs) spanCounters() (sampled, completed, dropped uint64) {
	sampled = o.spansSampled.Load()
	o.spanMu.Lock()
	completed, dropped = o.spansCompleted, o.spansDropped
	o.spanMu.Unlock()
	return
}

// Spans returns the buffered completed spans, oldest first.
func (o *serverObs) Spans() []*Span {
	o.spanMu.Lock()
	defer o.spanMu.Unlock()
	out := make([]*Span, 0, len(o.spans))
	if len(o.spans) == spanRingCap {
		out = append(out, o.spans[o.spanNext:]...)
		out = append(out, o.spans[:o.spanNext]...)
		return out
	}
	return append(out, o.spans...)
}

// spanEvents converts spans to trace events on the existing Perfetto
// writer's schema: each tile is one timeline lane, every span becomes an
// enclosing X event plus one X event per stage it crossed, so a batch's
// whole life — and the lifecycle of every sampled request coalesced into
// it — reads off one timeline. Timestamps map 1 µs of trace time to 1 µs
// of wall time since server start.
func spanEvents(spans []*Span) []telemetry.Event {
	var out []telemetry.Event
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, sp := range spans {
		unit := "admit"
		if sp.Tile >= 0 {
			unit = fmt.Sprintf("tile%d", sp.Tile)
		}
		note := fmt.Sprintf("id=%d status=%s batch=%d", sp.ID, sp.Status, sp.BatchSize)
		if sp.Retries > 0 {
			note += fmt.Sprintf(" retries=%d", sp.Retries)
		}
		if sp.FellBack {
			note += " fellback"
		}
		out = append(out, telemetry.Event{
			Unit: unit, Name: fmt.Sprintf("req %s/%s", sp.Schema, sp.Op),
			Cycle: us(sp.AdmitAt), Dur: us(sp.DoneAt - sp.AdmitAt), Note: note,
		})
		stage := func(name string, from, to time.Duration) {
			if from == 0 || to == 0 || to < from {
				return
			}
			out = append(out, telemetry.Event{
				Unit: unit, Name: name, Cycle: us(from), Dur: us(to - from),
			})
		}
		stage("queue_wait", sp.EnqueueAt, sp.DequeueAt)
		stage("coalesce_wait", sp.DequeueAt, sp.BatchAt)
		stage("batch_build", sp.BatchAt, sp.ExecStartAt)
		stage("execute", sp.ExecStartAt, sp.ExecEndAt)
		if sp.ExecEndAt != 0 {
			stage("respond_write", sp.ExecEndAt, sp.DoneAt)
		} else if sp.BatchAt != 0 {
			stage("respond_write", sp.BatchAt, sp.DoneAt) // degraded batch: answered in software
		}
	}
	return out
}

// SpanEvents returns the buffered spans as Perfetto trace events (see
// telemetry.WritePerfetto).
func (s *Server) SpanEvents() []telemetry.Event { return spanEvents(s.obs.Spans()) }

// Spans returns the buffered completed spans, oldest first.
func (s *Server) Spans() []*Span { return s.obs.Spans() }

// StageSummary is the scrape-friendly digest of one lifecycle stage,
// merged across tiles.
type StageSummary struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50NS  uint64  `json:"p50_ns"`
	P99NS  uint64  `json:"p99_ns"`
	MaxNS  uint64  `json:"max_ns"`
	MeanNS uint64  `json:"mean_ns"`
	SumNS  float64 `json:"sum_ns"`
}

func summarize(name string, h *telemetry.Histogram) StageSummary {
	return StageSummary{
		Stage:  name,
		Count:  h.Count(),
		P50NS:  uint64(h.Quantile(0.50)),
		P99NS:  uint64(h.Quantile(0.99)),
		MaxNS:  h.Max(),
		MeanNS: uint64(h.Mean()),
		SumNS:  float64(h.Sum()),
	}
}

// StageSummaries merges every tile's stage histograms and returns one
// digest per lifecycle stage (plus the end-to-end and batch-size rows) —
// the server-side breakdown /statusz publishes.
func (s *Server) StageSummaries() []StageSummary {
	out := make([]StageSummary, 0, numStages+2)
	for st := stageID(0); st < numStages; st++ {
		var merged telemetry.Histogram
		for _, to := range s.obs.tiles {
			merged.Merge(&to.stages[st])
		}
		out = append(out, summarize(stageNames[st], &merged))
	}
	out = append(out, summarize("e2e", &s.obs.e2e))
	var sizes telemetry.Histogram
	for _, to := range s.obs.tiles {
		sizes.Merge(&to.batchSize)
	}
	out = append(out, summarize("batch_size", &sizes))
	return out
}

// BatchSizeBuckets returns the batch-size histogram merged across tiles.
// With preformed batches this snapshot is a pure function of the
// request list — the tile-count determinism test compares it between
// 1-tile and N-tile servers.
func (s *Server) BatchSizeBuckets() telemetry.HistogramSnapshot {
	var sizes telemetry.Histogram
	for _, to := range s.obs.tiles {
		sizes.Merge(&to.batchSize)
	}
	return sizes.Snapshot()
}

// MetricsSnapshot returns everything a /metrics scrape exposes: the
// exact counter snapshot plus the live gauges and stage histograms.
func (s *Server) MetricsSnapshot() (counters telemetry.Snapshot, gauges []telemetry.Sample, hists []telemetry.NamedHistogram) {
	return s.TelemetrySnapshot(), s.obs.reg.GaugeValues(), s.obs.reg.Histograms()
}
