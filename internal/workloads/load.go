// Package workloads turns the fleet study (internal/fleet, paper §3)
// into a first-class traffic generator: instead of loadgen's synthetic
// per-(schema, op) passes, it synthesizes and replays
// application-shaped traces — fleet-shaped message sizes, fleet-shaped
// schema and operation mixes, Zipf popularity skew over a stable key
// space — on the accelerated serving path. It also holds the one load
// driver every one of those runs, loadgen's passes included, goes
// through.
//
// Three pieces:
//
//   - Trace synthesis (Synthesize): a deterministic, seeded key/size/op
//     trace. Each key is assigned a schema and a sample payload once,
//     with the schema mix weighted by the fleet field-type distribution
//     (Figure 4a) and the payload size drawn from the fleet message-size
//     distribution (Figure 3); record keys follow a Zipf(1.2)
//     popularity ranking over 512 keys, the same hot-key machinery
//     loadgen's -skew mode uses.
//   - Request sources (Source): a catalog walk (CatalogSource, uniform
//     or Zipf-skewed over one schema's samples — a loadgen pass) or a
//     trace sharded contiguously over workers (Trace.Source).
//   - One driver (Run) and one tally (Tally): Run drives a serve.Doer —
//     the in-process client or a live protoaccd connection — with the
//     source's records, closed-loop or paced, sending each record once
//     with its own op, byte-verifying responses and attributing
//     accelerator cycles per request. The run's Tally holds outcome
//     counters, latency, and accelerator-vs-software cycle savings
//     against a Xeon software-codec calibration (CostTable); loadgen
//     exports a trace replay's Tally as the serve/workload/trace/
//     telemetry group.
//
// Determinism mirrors the serving layer's contracts: with one worker, a
// trace replay produces bitwise-identical responses and identical
// aggregated serve/ counters on a 1-tile and an N-tile server (see the
// package tests).
package workloads

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
)

// Tally counts one run's outcomes. It structurally satisfies
// telemetry.Collector, so a run registers as its own counter group
// (loadgen's serve/workload/trace/). A Tally takes no lock: each worker
// owns its own, and Run merges them once the workers are done.
type Tally struct {
	Requests      uint64 // serving calls issued
	OK            uint64
	Shed          uint64
	Throttled     uint64 // rejected by the admission-control element
	Deadline      uint64
	Bad           uint64
	Errors        uint64 // transport errors and StatusError responses
	FellBack      uint64 // OK responses served by a software path
	CheckFailures uint64 // OK responses that diverged from the bytes sent
	BytesIn       uint64 // payload bytes sent
	BytesOut      uint64 // payload bytes received on OK responses

	AccelCycles float64 // accelerator cycles attributed by the server
	SoftCycles  float64 // Xeon software-codec cycles for the same work (calibrated)
	SoftReqs    uint64  // requests with a software calibration entry

	// Latency is the run's per-request latency distribution over OK
	// responses.
	Latency telemetry.Histogram
}

// note records one serving call's outcome; soft is the request's
// calibrated software cost (0 if uncalibrated), and check compares an OK
// response with the payload sent.
func (t *Tally) note(resp serve.Response, err error, payload []byte, soft float64, check bool) {
	t.Requests++
	t.BytesIn += uint64(len(payload))
	if err != nil {
		t.Errors++
		return
	}
	switch resp.Status {
	case serve.StatusOK:
		t.OK++
		t.BytesOut += uint64(len(resp.Payload))
		if resp.FellBack {
			t.FellBack++
		} else {
			// Cycle savings compare accelerator-path work only: a
			// fallback's Cycles mix clock domains (or are zero), so both
			// sides of the ratio skip it.
			t.AccelCycles += resp.Cycles
			if soft > 0 {
				t.SoftCycles += soft
				t.SoftReqs++
			}
		}
		if check && !bytes.Equal(resp.Payload, payload) {
			t.CheckFailures++
		}
	case serve.StatusShed:
		t.Shed++
	case serve.StatusThrottled:
		t.Throttled++
	case serve.StatusDeadline:
		t.Deadline++
	case serve.StatusBadRequest:
		t.Bad++
	default:
		t.Errors++
	}
}

// Merge adds o's counters and latency samples into t, so t summarizes
// the workers (or passes) merged into it.
func (t *Tally) Merge(o *Tally) {
	t.Requests += o.Requests
	t.OK += o.OK
	t.Shed += o.Shed
	t.Throttled += o.Throttled
	t.Deadline += o.Deadline
	t.Bad += o.Bad
	t.Errors += o.Errors
	t.FellBack += o.FellBack
	t.CheckFailures += o.CheckFailures
	t.BytesIn += o.BytesIn
	t.BytesOut += o.BytesOut
	t.AccelCycles += o.AccelCycles
	t.SoftCycles += o.SoftCycles
	t.SoftReqs += o.SoftReqs
	t.Latency.Merge(&o.Latency)
}

// Rejected counts the requests the server turned away: shed, throttled,
// past their deadline, or bad.
func (t *Tally) Rejected() uint64 { return t.Shed + t.Throttled + t.Deadline + t.Bad }

// Savings returns the run's accelerator-vs-software cycle savings as
// a time ratio: calibrated Xeon software cycles (normalized to the
// accelerator clock) divided by the accelerator cycles spent on the same
// requests. 0 means no calibrated accelerator-path requests completed.
func (t *Tally) Savings() float64 {
	if t.AccelCycles <= 0 || t.SoftCycles <= 0 {
		return 0
	}
	return t.SoftCycles / t.AccelCycles
}

// CollectTelemetry emits the run's counter group (structurally a
// telemetry.Collector; loadgen registers a trace replay's as
// serve/workload/trace/).
func (t *Tally) CollectTelemetry(emit func(name string, value float64)) {
	emit("requests", float64(t.Requests))
	emit("ok", float64(t.OK))
	emit("errors", float64(t.Errors))
	emit("rejected", float64(t.Rejected()))
	emit("fellback", float64(t.FellBack))
	emit("check_failures", float64(t.CheckFailures))
	emit("bytes/in", float64(t.BytesIn))
	emit("bytes/out", float64(t.BytesOut))
	emit("cycles/accel", t.AccelCycles)
	emit("cycles/software", t.SoftCycles)
	emit("cycles/calibrated_requests", float64(t.SoftReqs))
}

// A Source hands worker w of workers its record sequence: next(i)
// returns the worker's i'th record, false once the sequence ends.
type Source func(w, workers int) (next func(i int) (Record, bool), err error)

// CatalogSource sends one catalog schema's sample payloads under op: the
// load of one loadgen pass. Each worker walks the samples, or draws them
// Zipf(zipfS)-skewed when zipfS > 1, in serve.Entry.SampleOrder's
// sequence. The walk never ends, so a run over it needs a Duration.
func CatalogSource(cat *serve.Catalog, schema string, op serve.Op, zipfS float64) Source {
	return func(w, _ int) (func(int) (Record, bool), error) {
		e := cat.Lookup(schema)
		if e == nil {
			return nil, fmt.Errorf("workloads: unknown schema %q", schema)
		}
		sample, err := e.SampleOrder(w, zipfS)
		if err != nil {
			return nil, err
		}
		return func(i int) (Record, bool) {
			return Record{Schema: schema, Sample: sample(i), Op: op}, true
		}, nil
	}
}

// Source shards the trace into contiguous slices, one per worker, each
// sent in record order, so one worker replays the whole trace in record
// order (the deterministic mode). It fails if a record names a schema
// cat does not host; cat must be the catalog the trace was synthesized
// against.
func (t *Trace) Source(cat *serve.Catalog) Source {
	var bad error
	for _, r := range t.Records {
		if cat.Lookup(r.Schema) == nil {
			bad = fmt.Errorf("workloads: trace names schema %q not in catalog", r.Schema)
			break
		}
	}
	return func(w, workers int) (func(int) (Record, bool), error) {
		if bad != nil {
			return nil, bad
		}
		n := len(t.Records)
		shard := t.Records[w*n/workers : (w+1)*n/workers]
		return func(i int) (Record, bool) {
			if i >= len(shard) {
				return Record{}, false
			}
			return shard[i], true
		}, nil
	}
}

// LoadOptions configures one Run.
type LoadOptions struct {
	// Dial builds one client per worker (TCP Conn, in-process client, or
	// cluster balancer).
	Dial func() (serve.Doer, error)

	// Catalog resolves each record's (schema, sample) to payload bytes.
	// It must be the catalog the Source was built against, and match the
	// server's for Check to hold.
	Catalog *serve.Catalog

	// Source supplies each worker's records.
	Source Source

	// Workers is the number of concurrent workers (default 1).
	Workers int

	// Duration bounds the run; 0 runs until every worker's source ends.
	Duration time.Duration

	// RatePerSec switches to open-loop: workers pace their records to
	// this aggregate rate instead of saturating. 0 means closed-loop.
	RatePerSec float64

	// Timeout is the per-request deadline passed to the server (0
	// inherits the server default).
	Timeout time.Duration

	// Check verifies every OK response is byte-identical to the payload
	// sent (sample payloads are canonical, so the serving contract makes
	// the two equal for both ops).
	Check bool

	// Costs attributes a calibrated Xeon software cost to each request,
	// enabling the savings columns. Nil skips them.
	Costs *CostTable

	// Observe, when non-nil, sees every response in send order within a
	// worker, on that worker's goroutine (test hook for determinism
	// checks). Transport errors have no response and skip it.
	Observe func(worker int, rec Record, resp serve.Response)
}

// LoadReport is one Run's outcome.
type LoadReport struct {
	Tally   Tally         // merged over the workers
	Elapsed time.Duration // at least Duration for a paced run
}

// Run drives the source's records through the serving path with
// opts.Workers workers and returns the merged report. Each worker owns
// one client and sends each of its records once, with the record's own
// op. A transport error is counted under Errors and the worker goes on;
// only bad options, a source error or a failed dial fail the run.
func Run(o LoadOptions) (*LoadReport, error) {
	if o.Dial == nil || o.Catalog == nil || o.Source == nil {
		return nil, errors.New("workloads: Run needs Dial, Catalog and Source")
	}
	workers := max(1, o.Workers)
	nexts := make([]func(int) (Record, bool), workers)
	for w := range nexts {
		var err error
		if nexts[w], err = o.Source(w, workers); err != nil {
			return nil, err
		}
	}
	var clients []serve.Doer
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for w := 0; w < workers; w++ {
		c, err := o.Dial()
		if err != nil {
			return nil, fmt.Errorf("workloads: dial client %d: %w", w, err)
		}
		clients = append(clients, c)
	}

	tallies := make([]*Tally, workers) // one per worker, merged after Wait
	var interval time.Duration
	if o.RatePerSec > 0 {
		// Capped at a century, so a tiny rate cannot overflow the
		// conversion to a Duration, nor the stagger below.
		const century = 100 * 365 * 24 * 3600
		interval = time.Duration(min(float64(workers)/o.RatePerSec, century) * float64(time.Second))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := range tallies {
		st, c := &Tally{}, clients[w]
		tallies[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Paced workers start staggered across one interval.
			next := start.Add(interval / time.Duration(workers) * time.Duration(w))
			for i := 0; ; i++ {
				// A paced worker stops at a send scheduled at or past the
				// end of the run, rather than sleeping until it is due.
				now := time.Now()
				if o.Duration > 0 && (now.Sub(start) >= o.Duration || interval > 0 && next.Sub(start) >= o.Duration) {
					return
				}
				rec, more := nexts[w](i)
				if !more {
					return
				}
				payload := o.Catalog.Lookup(rec.Schema).SamplePayload(rec.Sample)
				// Open-loop latency is measured from the *scheduled* send
				// time, not from when the pacing sleep returned: under
				// overload the schedule falls behind, and measuring from
				// the post-sleep instant would silently drop exactly the
				// queueing delay the open-loop mode exists to expose
				// (coordinated omission, underreporting p99/p999).
				t0 := time.Now()
				if interval > 0 {
					if d := next.Sub(now); d > 0 {
						time.Sleep(d)
					}
					t0, next = next, next.Add(interval)
				}
				resp, err := c.Do(serve.Request{Op: rec.Op, Schema: rec.Schema, Timeout: o.Timeout, Payload: payload})
				st.note(resp, err, payload, o.Costs.Cycles(rec.Schema, rec.Sample, rec.Op), o.Check)
				if err != nil {
					continue
				}
				if resp.Status == serve.StatusOK {
					st.Latency.Record(time.Since(t0))
				}
				if o.Observe != nil {
					o.Observe(w, rec, resp)
				}
			}
		}()
	}
	wg.Wait()

	rep := &LoadReport{Elapsed: time.Since(start)}
	if interval > 0 {
		// Paced workers stop early rather than overrun, but the run
		// spans its Duration: that is the window the rate is over.
		rep.Elapsed = max(rep.Elapsed, o.Duration)
	}
	for _, t := range tallies {
		rep.Tally.Merge(t)
	}
	return rep, nil
}
