package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"protoacc/internal/telemetry"
)

// LoadgenOptions configures one load-generation run.
type LoadgenOptions struct {
	// Dial builds one client per worker (TCP Conn or in-process client).
	Dial func() (Doer, error)

	// Catalog supplies sample payloads; nil selects DefaultCatalog. It must
	// match the server's catalog for -check to hold.
	Catalog *Catalog

	// Schema names the catalog entry to exercise (default "varint").
	Schema string

	// Op is the operation to issue.
	Op Op

	// Duration bounds the run (default 2s).
	Duration time.Duration

	// Concurrency is the number of closed-loop workers (default 8).
	Concurrency int

	// RatePerSec switches to open-loop: workers pace submissions to this
	// aggregate rate instead of saturating. 0 means closed-loop.
	RatePerSec float64

	// ZipfS > 1 switches payload selection from the uniform sample walk to
	// a Zipf(s)-skewed draw over the schema's sample payloads — hot-key
	// traffic, where a handful of payloads dominate (the distribution the
	// response cache exists for). Larger s is more skewed; 0 keeps the
	// uniform walk. Values in (0, 1] are invalid (Zipf needs s > 1).
	ZipfS float64

	// Timeout is the per-request deadline passed to the server (0 inherits
	// the server default).
	Timeout time.Duration

	// Check verifies every OK response is byte-identical to its request
	// payload (sample payloads are canonical, so the serving contract makes
	// the two equal for both ops).
	Check bool
}

// LoadgenReport summarizes a run.
type LoadgenReport struct {
	Schema string
	Op     Op

	Elapsed   time.Duration
	Requests  uint64
	OK        uint64
	Shed      uint64
	Throttled uint64 // rejected by the admission-control element
	Deadline  uint64
	Bad       uint64
	Errors    uint64 // transport errors and StatusError responses
	FellBack  uint64 // OK responses served by a software path

	BytesIn  uint64 // payload bytes sent
	BytesOut uint64 // payload bytes received on OK responses

	CheckFailures uint64

	// Latency is the client-observed end-to-end latency distribution,
	// merged across workers (telemetry.Histogram records are atomic, so a
	// per-worker shard plus a final Merge stays contention-free).
	Latency telemetry.Histogram
}

// RPS returns completed (OK) requests per second.
func (r *LoadgenReport) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// Merge adds o's counters, Elapsed and latency samples into r, so r
// summarizes the passes (or workers) merged into it.
func (r *LoadgenReport) Merge(o *LoadgenReport) {
	r.Elapsed += o.Elapsed
	r.Requests += o.Requests
	r.OK += o.OK
	r.Shed += o.Shed
	r.Throttled += o.Throttled
	r.Deadline += o.Deadline
	r.Bad += o.Bad
	r.Errors += o.Errors
	r.FellBack += o.FellBack
	r.BytesIn += o.BytesIn
	r.BytesOut += o.BytesOut
	r.CheckFailures += o.CheckFailures
	r.Latency.Merge(&o.Latency)
}

// Gbps returns the OK-response payload throughput in Gbit/s.
func (r *LoadgenReport) Gbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesOut) * 8 / r.Elapsed.Seconds() / 1e9
}

// RunLoadgen drives a server with opts.Concurrency workers and returns the
// merged report. Each worker owns one client connection and walks the
// schema's sample payloads; closed-loop workers issue back-to-back,
// open-loop workers pace to RatePerSec/Concurrency each.
func RunLoadgen(opts LoadgenOptions) (*LoadgenReport, error) {
	if opts.Dial == nil {
		return nil, fmt.Errorf("serve: loadgen needs a Dial function")
	}
	if opts.Catalog == nil {
		opts.Catalog = DefaultCatalog()
	}
	if opts.Schema == "" {
		opts.Schema = "varint"
	}
	entry := opts.Catalog.Lookup(opts.Schema)
	if entry == nil {
		return nil, fmt.Errorf("serve: loadgen: unknown schema %q", opts.Schema)
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.ZipfS > 0 && opts.ZipfS <= 1 {
		return nil, fmt.Errorf("serve: loadgen: -skew %g invalid (Zipf needs s > 1, or 0 for uniform)", opts.ZipfS)
	}
	// Entry.SamplePayload indexes modulo the sample count, so an entry
	// with no payloads cannot be driven at all (i%0 panics), and skewed
	// mode additionally needs NumSamples-1 ≥ 1 as its Zipf imax: at one
	// sample the subtraction still works (imax 0 — every draw is sample
	// 0), but at zero it wraps to 2^64-1. Reject the empty entry up front
	// instead of panicking in a worker.
	if entry.NumSamples() == 0 {
		return nil, fmt.Errorf("serve: loadgen: schema %q has no sample payloads", opts.Schema)
	}

	reports := make([]LoadgenReport, opts.Concurrency)
	errs := make([]error, opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(opts.Duration)
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := opts.Dial()
			if err != nil {
				errs[w] = err
				return
			}
			defer client.Close()
			rep := &reports[w]
			// Skewed mode draws sample indices from a per-worker Zipf
			// source (seeded by worker id, so runs are reproducible for a
			// given concurrency); rank 0 — the hottest key — maps to sample
			// 0 on every worker, so the fleet-wide hot set overlaps.
			// A single-sample schema degenerates to the uniform walk (every
			// draw would be sample 0 anyway), and a nil return from
			// rand.NewZipf — its signal for parameters it rejects — becomes
			// a worker error instead of a nil-dereference panic in the loop.
			var zipf *rand.Zipf
			if opts.ZipfS > 1 && entry.NumSamples() > 1 {
				src := rand.New(rand.NewSource(int64(w) + 1))
				zipf = rand.NewZipf(src, opts.ZipfS, 1, uint64(entry.NumSamples()-1))
				if zipf == nil {
					errs[w] = fmt.Errorf("serve: loadgen: rand.NewZipf rejected s=%g imax=%d", opts.ZipfS, entry.NumSamples()-1)
					return
				}
			}
			var interval time.Duration
			next := time.Now()
			if opts.RatePerSec > 0 {
				interval = time.Duration(float64(opts.Concurrency) / opts.RatePerSec * float64(time.Second))
				next = start.Add(time.Duration(w) * interval / time.Duration(opts.Concurrency))
			}
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(stop) {
					return
				}
				// Open-loop latency is measured from the *scheduled* send
				// time, not from when the pacing sleep returned: under
				// overload the schedule falls behind, and measuring from
				// the post-sleep instant would silently drop exactly the
				// queueing delay the open-loop mode exists to expose
				// (coordinated omission, underreporting p99/p999).
				var sendAt time.Time
				if interval > 0 {
					sendAt = next
					if d := next.Sub(now); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				idx := w*7919 + i
				if zipf != nil {
					idx = int(zipf.Uint64())
				}
				payload := entry.SamplePayload(idx)
				t0 := time.Now()
				if !sendAt.IsZero() {
					t0 = sendAt
				}
				resp, err := client.Do(Request{
					Op:      opts.Op,
					Schema:  opts.Schema,
					Timeout: opts.Timeout,
					Payload: payload,
				})
				lat := time.Since(t0)
				rep.Requests++
				rep.BytesIn += uint64(len(payload))
				if err != nil {
					rep.Errors++
					continue
				}
				switch resp.Status {
				case StatusOK:
					rep.OK++
					rep.BytesOut += uint64(len(resp.Payload))
					rep.Latency.Record(lat)
					if resp.FellBack {
						rep.FellBack++
					}
					if opts.Check && !bytes.Equal(resp.Payload, payload) {
						rep.CheckFailures++
					}
				case StatusShed:
					rep.Shed++
				case StatusThrottled:
					rep.Throttled++
				case StatusDeadline:
					rep.Deadline++
				case StatusBadRequest:
					rep.Bad++
				default:
					rep.Errors++
				}
			}
		}(w)
	}
	wg.Wait()
	out := &LoadgenReport{Schema: opts.Schema, Op: opts.Op, Elapsed: time.Since(start)}
	for w := range reports {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out.Merge(&reports[w]) // worker reports carry no Elapsed
	}
	return out, nil
}
