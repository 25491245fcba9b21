package workloads

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"protoacc/internal/serve"
)

// slowDoer answers every request correctly but takes a fixed service
// time — a deliberately overloaded "server" for the coordinated-omission
// regression test.
type slowDoer struct {
	delay time.Duration
}

func (d slowDoer) Do(req serve.Request) (serve.Response, error) {
	time.Sleep(d.delay)
	return serve.Response{ID: req.ID, Status: serve.StatusOK, Payload: req.Payload}, nil
}

func (d slowDoer) Close() error { return nil }

// passOptions is one closed-loop catalog pass over varint deserializes
// against the Doer dial returns.
func passOptions(dial func() (serve.Doer, error), duration time.Duration) LoadOptions {
	cat := serve.DefaultCatalog()
	return LoadOptions{
		Dial:     dial,
		Catalog:  cat,
		Source:   CatalogSource(cat, "varint", serve.OpDeserialize, 0),
		Duration: duration,
		Workers:  1,
	}
}

// Open-loop (paced) latency must be recorded from the scheduled send
// time, not from when the pacing sleep returned. Against a server whose
// service time exceeds the pacing interval, the schedule falls further
// behind with every request, so the tail latency must grow far beyond the
// per-request service time; measuring from the post-sleep instant
// (coordinated omission) would clamp every sample to roughly the service
// time and underreport p99/p999.
func TestLoadgenOpenLoopCoordinatedOmission(t *testing.T) {
	const serviceTime = 5 * time.Millisecond
	o := passOptions(func() (serve.Doer, error) { return slowDoer{delay: serviceTime}, nil }, 250*time.Millisecond)
	o.RatePerSec = 1000 // 1ms interval << 5ms service time: permanent overload
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	st := &rep.Tally
	if st.OK < 10 {
		t.Fatalf("only %d requests completed; test cannot observe queueing delay", st.OK)
	}
	// After k requests the schedule is behind by k*(serviceTime-interval);
	// with ~40+ completions the worst sample must far exceed the service
	// time. 4x is a conservative floor that the coordinated-omission bug
	// could never reach (it reported ≈ serviceTime regardless of backlog).
	if got := st.Latency.Quantile(1.0); got < 4*serviceTime {
		t.Errorf("open-loop max latency %v under permanent overload; want >= %v (queueing delay from the schedule, not the send instant)",
			got, 4*serviceTime)
	}
	// The mean must also reflect the backlog, not just the tail.
	if got := st.Latency.Mean(); got < 2*serviceTime {
		t.Errorf("open-loop mean latency %v under permanent overload; want >= %v", got, 2*serviceTime)
	}
}

// A paced worker stops at a send scheduled at or past the end of the
// run. It used to sleep until that send was due and send it, so 2
// workers at 1 req/s for 50ms ran for 2s and sent 3 requests; and 10
// workers at 1e-10 req/s overflowed the pacing interval into a negative
// Duration and ran closed-loop.
func TestLoadgenPacedStopsAtDuration(t *testing.T) {
	for _, tc := range []struct {
		workers int
		rate    float64
	}{{2, 1}, {10, 1e-10}} {
		o := passOptions(func() (serve.Doer, error) { return slowDoer{}, nil }, 50*time.Millisecond)
		o.Workers, o.RatePerSec = tc.workers, tc.rate
		start := time.Now()
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took >= time.Second {
			t.Errorf("%d workers at %g req/s: a 50ms paced run took %v", tc.workers, tc.rate, took)
		}
		if rep.Elapsed != o.Duration {
			t.Errorf("%d workers at %g req/s: Elapsed = %v, want the run's Duration %v", tc.workers, tc.rate, rep.Elapsed, o.Duration)
		}
		// Worker 0 sends at the start; every other send falls due past
		// the end.
		if n := rep.Tally.Requests; n != 1 {
			t.Errorf("%d workers at %g req/s: sent %d requests, want 1", tc.workers, tc.rate, n)
		}
	}
}

// Closed-loop latency is still measured from the send instant: against
// the same slow server it must stay near the service time (no pacing, no
// schedule to fall behind).
func TestLoadgenClosedLoopLatencyUnchanged(t *testing.T) {
	const serviceTime = 2 * time.Millisecond
	rep, err := Run(passOptions(func() (serve.Doer, error) { return slowDoer{delay: serviceTime}, nil }, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st := &rep.Tally
	if st.OK == 0 {
		t.Fatal("no requests completed")
	}
	if got := st.Latency.Quantile(0.50); got > 10*serviceTime {
		t.Errorf("closed-loop p50 %v is far above the %v service time", got, serviceTime)
	}
}

// Merge must sum every counter field, integer and cycle count alike (set
// here by reflection, so a counter added later cannot be missed), and
// pool the latency samples.
func TestLoadgenReportMerge(t *testing.T) {
	var a, b Tally
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Uint64:
			av.Field(i).SetUint(uint64(i + 1))
			bv.Field(i).SetUint(uint64(100 * (i + 1)))
		case reflect.Float64:
			av.Field(i).SetFloat(float64(i + 1))
			bv.Field(i).SetFloat(float64(100 * (i + 1)))
		}
	}
	a.Latency.Record(time.Millisecond)
	b.Latency.Record(2 * time.Millisecond)
	b.Latency.Record(3 * time.Millisecond)

	a.Merge(&b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		switch f := av.Field(i); f.Kind() {
		case reflect.Uint64:
			if f.Uint() != uint64(101*(i+1)) {
				t.Errorf("%s = %d, want %d", name, f.Uint(), 101*(i+1))
			}
		case reflect.Float64:
			if f.Float() != float64(101*(i+1)) {
				t.Errorf("%s = %v, want %d", name, f.Float(), 101*(i+1))
			}
		}
	}
	if got := a.Latency.Count(); got != 3 {
		t.Errorf("Latency.Count() = %d, want 3", got)
	}
	if got := time.Duration(a.Latency.Sum()); got != 6*time.Millisecond {
		t.Errorf("Latency.Sum() = %v, want 6ms", got)
	}
}

// sent is one request as a recordingDoer saw it.
type sent struct {
	client  int
	op      serve.Op
	schema  string
	payload []byte
}

// recordingDoer logs every request with the index of the client that
// sent it and echoes its payload. Not safe for concurrent use: one
// worker only.
type recordingDoer struct {
	client int
	log    *[]sent
}

func (d recordingDoer) Do(req serve.Request) (serve.Response, error) {
	*d.log = append(*d.log, sent{d.client, req.Op, req.Schema, req.Payload})
	return serve.Response{Status: serve.StatusOK, Payload: req.Payload}, nil
}

func (d recordingDoer) Close() error { return nil }

// recordRun runs tr with one worker against recording clients and
// returns every request in send order.
func recordRun(t *testing.T, tr *Trace) []sent {
	t.Helper()
	cat := serve.DefaultCatalog()
	var log []sent
	dialed := 0
	_, err := Run(LoadOptions{
		Dial: func() (serve.Doer, error) {
			dialed++
			return recordingDoer{client: dialed - 1, log: &log}, nil
		},
		Catalog: cat, Source: tr.Source(cat), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// With one worker, a replay sends the trace's (op, schema, payload) in
// record order.
func TestRunRequestOrder(t *testing.T) {
	tr, err := Synthesize(SynthOptions{Seed: 9, Records: 24})
	if err != nil {
		t.Fatal(err)
	}
	cat := serve.DefaultCatalog()
	payload := func(r Record) []byte { return cat.Lookup(r.Schema).SamplePayload(r.Sample) }

	var want []sent
	for _, r := range tr.Records {
		want = append(want, sent{0, r.Op, r.Schema, payload(r)})
	}
	if got := recordRun(t, tr); !reflect.DeepEqual(got, want) {
		t.Errorf("replay sent %d requests out of trace order:\n got %v\nwant %v", len(got), got, want)
	}
}

// flakyDoer echoes every request but fails every third call with a
// transport error, counting both over all its clients.
type flakyDoer struct {
	calls, failed *atomic.Uint64
}

func (d flakyDoer) Do(req serve.Request) (serve.Response, error) {
	if d.calls.Add(1)%3 == 0 {
		d.failed.Add(1)
		return serve.Response{}, errors.New("flaky: connection reset")
	}
	return serve.Response{Status: serve.StatusOK, Payload: req.Payload}, nil
}

func (d flakyDoer) Close() error { return nil }

// A transport error is counted and the worker goes on, in a catalog
// pass and a replay alike: Errors counts every failed call, Requests
// counts every call, and Run itself succeeds.
func TestRunCountsTransportErrors(t *testing.T) {
	tr, err := Synthesize(SynthOptions{Seed: 10, Records: 60})
	if err != nil {
		t.Fatal(err)
	}
	cat := serve.DefaultCatalog()
	for _, tc := range []struct {
		name  string
		src   Source
		calls uint64 // 0: a timed pass, any count
	}{
		{"pass", CatalogSource(cat, "mixed", serve.OpSerialize, 0), 0},
		{"replay", tr.Source(cat), 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, failed atomic.Uint64
			o := LoadOptions{
				Dial:    func() (serve.Doer, error) { return flakyDoer{&calls, &failed}, nil },
				Catalog: cat, Source: tc.src, Workers: 2, Check: true,
			}
			if tc.calls == 0 {
				o.Duration = 20 * time.Millisecond
			}
			rep, err := Run(o)
			if err != nil {
				t.Fatalf("Run failed on a transport error: %v", err)
			}
			sum := &rep.Tally
			if tc.calls != 0 && calls.Load() != tc.calls {
				t.Errorf("%d calls, want %d (a failed call must not stop its worker)", calls.Load(), tc.calls)
			}
			// A worker that stopped at its first error could fail once.
			if failed.Load() <= uint64(o.Workers) {
				t.Errorf("%d failed calls over %d workers: a failed call stopped its worker", failed.Load(), o.Workers)
			}
			if sum.Errors != failed.Load() {
				t.Errorf("Errors = %d, want the %d failed calls", sum.Errors, failed.Load())
			}
			if sum.Requests != calls.Load() || sum.OK != calls.Load()-failed.Load() {
				t.Errorf("Requests = %d OK = %d, want %d calls with %d OK", sum.Requests, sum.OK, calls.Load(), calls.Load()-failed.Load())
			}
			if sum.CheckFailures != 0 {
				t.Errorf("%d check failures over echoed payloads", sum.CheckFailures)
			}
		})
	}
}
