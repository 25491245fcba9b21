package serve

import (
	"reflect"
	"testing"
	"time"
)

// slowDoer answers every request correctly but takes a fixed service
// time — a deliberately overloaded "server" for the coordinated-omission
// regression test.
type slowDoer struct {
	delay time.Duration
}

func (d slowDoer) Do(req Request) (Response, error) {
	time.Sleep(d.delay)
	return Response{ID: req.ID, Status: StatusOK, Payload: req.Payload}, nil
}

func (d slowDoer) Close() error { return nil }

// Open-loop (paced) latency must be recorded from the scheduled send
// time, not from when the pacing sleep returned. Against a server whose
// service time exceeds the pacing interval, the schedule falls further
// behind with every request, so the tail latency must grow far beyond the
// per-request service time; measuring from the post-sleep instant
// (coordinated omission) would clamp every sample to roughly the service
// time and underreport p99/p999.
func TestLoadgenOpenLoopCoordinatedOmission(t *testing.T) {
	const serviceTime = 5 * time.Millisecond
	rep, err := RunLoadgen(LoadgenOptions{
		Dial:        func() (Doer, error) { return slowDoer{delay: serviceTime}, nil },
		Schema:      "varint",
		Op:          OpDeserialize,
		Duration:    250 * time.Millisecond,
		Concurrency: 1,
		RatePerSec:  1000, // 1ms interval << 5ms service time: permanent overload
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK < 10 {
		t.Fatalf("only %d requests completed; test cannot observe queueing delay", rep.OK)
	}
	// After k requests the schedule is behind by k*(serviceTime-interval);
	// with ~40+ completions the worst sample must far exceed the service
	// time. 4x is a conservative floor that the coordinated-omission bug
	// could never reach (it reported ≈ serviceTime regardless of backlog).
	if got := rep.Latency.Quantile(1.0); got < 4*serviceTime {
		t.Errorf("open-loop max latency %v under permanent overload; want >= %v (queueing delay from the schedule, not the send instant)",
			got, 4*serviceTime)
	}
	// The mean must also reflect the backlog, not just the tail.
	if got := rep.Latency.Mean(); got < 2*serviceTime {
		t.Errorf("open-loop mean latency %v under permanent overload; want >= %v", got, 2*serviceTime)
	}
}

// Skewed (and uniform) mode over sample-count edge cases. A zero-sample
// entry used to reach the worker loop, where SamplePayload's modulo
// panicked (uniform) or NumSamples-1 wrapped to 2^64-1 as the Zipf imax
// (skewed); a single-sample entry spent a Zipf source on a distribution
// with one outcome. Zero samples must be rejected up front, one and many
// must run clean in both modes.
func TestLoadgenSampleCountEdgeCases(t *testing.T) {
	payloadsOf := func(e *Entry, n int) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, e.SamplePayload(i))
		}
		return out
	}
	full := DefaultCatalog().Lookup("varint")
	cases := []struct {
		name    string
		samples int
		skew    float64
		wantErr bool
	}{
		{"zero-uniform", 0, 0, true},
		{"zero-skewed", 0, 1.2, true},
		{"one-uniform", 1, 0, false},
		{"one-skewed", 1, 1.2, false},
		{"many-uniform", 8, 0, false},
		{"many-skewed", 8, 1.2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, err := NewCatalog(&Entry{
				Name:     "varint",
				Type:     full.Type,
				payloads: payloadsOf(full, tc.samples),
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunLoadgen(LoadgenOptions{
				Dial:        func() (Doer, error) { return slowDoer{}, nil },
				Catalog:     cat,
				Schema:      "varint",
				Op:          OpDeserialize,
				Duration:    30 * time.Millisecond,
				Concurrency: 2,
				ZipfS:       tc.skew,
				Check:       true,
			})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("%d samples accepted; want an error, not a worker panic", tc.samples)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK == 0 || rep.OK != rep.Requests || rep.CheckFailures != 0 {
				t.Fatalf("ok=%d requests=%d checkFailures=%d", rep.OK, rep.Requests, rep.CheckFailures)
			}
		})
	}
}

// Closed-loop latency is still measured from the send instant: against
// the same slow server it must stay near the service time (no pacing, no
// schedule to fall behind).
func TestLoadgenClosedLoopLatencyUnchanged(t *testing.T) {
	const serviceTime = 2 * time.Millisecond
	rep, err := RunLoadgen(LoadgenOptions{
		Dial:        func() (Doer, error) { return slowDoer{delay: serviceTime}, nil },
		Schema:      "varint",
		Op:          OpDeserialize,
		Duration:    100 * time.Millisecond,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatal("no requests completed")
	}
	if got := rep.Latency.Quantile(0.50); got > 10*serviceTime {
		t.Errorf("closed-loop p50 %v is far above the %v service time", got, serviceTime)
	}
}

// Merge must sum every counter field (set here by reflection, so a
// counter added later cannot be missed) and Elapsed, and pool the
// latency samples.
func TestLoadgenReportMerge(t *testing.T) {
	var a, b LoadgenReport
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() == reflect.Uint64 {
			av.Field(i).SetUint(uint64(i + 1))
			bv.Field(i).SetUint(uint64(100 * (i + 1)))
		}
	}
	a.Elapsed, b.Elapsed = time.Second, 2*time.Second
	a.Latency.Record(time.Millisecond)
	b.Latency.Record(2 * time.Millisecond)
	b.Latency.Record(3 * time.Millisecond)

	a.Merge(&b)
	for i := 0; i < av.NumField(); i++ {
		if f := av.Field(i); f.Kind() == reflect.Uint64 && f.Uint() != uint64(101*(i+1)) {
			t.Errorf("%s = %d, want %d", av.Type().Field(i).Name, f.Uint(), 101*(i+1))
		}
	}
	if a.Elapsed != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", a.Elapsed)
	}
	if got := a.Latency.Count(); got != 3 {
		t.Errorf("Latency.Count() = %d, want 3", got)
	}
	if got := time.Duration(a.Latency.Sum()); got != 6*time.Millisecond {
		t.Errorf("Latency.Sum() = %v, want 6ms", got)
	}
}
