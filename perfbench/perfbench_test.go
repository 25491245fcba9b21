package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"protoacc/internal/serve"
)

// flipOne corrupts one byte of the n'th response it passes through.
type flipOne struct {
	serve.Doer
	calls atomic.Int64
	n     int64
}

func (f *flipOne) Do(req serve.Request) (serve.Response, error) {
	resp, err := f.Doer.Do(req)
	if f.calls.Add(1) == f.n && err == nil && len(resp.Payload) > 0 {
		// Copy first: the payload may be shared with the response cache.
		resp.Payload = append([]byte(nil), resp.Payload...)
		resp.Payload[len(resp.Payload)/2] ^= 0x01
	}
	return resp, err
}

func TestFlippedByteCountsAsFailed(t *testing.T) {
	e, err := setup(workload{name: "fleet-inproc"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	f := &flipOne{Doer: e.clients[0], n: 10}
	const n = 512
	p := closedLoop(e, []serve.Doer{f}, nil, n, 0)
	if p.attempted != n || p.mismatch != 1 || p.failed() != 1 || p.ok != n-1 {
		t.Fatalf("closed loop with one flipped byte: %s", p.tally)
	}
	f.calls.Store(0)
	p = openLoop(e, []serve.Doer{f}, nil, pacedRate, 100*time.Millisecond)
	if p.mismatch != 1 || p.failed() != 1 || len(p.lat) != int(p.ok) {
		t.Fatalf("open loop with one flipped byte: %s, %d latencies", p.tally, len(p.lat))
	}
}

func TestSimulatedPassRepeatsExactly(t *testing.T) {
	var got [2]simResult
	for i := range got {
		e, err := setup(workload{name: "fleet-inproc"}, 7)
		if err != nil {
			t.Fatal(err)
		}
		e.close()
		if got[i], err = simPass(e); err != nil {
			t.Fatal(err)
		}
		if got[i].failed() != 0 || got[i].attempted != uint64(len(e.reqs)) {
			t.Fatalf("simulated pass %d: %s", i, got[i].tally)
		}
	}
	if got[0].gbps != got[1].gbps || got[0].speedup != got[1].speedup {
		t.Fatalf("simulated pass differs between invocations: %v/%v Gbit/s, %v/%vx",
			got[0].gbps, got[1].gbps, got[0].speedup, got[1].speedup)
	}
}

func TestQuantileCountsBeyond(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	if v, beyond := quantile(s, 0.5); v != 50 || beyond != 50 {
		t.Fatalf("p50 = %v beyond %d, want 50 beyond 50", v, beyond)
	}
	if v, beyond := quantile(s, 0.99); v != 99 || beyond != 1 {
		t.Fatalf("p99 = %v beyond %d, want 99 beyond 1", v, beyond)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 100-30-10 || self[2] != 20 || self[4] != 40 {
		t.Fatalf("self times %v", self)
	}
}

// The metric lists in this package are what BENCHMARK.json declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, allWorkloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
