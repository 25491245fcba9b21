package workloads

import (
	"reflect"
	"testing"
	"time"

	"protoacc/internal/fleet"
	"protoacc/internal/serve"
)

func testServerOptions() serve.Options {
	return serve.Options{
		MaxBatch:    4,
		QueueDepth:  64,
		Workers:     2,
		MaxPayload:  8 << 10,
		BatchWindow: 100 * time.Microsecond,
		Deadline:    time.Minute,
	}
}

// Same seed and options must synthesize the identical trace; different
// seeds must not.
func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(SynthOptions{Seed: 7, Records: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(SynthOptions{Seed: 7, Records: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Synthesize(SynthOptions{Seed: 8, Records: 512})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Fatal("different seeds produced identical traces")
	}
}

// The synthesized trace must be fleet-shaped: every catalog schema
// appears, the op mix tracks the §3.2 deserialize/serialize cycle split,
// keys are Zipf-skewed (rank 0 dominates), and each record's Size equals
// its resolved payload length with the same (schema, sample) on every
// occurrence of a key.
func TestSynthesizeFleetShape(t *testing.T) {
	cat := serve.DefaultCatalog()
	tr, err := Synthesize(SynthOptions{Seed: 1, Records: 8192, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]int{}
	keyBind := map[uint64]Record{}
	var deser, keyZero int
	for _, r := range tr.Records {
		schemas[r.Schema]++
		if r.Op == serve.OpDeserialize {
			deser++
		}
		if r.Key == 0 {
			keyZero++
		}
		if got := len(cat.Lookup(r.Schema).SamplePayload(r.Sample)); got != r.Size {
			t.Fatalf("record size %d != payload length %d", r.Size, got)
		}
		if prev, ok := keyBind[r.Key]; ok {
			if prev.Schema != r.Schema || prev.Sample != r.Sample {
				t.Fatalf("key %d re-bound: %v then %v", r.Key, prev, r)
			}
		} else {
			keyBind[r.Key] = r
		}
	}
	for _, name := range cat.Names() {
		if schemas[name] == 0 {
			t.Errorf("schema %q never appears in an 8192-record trace", name)
		}
	}
	want := fleet.FleetCyclesInCppDeser / (fleet.FleetCyclesInCppDeser + fleet.FleetCyclesInCppSer)
	got := float64(deser) / float64(len(tr.Records))
	if got < want-0.05 || got > want+0.05 {
		t.Errorf("deserialize share %.3f, want %.3f±0.05 (fleet op mix)", got, want)
	}
	if float64(keyZero)/float64(len(tr.Records)) < 0.2 {
		t.Errorf("hottest key holds %.1f%% of records; Zipf(1.2) skew should concentrate >20%%",
			100*float64(keyZero)/float64(len(tr.Records)))
	}
}

// The Xeon cost table must cover every (schema, sample, op) with a
// positive cost, and lookups must wrap sample indices like
// Entry.SamplePayload.
func TestCalibrateCosts(t *testing.T) {
	cat := serve.DefaultCatalog()
	costs, err := CalibrateCosts(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.Names() {
		e := cat.Lookup(name)
		for i := 0; i < e.NumSamples(); i++ {
			for _, op := range []serve.Op{serve.OpDeserialize, serve.OpSerialize} {
				if c := costs.Cycles(name, i, op); c <= 0 {
					t.Fatalf("%s/%d %v: cost %v, want > 0", name, i, op, c)
				}
			}
		}
		if a, b := costs.Cycles(name, 1, serve.OpDeserialize), costs.Cycles(name, 1+e.NumSamples(), serve.OpDeserialize); a != b {
			t.Errorf("%s: sample index does not wrap: [1]=%v [1+n]=%v", name, a, b)
		}
	}
	if costs.Cycles("no-such-schema", 0, serve.OpDeserialize) != 0 {
		t.Error("unknown schema should cost 0 (uncalibrated)")
	}
	var nilTable *CostTable
	if nilTable.Cycles("varint", 0, serve.OpDeserialize) != 0 {
		t.Error("nil table should cost 0")
	}
}

// Replay against an in-process server: every response byte-verified and
// counters consistent. The same trace sent as preformed batches must
// show accelerator savings under the Xeon cost table (the paper's
// headline: hardware beats the software codec). The savings are measured
// on preformed batches because the live replay's batches depend on
// timing: its two closed-loop workers mostly run requests alone.
func TestReplayInProcess(t *testing.T) {
	tr, err := Synthesize(SynthOptions{Seed: 5, Records: 160})
	if err != nil {
		t.Fatal(err)
	}
	costs, err := CalibrateCosts(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(testServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := Run(LoadOptions{
		Dial:    func() (serve.Doer, error) { return srv.InProc(), nil },
		Catalog: srv.Catalog(), Source: tr.Source(srv.Catalog()), Workers: 2, Check: true, Costs: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &rep.Tally
	if st.Requests != uint64(len(tr.Records)) {
		t.Fatalf("replayed %d of %d records", st.Requests, len(tr.Records))
	}
	if st.OK != st.Requests {
		t.Fatalf("%d of %d requests not OK (errors=%d rejected=%d)", st.Requests-st.OK, st.Requests, st.Errors, st.Rejected())
	}
	if st.CheckFailures != 0 {
		t.Fatalf("%d byte-verification failures", st.CheckFailures)
	}
	if st.Latency.Count() != st.OK {
		t.Errorf("latency samples %d != OK %d", st.Latency.Count(), st.OK)
	}
	batched := batchedStats(t, srv, tr, costs, testServerOptions().QueueDepth)
	if s := batched.Savings(); s <= 1 {
		t.Errorf("accel-vs-software savings %.2fx, want > 1x (accel=%.0f soft=%.0f over %d reqs)",
			s, batched.AccelCycles, batched.SoftCycles, batched.SoftReqs)
	}
}

// batchedStats sends tr through InProc.DoBatch in trace order, chunk
// records per call, and returns the byte-verified outcome with each
// request's calibrated Xeon cost. Consecutive records sharing a
// (schema, op) run as one batch (split at MaxBatch), so the batches and
// their cycles are a pure function of the trace and chunk. A chunk no
// longer than the queue depth never sheds: each batch takes one slot.
func batchedStats(t *testing.T, srv *serve.Server, tr *Trace, costs *CostTable, chunk int) *Tally {
	t.Helper()
	client := srv.InProc()
	st := &Tally{}
	for lo := 0; lo < len(tr.Records); lo += chunk {
		recs := tr.Records[lo:min(lo+chunk, len(tr.Records))]
		reqs := make([]serve.Request, len(recs))
		for i, r := range recs {
			reqs[i] = serve.Request{Op: r.Op, Schema: r.Schema, Payload: srv.Catalog().Lookup(r.Schema).SamplePayload(r.Sample)}
		}
		resps, err := client.DoBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			st.note(resps[i], nil, reqs[i].Payload, costs.Cycles(r.Schema, r.Sample, r.Op), true)
		}
	}
	if st.OK != st.Requests || st.CheckFailures != 0 {
		t.Fatalf("batched pass: %d of %d OK, %d byte-verification failures", st.OK, st.Requests, st.CheckFailures)
	}
	return st
}
