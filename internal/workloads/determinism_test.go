package workloads

import (
	"bytes"
	"testing"

	"protoacc/internal/serve"
	"protoacc/internal/serve/elements"
)

// respRecord captures the determinism-relevant fields of one response in
// replay order.
type respRecord struct {
	status   serve.Status
	fellBack bool
	cycles   float64
	payload  []byte
}

func deterministicOptions(tiles int) serve.Options {
	o := testServerOptions()
	o.Tiles = tiles
	o.Workers = tiles
	// Chain on: the full element set must not perturb tile-count
	// independence (admission and cache sit before the router; the
	// breaker is event-driven off the same deterministic stream).
	o.Elements = elements.Config{Admission: true, Breaker: true, Cache: true, FillRate: 1e6}
	return o
}

// runOnce replays tr on a fresh server and returns the ordered response
// stream plus the tile-count-independent aggregated counters. The run
// may count no transport error: an error is counted and skipped, so it
// would drop a response from the stream.
func runOnce(t *testing.T, tiles int, tr *Trace) ([]respRecord, map[string]float64) {
	t.Helper()
	srv, err := serve.NewServer(deterministicOptions(tiles))
	if err != nil {
		t.Fatal(err)
	}
	var seen []respRecord
	rep, err := Run(LoadOptions{
		Dial:    func() (serve.Doer, error) { return srv.InProc(), nil },
		Catalog: srv.Catalog(),
		Source:  tr.Source(srv.Catalog()),
		// One worker: the trace replays strictly in record order, so the
		// request stream — and with it the batch→tile placement — is a
		// pure function of the trace.
		Workers: 1,
		Check:   true,
		Observe: func(w int, rec Record, resp serve.Response) {
			seen = append(seen, respRecord{resp.Status, resp.FellBack, resp.Cycles, resp.Payload})
		},
	})
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Tally.Errors; n != 0 {
		t.Fatalf("%d-tile run: %d transport errors", tiles, n)
	}
	return seen, srv.AggregatedCounters()
}

func compareRuns(t *testing.T, label string, ra, rb []respRecord, ca, cb map[string]float64) {
	t.Helper()
	if len(ra) != len(rb) {
		t.Fatalf("%s: response counts differ: 1-tile=%d 4-tile=%d", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].status != rb[i].status || ra[i].fellBack != rb[i].fellBack {
			t.Errorf("%s response %d: status/fallback differ: 1-tile=%+v 4-tile=%+v", label, i, ra[i], rb[i])
		}
		if ra[i].cycles != rb[i].cycles {
			t.Errorf("%s response %d: cycles differ: 1-tile=%v 4-tile=%v", label, i, ra[i].cycles, rb[i].cycles)
		}
		if !bytes.Equal(ra[i].payload, rb[i].payload) {
			t.Errorf("%s response %d: payload bytes differ between tile counts", label, i)
		}
	}
	if len(ca) != len(cb) {
		t.Fatalf("%s: aggregated counter shapes differ: 1-tile=%d 4-tile=%d", label, len(ca), len(cb))
	}
	for name, va := range ca {
		vb, ok := cb[name]
		if !ok {
			t.Errorf("%s: counter %s present in 1-tile run, missing in 4-tile run", label, name)
			continue
		}
		if va != vb {
			t.Errorf("%s: counter %s: 1-tile=%v 4-tile=%v", label, name, va, vb)
		}
	}
}

// Trace-replay determinism (the serving layer's tile contract extended
// to workloads): the same seeded trace replayed with one worker —
// element chain on — must produce bitwise-identical responses and
// identical aggregated serve/ counters on a 1-tile and a 4-tile server.
func TestTraceReplayTileDeterminism(t *testing.T) {
	tr, err := Synthesize(SynthOptions{Seed: 42, Records: 200})
	if err != nil {
		t.Fatal(err)
	}
	ra, ca := runOnce(t, 1, tr)
	rb, cb := runOnce(t, 4, tr)
	compareRuns(t, "replay", ra, rb, ca, cb)
}
