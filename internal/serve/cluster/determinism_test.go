package cluster

import (
	"bytes"
	"testing"

	"protoacc/internal/serve"
	"protoacc/internal/workloads"
)

// observed is one response as seen by the replay hook.
type observed struct {
	status   serve.Status
	fellBack bool
	cycles   float64
	payload  []byte
}

// replayCluster replays the trace through a pool of the given size with
// default options (health off) and one replay worker, and returns every
// response in record order and each node's counters.
func replayCluster(t *testing.T, nodes int, trace *workloads.Trace) ([]observed, []NodeCounters) {
	t.Helper()
	addrs := make([]string, nodes)
	for i := range addrs {
		_, addrs[i] = startServer(t, serverOptions())
	}
	b, err := New(Options{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var got []observed
	cat := serve.DefaultCatalog()
	rep, err := workloads.Run(workloads.LoadOptions{
		Dial:    func() (serve.Doer, error) { return b.Client(), nil },
		Catalog: cat,
		Source:  trace.Source(cat),
		Workers: 1,
		Check:   true,
		Observe: func(worker int, rec workloads.Record, resp serve.Response) {
			got = append(got, observed{
				status:   resp.Status,
				fellBack: resp.FellBack,
				cycles:   resp.Cycles,
				payload:  append([]byte(nil), resp.Payload...),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Tally.Errors; n != 0 {
		t.Fatalf("%d-node replay: %d transport errors", nodes, n)
	}
	c := b.Counters()
	if c["serve/cluster/retries"] != 0 || c["serve/cluster/ejections"] != 0 {
		t.Fatalf("deterministic replay was not clean: retries=%v ejections=%v",
			c["serve/cluster/retries"], c["serve/cluster/ejections"])
	}
	if c["serve/cluster/requests"] != float64(len(trace.Records)) {
		t.Fatalf("replayed %v cluster requests, want %d", c["serve/cluster/requests"], len(trace.Records))
	}
	return got, b.NodeStats()
}

// The cluster determinism contract: a 1-node and a 2-node pool
// replaying the identical trace produce byte-identical responses record
// for record — the multi-node analogue of the 1-tile-vs-N-tile
// equivalence the tile router pins.
func TestClusterDeterminism1v2(t *testing.T) {
	trace, err := workloads.Synthesize(workloads.SynthOptions{Seed: 1234, Records: 384})
	if err != nil {
		t.Fatal(err)
	}
	one, _ := replayCluster(t, 1, trace)
	two, _ := replayCluster(t, 2, trace)
	if len(one) != len(two) {
		t.Fatalf("response counts differ: 1-node=%d 2-node=%d", len(one), len(two))
	}
	for i := range one {
		a, b := one[i], two[i]
		if a.status != b.status || a.fellBack != b.fellBack {
			t.Errorf("record %d: status/fallback differ: 1-node=%v/%v 2-node=%v/%v",
				i, a.status, a.fellBack, b.status, b.fellBack)
		}
		if !bytes.Equal(a.payload, b.payload) {
			t.Errorf("record %d: payload bytes differ between 1-node and 2-node pools", i)
		}
		if a.cycles != b.cycles {
			t.Errorf("record %d: cycles differ: 1-node=%v 2-node=%v", i, a.cycles, b.cycles)
		}
	}
}

// Round-robin node placement is a pure function of the request sequence:
// the same trace through the same healthy 2-node pool twice gives each
// node the identical, even request count, and a repeat replay
// reproduces the responses.
func TestClusterRRPlacementDeterministic(t *testing.T) {
	const records = 128
	trace, err := workloads.Synthesize(workloads.SynthOptions{Seed: 99, Records: records})
	if err != nil {
		t.Fatal(err)
	}
	first, firstNodes := replayCluster(t, 2, trace)
	second, secondNodes := replayCluster(t, 2, trace)
	for _, stats := range [][]NodeCounters{firstNodes, secondNodes} {
		for i, ns := range stats {
			if ns.Requests != records/2 {
				t.Errorf("node %d took %d requests, want %d", i, ns.Requests, records/2)
			}
		}
	}
	for i := range first {
		if !bytes.Equal(first[i].payload, second[i].payload) || first[i].cycles != second[i].cycles {
			t.Fatalf("record %d: repeat replay diverged", i)
		}
	}
}
