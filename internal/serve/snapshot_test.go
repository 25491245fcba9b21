package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"protoacc/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot.golden")

// The quiescent counter view of four deterministic servers, pinned byte
// for byte: every TelemetrySnapshot sample, the /healthz totals, and each
// tile's resilience counters in /healthz. The live gauges (inflight
// batches, queue depth) are left out.
func TestServeSnapshotGolden(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Options)
	}{
		{"1 tile", func(o *Options) { o.Tiles = 1 }},
		{"4 tiles", func(o *Options) { o.Tiles, o.Workers = 4, 4 }},
		{"4 tiles, element chain", func(o *Options) {
			o.Tiles, o.Workers = 4, 4
			o.Elements = allElements()
		}},
		{"4 tiles, faults on tile 1", func(o *Options) {
			o.Tiles, o.Workers = 4, 4
			o.Faults = faults.Config{Enabled: true, Seed: 1234, Rate: 0.2}
			o.FaultTiles = []int{1}
		}},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		opts := testOptions()
		c.set(&opts)
		srv, err := NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		entry := srv.Catalog().Lookup("varint")
		bad := []Request{
			{Op: OpDeserialize, Schema: "nope", Payload: entry.SamplePayload(0)},
			{Op: Op(9), Schema: "varint", Payload: entry.SamplePayload(0)},
			{Op: OpDeserialize, Schema: "varint", Payload: []byte{0xff, 0xff, 0xff}},
			{Op: OpSerialize, Schema: "varint", Payload: make([]byte, opts.MaxPayload+1)},
		}
		client := srv.InProc()
		for pass := 0; pass < 3; pass++ {
			if _, err := client.DoBatch(append(sampleRequests(srv.Catalog(), 16), bad...)); err != nil {
				srv.Close()
				t.Fatal(err)
			}
		}
		srv.Close()
		fmt.Fprintf(&buf, "== %s\n", c.name)
		for _, sm := range srv.TelemetrySnapshot().Samples() {
			fmt.Fprintf(&buf, "%s %s\n", sm.Name, strconv.FormatFloat(sm.Value, 'g', -1, 64))
		}
		fmt.Fprintf(&buf, "healthz totals %+v\n", srv.healthTotals())
		for _, h := range srv.Health() {
			fmt.Fprintf(&buf, "healthz tile%d accel_fallbacks=%d server_fallbacks=%d retries=%d\n",
				h.Tile, h.AccelFallbacks, h.ServerFallbacks, h.Retries)
		}
	}
	golden := filepath.Join("testdata", "snapshot.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run TestServeSnapshotGolden -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serving snapshot drifted from %s.\ngot:\n%s", golden, buf.Bytes())
	}
}
