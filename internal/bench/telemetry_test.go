package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protoacc/internal/core"
	"protoacc/internal/telemetry"
)

// TestTelemetrySerialParallelEquivalence extends the determinism gate to
// the counter layer: every run's telemetry snapshot — and the aggregated
// total — must be bitwise-identical whether the grid runs on one worker
// or eight.
func TestTelemetrySerialParallelEquivalence(t *testing.T) {
	ws := NonAllocWorkloads()
	serial := DefaultOptions()
	serial.Parallelism = 1
	serial.Telemetry = &TelemetrySink{}
	parallel := DefaultOptions()
	parallel.Parallelism = 8
	parallel.Telemetry = &TelemetrySink{}
	for _, op := range []Op{Deserialize, Serialize} {
		if _, err := RunSet(op, ws, serial); err != nil {
			t.Fatalf("%v serial: %v", op, err)
		}
		if _, err := RunSet(op, ws, parallel); err != nil {
			t.Fatalf("%v parallel: %v", op, err)
		}
	}
	wantKeys := serial.Telemetry.Runs()
	gotKeys := parallel.Telemetry.Runs()
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("run keys differ:\nparallel %v\nserial   %v", gotKeys, wantKeys)
	}
	if len(wantKeys) == 0 {
		t.Fatal("no runs recorded")
	}
	for _, key := range wantKeys {
		want, _ := serial.Telemetry.Run(key)
		got, _ := parallel.Telemetry.Run(key)
		if !reflect.DeepEqual(got.Samples(), want.Samples()) {
			t.Errorf("%s: parallel counters differ from serial", key)
		}
	}
	if !reflect.DeepEqual(parallel.Telemetry.Total().Samples(), serial.Telemetry.Total().Samples()) {
		t.Error("aggregated totals differ between serial and parallel runs")
	}
}

// TestTraceCaptureRun checks that tracing one grid cell captures events
// from exactly that cell and that a traced System recycles through the
// pool without leaking events into later runs.
func TestTraceCaptureRun(t *testing.T) {
	ws := NonAllocWorkloads()
	target := ws[0].Name
	opts := DefaultOptions()
	opts.Parallelism = 2
	opts.Trace = &TraceCapture{Workload: target, System: core.KindAccel}
	if _, err := RunSet(Deserialize, ws, opts); err != nil {
		t.Fatal(err)
	}
	events := opts.Trace.Events()
	if len(events) == 0 {
		t.Fatalf("no events captured for %q", target)
	}
	units := map[string]bool{}
	for _, ev := range events {
		units[ev.Unit] = true
	}
	for _, u := range []string{"rocc", "deser"} {
		if !units[u] {
			t.Errorf("trace has no %s events (units: %v)", u, units)
		}
	}
	keys := opts.Trace.runs
	if len(keys) != 1 {
		t.Errorf("traced %d runs, want 1: %v", len(keys), keys)
	}

	// Determinism of the capture itself: rerunning the same traced cell
	// must reproduce the identical event stream.
	again := DefaultOptions()
	again.Parallelism = 2
	again.Trace = &TraceCapture{Workload: target, System: core.KindAccel}
	if _, err := RunSet(Deserialize, ws, again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Trace.Events(), events) {
		t.Error("traced rerun produced a different event stream")
	}
}

func TestTraceCaptureMatches(t *testing.T) {
	var nilCap *TraceCapture
	if nilCap.Matches("x", core.KindAccel) {
		t.Error("nil capture matched")
	}
	c := &TraceCapture{Workload: "x", System: core.KindAccel}
	if !c.Matches("x", core.KindAccel) {
		t.Error("exact match missed")
	}
	if c.Matches("x", core.KindBOOM) || c.Matches("y", core.KindAccel) {
		t.Error("mismatch matched")
	}
}

func TestWriteStatsFileFormats(t *testing.T) {
	sink := &TelemetrySink{}
	var r telemetry.Registry
	r.Register("deser", telemetry.CollectorFunc(func(emit func(string, float64)) { emit("cycles", 42) }))
	sink.Record("w", core.KindAccel, Deserialize, r.Snapshot())

	dir := t.TempDir()
	opts := DefaultOptions()
	m := NewManifest("test", opts)
	if m.GoVersion == "" || m.ConfigFingerprint == "" || m.Parallelism < 1 {
		t.Errorf("incomplete manifest: %+v", m)
	}

	jsonPath := filepath.Join(dir, "stats.json")
	if err := WriteStatsFile(jsonPath, m, sink); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotM, counters, err := telemetry.ReadStatsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if *gotM != *m {
		t.Errorf("manifest round trip: %+v != %+v", gotM, m)
	}
	if counters["deser/cycles"] != 42 {
		t.Errorf("counters = %v", counters)
	}

	promPath := filepath.Join(dir, "stats.prom")
	if err := WriteStatsFile(promPath, m, sink); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "protoacc_deser_cycles 42"; !strings.Contains(string(b), want) {
		t.Errorf("prom output missing %q:\n%s", want, b)
	}
}
