package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"sync"

	"protoacc/internal/core"
	"protoacc/internal/telemetry"
)

// runKey names one run of the (workload, system, op) grid. Sinks key
// everything they record by it so aggregation can proceed in sorted key
// order — the float summation order is then independent of worker
// scheduling, keeping aggregated counters bitwise-identical between
// serial and parallel harness executions.
func runKey(workload string, k core.Kind, op Op) string {
	return workload + "/" + k.String() + "/" + op.String()
}

// TelemetrySink collects one counter snapshot per run. Safe for
// concurrent use by the harness worker pool.
type TelemetrySink struct {
	mu   sync.Mutex
	runs map[string]telemetry.Snapshot
}

// Record stores the snapshot for one run, replacing any earlier snapshot
// with the same key (re-runs of a grid cell observe identical counters,
// so replacement is idempotent).
func (t *TelemetrySink) Record(workload string, k core.Kind, op Op, s telemetry.Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs == nil {
		t.runs = make(map[string]telemetry.Snapshot)
	}
	t.runs[runKey(workload, k, op)] = s
}

// Runs returns the recorded run keys, sorted.
func (t *TelemetrySink) Runs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.runs))
	for k := range t.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Run returns one run's snapshot.
func (t *TelemetrySink) Run(key string) (telemetry.Snapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.runs[key]
	return s, ok
}

// Total aggregates every recorded run, summing in sorted key order.
func (t *TelemetrySink) Total() telemetry.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.runs))
	for k := range t.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var agg telemetry.Aggregate
	for _, k := range keys {
		agg.Add(t.runs[k])
	}
	return agg.Snapshot()
}

// TraceCapture collects trace events from the runs matching a workload
// filter. System selects which simulated machine to trace (the
// accelerator is the interesting one). Safe for concurrent use.
type TraceCapture struct {
	Workload string    // workload name to trace ("" matches none)
	System   core.Kind // machine to trace (default KindBOOM=0; set explicitly)

	mu   sync.Mutex
	runs map[string][]telemetry.Event
}

// Matches reports whether a run should be traced.
func (c *TraceCapture) Matches(workload string, k core.Kind) bool {
	return c != nil && c.Workload == workload && c.System == k
}

// Record stores one traced run's events.
func (c *TraceCapture) Record(workload string, k core.Kind, op Op, events []telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs == nil {
		c.runs = make(map[string][]telemetry.Event)
	}
	c.runs[runKey(workload, k, op)] = events
}

// Events returns every captured event, runs concatenated in sorted key
// order (deterministic under parallel execution).
func (c *TraceCapture) Events() []telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.runs))
	for k := range c.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []telemetry.Event
	for _, k := range keys {
		out = append(out, c.runs[k]...)
	}
	return out
}

// ConfigFingerprint hashes the three system configurations an Options
// produces (plus the arena switch), identifying the simulated-hardware
// parameter set a stats artifact was measured under.
func ConfigFingerprint(opts Options) string {
	h := sha256.New()
	for _, k := range systems {
		fmt.Fprintf(h, "%+v\n", opts.Config(k))
	}
	fmt.Fprintf(h, "arenas=%v\n", opts.SoftwareArenas)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// WriteStatsFile writes the sink's aggregated counters to path: a
// ".prom" suffix selects Prometheus text exposition, anything else the
// JSON snapshot schema (which embeds the manifest).
func WriteStatsFile(path string, m *telemetry.Manifest, sink *TelemetrySink) error {
	return telemetry.WriteStatsFile(path, m, sink.Total())
}

// WriteTraceFile writes the captured events to path as Chrome
// trace-event / Perfetto JSON.
func WriteTraceFile(path string, capture *TraceCapture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.WritePerfetto(f, capture.Events())
}

// NewManifest builds the provenance record embedded in -stats-out
// artifacts: command line, VCS revision from build info, Go version,
// configuration fingerprint, and harness parallelism.
func NewManifest(command string, opts Options) *telemetry.Manifest {
	return telemetry.NewManifest(command, ConfigFingerprint(opts), opts.parallelism())
}
