package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Manifest records how a stats artifact was produced, so checked-in
// results are reproducible: the exact command, the build's VCS revision,
// a fingerprint of the simulated configurations, and the harness
// parallelism (which, per the determinism contract, must not change any
// counter value — it is recorded so that claim is checkable).
type Manifest struct {
	Command           string `json:"command,omitempty"`
	GitRevision       string `json:"git_revision,omitempty"`
	GitDirty          bool   `json:"git_dirty,omitempty"`
	GoVersion         string `json:"go_version,omitempty"`
	ConfigFingerprint string `json:"config_fingerprint,omitempty"`
	Parallelism       int    `json:"parallelism"`
}

// statsDoc is the JSON snapshot schema.
type statsDoc struct {
	Schema   string             `json:"schema"`
	Manifest *Manifest          `json:"manifest,omitempty"`
	Counters map[string]float64 `json:"counters"`
}

// StatsSchema identifies the JSON snapshot format.
const StatsSchema = "protoacc-telemetry/v1"

// WriteStatsJSON writes a counter snapshot (plus an optional manifest) as
// an indented JSON document. Counter keys are emitted in sorted order
// (encoding/json sorts map keys), so identical snapshots produce
// byte-identical files.
func WriteStatsJSON(w io.Writer, m *Manifest, s Snapshot) error {
	doc := statsDoc{Schema: StatsSchema, Manifest: m, Counters: make(map[string]float64, s.Len())}
	for _, sm := range s.Samples() {
		doc.Counters[sm.Name] = sm.Value
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// NewManifest builds the manifest of an artifact the running binary
// produces: command is its command line, and the VCS revision and Go
// version come from the build.
func NewManifest(command, configFingerprint string, parallelism int) *Manifest {
	m := &Manifest{
		Command:           command,
		GoVersion:         runtime.Version(),
		ConfigFingerprint: configFingerprint,
		Parallelism:       parallelism,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}

// WriteStatsFile writes s to path: Prometheus text exposition for a
// ".prom" suffix, otherwise the JSON snapshot schema with m embedded.
func WriteStatsFile(path string, m *Manifest, s Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = WritePrometheus(f, s)
	} else {
		err = WriteStatsJSON(f, m, s)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadStatsJSON parses a document written by WriteStatsJSON back into a
// manifest and a by-name counter map.
func ReadStatsJSON(r io.Reader) (*Manifest, map[string]float64, error) {
	var doc statsDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, nil, err
	}
	if doc.Schema != StatsSchema {
		return nil, nil, fmt.Errorf("telemetry: unknown stats schema %q", doc.Schema)
	}
	return doc.Manifest, doc.Counters, nil
}

// promName mangles a counter path into a Prometheus-legal metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("protoacc_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitTile recognizes a tile-indexed path segment ("serve/tile3/x" →
// base "serve/x", tile "3"). Tile-sharded counters export as one metric
// family with a tile label instead of one family per tile.
func splitTile(name string) (base, tile string) {
	for i := 0; i < len(name); {
		j := strings.IndexByte(name[i:], '/')
		var seg string
		if j < 0 {
			seg = name[i:]
			j = len(name)
		} else {
			seg = name[i : i+j]
			j = i + j
		}
		if rest, ok := strings.CutPrefix(seg, "tile"); ok && rest != "" {
			digits := true
			for _, r := range rest {
				if r < '0' || r > '9' {
					digits = false
					break
				}
			}
			if digits {
				if j == len(name) { // trailing "tile<i>" segment: not a shard prefix
					return name, ""
				}
				return name[:i] + name[j+1:], rest
			}
		}
		if j == len(name) {
			break
		}
		i = j + 1
	}
	return name, ""
}

// promSample is one exposition line of a family: a rendered label set
// (possibly empty) and a value.
type promSample struct {
	path   string // original counter path, for collision disambiguation
	labels []string
	value  float64
	hist   *HistogramSnapshot // non-nil for histogram families
}

// promFamily is one metric family: a single # TYPE line followed by its
// samples. Distinct counter paths that mangle to the same Prometheus
// name land in the same family (never a duplicate TYPE line); samples
// whose label sets would still collide gain a path label carrying the
// original counter path.
type promFamily struct {
	name    string
	kind    string
	samples []promSample
}

// buildFamilies folds samples into families in first-appearance order.
func buildFamilies(fams []*promFamily, byName map[string]*promFamily, kind string, samples []Sample, hists []NamedHistogram) []*promFamily {
	add := func(path, kind string, value float64, hist *HistogramSnapshot) {
		base, tile := splitTile(path)
		n := promName(base)
		f := byName[n]
		if f == nil {
			f = &promFamily{name: n, kind: kind}
			byName[n] = f
			fams = append(fams, f)
		}
		var labels []string
		if tile != "" {
			labels = append(labels, `tile="`+tile+`"`)
		}
		f.samples = append(f.samples, promSample{path: path, labels: labels, value: value, hist: hist})
	}
	for _, sm := range samples {
		add(sm.Name, kind, sm.Value, nil)
	}
	for _, nh := range hists {
		hs := nh.Hist.Snapshot()
		add(nh.Name, "histogram", 0, &hs)
	}
	return fams
}

// disambiguate appends a path label to samples of a family whose label
// sets collide (distinct original paths mangled to one name), so every
// exposition line stays unique.
func (f *promFamily) disambiguate() {
	seen := make(map[string][]int)
	for i, sm := range f.samples {
		key := strings.Join(sm.labels, ",")
		seen[key] = append(seen[key], i)
	}
	for _, idxs := range seen {
		if len(idxs) < 2 {
			continue
		}
		distinct := false
		for _, i := range idxs[1:] {
			if f.samples[i].path != f.samples[idxs[0]].path {
				distinct = true
			}
		}
		if !distinct {
			continue
		}
		for _, i := range idxs {
			f.samples[i].labels = append(f.samples[i].labels, `path="`+f.samples[i].path+`"`)
		}
	}
}

func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + strings.Join(labels, ",") + "}"
}

// WritePrometheus writes the counter snapshot in Prometheus text
// exposition format. Equivalent to WritePrometheusMetrics with no gauges
// or histograms.
func WritePrometheus(w io.Writer, s Snapshot) error {
	return WritePrometheusMetrics(w, s, nil, nil)
}

// WritePrometheusMetrics writes counters, gauges, and histograms as one
// Prometheus text exposition: families in first-appearance order, one
// # TYPE line per family, tile-sharded paths folded into a tile label,
// and residual name collisions disambiguated with a path label.
// Histograms expose cumulative _bucket{le=...} series plus _sum/_count.
func WritePrometheusMetrics(w io.Writer, counters Snapshot, gauges []Sample, hists []NamedHistogram) error {
	byName := make(map[string]*promFamily)
	fams := buildFamilies(nil, byName, "counter", counters.Samples(), nil)
	fams = buildFamilies(fams, byName, "gauge", gauges, nil)
	fams = buildFamilies(fams, byName, "", nil, hists)
	for _, f := range fams {
		f.disambiguate()
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, sm := range f.samples {
			if sm.hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %v\n", f.name, renderLabels(sm.labels), sm.value); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for _, b := range sm.hist.Buckets {
				cum += b.Count
				le := append(sm.labels[:len(sm.labels):len(sm.labels)], fmt.Sprintf(`le="%d"`, b.Upper))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(le), cum); err != nil {
					return err
				}
			}
			inf := append(sm.labels[:len(sm.labels):len(sm.labels)], `le="+Inf"`)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(inf), sm.hist.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				f.name, renderLabels(sm.labels), sm.hist.Sum,
				f.name, renderLabels(sm.labels), sm.hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceEvent is one Chrome trace-event record. Field order is the JSON
// emission order (encoding/json follows declaration order), keeping
// exports byte-stable.
type traceEvent struct {
	Name  string     `json:"name"`
	Cat   string     `json:"cat,omitempty"`
	Phase string     `json:"ph"`
	Scope string     `json:"s,omitempty"`
	TS    float64    `json:"ts"`
	Dur   *float64   `json:"dur,omitempty"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Args  *traceArgs `json:"args,omitempty"`
}

type traceArgs struct {
	Name  string  `json:"name,omitempty"`
	Depth *int    `json:"depth,omitempty"`
	Field *int32  `json:"field,omitempty"`
	Pos   *uint64 `json:"pos,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// unitTIDs pins the well-known units to stable thread ids so traces from
// different runs line up in the viewer; unknown units get ids after them
// in first-seen order.
var unitTIDs = map[string]int{"rocc": 1, "deser": 2, "ser": 3, "mops": 4, "cpu": 5}

// WritePerfetto writes events as Chrome trace-event JSON (the format
// Perfetto's trace viewer and chrome://tracing load). Each unit becomes
// one named thread; instant events use phase "i" and spans phase "X".
// Timestamps map one simulated cycle to one microsecond of trace time, so
// the viewer's time axis reads directly in cycles.
func WritePerfetto(w io.Writer, events []Event) error {
	doc := traceDoc{DisplayTimeUnit: "ns", TraceEvents: []traceEvent{
		{Name: "process_name", Phase: "M", PID: 1, Args: &traceArgs{Name: "protoacc-sim"}},
	}}
	nextTID := len(unitTIDs) + 1
	tids := make(map[string]int)
	tidFor := func(unit string) int {
		if tid, ok := tids[unit]; ok {
			return tid
		}
		tid, ok := unitTIDs[unit]
		if !ok {
			tid = nextTID
			nextTID++
		}
		tids[unit] = tid
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid, Args: &traceArgs{Name: unit},
		})
		return tid
	}
	for _, ev := range events {
		te := traceEvent{
			Name: ev.Name, Cat: ev.Unit, Phase: "i", Scope: "t",
			TS: ev.Cycle, PID: 1, TID: tidFor(ev.Unit),
		}
		if ev.Dur > 0 {
			dur := ev.Dur
			te.Phase, te.Scope, te.Dur = "X", "", &dur
		}
		args := &traceArgs{Note: ev.Note}
		if ev.Depth != 0 {
			d := ev.Depth
			args.Depth = &d
		}
		if ev.Field != 0 {
			f := ev.Field
			args.Field = &f
		}
		if ev.Pos != 0 {
			p := ev.Pos
			args.Pos = &p
		}
		if args.Depth != nil || args.Field != nil || args.Pos != nil || args.Note != "" {
			te.Args = args
		}
		doc.TraceEvents = append(doc.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
