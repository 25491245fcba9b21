// Package telemetry is the unified observability layer of the simulator:
// a registry of named, hierarchically-grouped counters that every unit
// (deserializer, serializer, message-operations, CPU model, RoCC router,
// and the cache/TLB/DRAM hierarchy) registers into, a cycle-timestamped
// structured trace stream, and exporters (JSON snapshot, Prometheus-style
// text, Chrome trace-event / Perfetto JSON).
//
// Design contract (the "overhead contract"):
//
//   - Counters live inside the units that own them (their existing Stats
//     structs); the registry holds only Collector callbacks enumerated on
//     demand by Snapshot or AddInto. Incrementing a counter is a plain
//     field add and collection costs nothing until somebody asks, so the
//     hot simulation paths pay zero allocations and zero extra work when
//     no snapshot is taken.
//   - Tracing is opt-in per System. A disabled (or nil) Tracer makes every
//     emit site a single predictable branch; callers must check Enabled()
//     before building events whose construction itself would allocate
//     (e.g. formatted notes). The zero-allocation property is enforced by
//     a guard test run from `make vet`.
//   - Everything is deterministic: collectors are enumerated in
//     registration order, snapshots of the same System are identical
//     between serial and parallel harness runs, and aggregation across
//     runs sums in sorted key order.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Collector is implemented by any unit exposing counters. The unit calls
// emit once per counter with a name relative to its registration prefix
// ("stack_spills", "l1/cpu/hits", ...). Implementations must emit the
// same names in the same order on every call — the determinism contracts
// and Sum's by-position adding rely on a stable shape.
type Collector interface {
	CollectTelemetry(emit func(name string, value float64))
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit func(name string, value float64))

// CollectTelemetry implements Collector.
func (f CollectorFunc) CollectTelemetry(emit func(name string, value float64)) { f(emit) }

// Sample is one named counter value.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time enumeration of every registered counter,
// in registration order.
type Snapshot struct {
	samples []Sample
}

// Len returns the number of samples.
func (s Snapshot) Len() int { return len(s.samples) }

// Samples returns the underlying sample slice (callers must not modify).
func (s Snapshot) Samples() []Sample { return s.samples }

// Get returns the value of the named counter, or (0, false).
func (s Snapshot) Get(name string) (float64, bool) {
	for _, sm := range s.samples {
		if sm.Name == name {
			return sm.Value, true
		}
	}
	return 0, false
}

// Zero reports whether every counter in the snapshot is zero.
func (s Snapshot) Zero() bool {
	for _, sm := range s.samples {
		if sm.Value != 0 {
			return false
		}
	}
	return true
}

// group is one registered collector with its name prefix.
type group struct {
	prefix string
	c      Collector
}

// Registry is an ordered set of named counter groups, plus first-class
// histogram and gauge registrations. The zero value is ready to use.
// Registration happens at System construction; Snapshot enumerates every
// group's counters on demand.
//
// Counters and the other two kinds deliberately live on separate
// enumeration paths: Snapshot stays counters-only, because its output
// feeds the bitwise determinism contracts (serial-vs-parallel,
// 1-tile-vs-N-tile), while histograms and gauges typically carry
// wall-clock measurements that legitimately differ run to run. The
// live-scrape exporters (WritePrometheusMetrics) consume all three.
type Registry struct {
	groups []group
	hists  []NamedHistogram
	gauges []namedGauge
}

// NamedHistogram pairs a registered histogram with its counter-style
// path name.
type NamedHistogram struct {
	Name string
	Hist *Histogram
}

type namedGauge struct {
	name string
	fn   func() float64
}

// Register adds a collector under the given prefix ("deser", "mem", ...).
// Counter names become "<prefix>/<name>".
func (r *Registry) Register(prefix string, c Collector) {
	r.groups = append(r.groups, group{prefix: prefix, c: c})
}

// RegisterHistogram adds a histogram under a full path name
// ("serve/tile0/stage/execute_ns", ...). Several shards may register
// under distinct names and be merged by the consumer; a name may also be
// registered once per shard and folded by the Prometheus exporter's
// label rules.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.hists = append(r.hists, NamedHistogram{Name: name, Hist: h})
}

// RegisterGauge adds a gauge: a callback sampled at scrape time, so the
// instrumented code pays nothing between scrapes. The callback must be
// safe to invoke from a scraper goroutine.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.gauges = append(r.gauges, namedGauge{name: name, fn: fn})
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []NamedHistogram { return r.hists }

// GaugeValues samples every registered gauge now, in registration order.
func (r *Registry) GaugeValues() []Sample {
	out := make([]Sample, len(r.gauges))
	for i, g := range r.gauges {
		out[i] = Sample{Name: g.name, Value: g.fn()}
	}
	return out
}

// Groups returns the registered prefixes in registration order.
func (r *Registry) Groups() []string {
	out := make([]string, len(r.groups))
	for i, g := range r.groups {
		out[i] = g.prefix
	}
	return out
}

// Snapshot enumerates every registered counter: a Sum with one add.
func (r *Registry) Snapshot() Snapshot {
	var s Sum
	r.AddInto(&s)
	return s.Snapshot()
}

// AddInto adds every registered counter into s, by position (see Sum).
// It builds no strings, and once s holds the registry's shape it
// allocates nothing.
func (r *Registry) AddInto(s *Sum) {
	if s.emit == nil {
		s.emit = s.add
	}
	s.recording = s.slots == nil
	s.pos = 0
	for i := range r.groups {
		s.prefix = r.groups[i].prefix
		r.groups[i].c.CollectTelemetry(s.emit)
	}
	if !s.recording && s.pos != len(s.slots) {
		panic(fmt.Sprintf("telemetry: Sum holds %d counters, registry emitted %d", len(s.slots), s.pos))
	}
}

// Sum adds registries of one shape counter by counter, by position. The
// first AddInto that finds counters records each one's "<prefix>/<name>";
// later ones only add each value into its slot (a high-water mark keeps
// the larger, see highWater), so summing a registry looks up no name and
// builds no string.
//
// Every registry added must have the shape the first one fixed: the same
// groups emitting the same counters in the same order. The Collector
// contract gives one System that shape on every call, and the Systems of
// one core.Kind share it whatever their other config. AddInto panics when
// the number of counters differs. The zero value is ready to use. A Sum
// is not safe for concurrent use and must not be copied after its first
// AddInto.
type Sum struct {
	slots     []sumSlot
	emit      func(name string, value float64) // s.add, bound once
	recording bool                             // the add in progress fixes the shape
	prefix    string                           // group of the counters being emitted
	pos       int                              // next slot of the add in progress
}

// sumSlot is one counter of a Sum.
type sumSlot struct {
	name    string // "<prefix>/<name>"
	keepMax bool   // a high-water mark (see highWater)
	value   float64
}

func (s *Sum) add(name string, value float64) {
	if s.recording {
		name = s.prefix + "/" + name
		s.slots = append(s.slots, sumSlot{name: name, keepMax: highWater(name), value: value})
		return
	}
	if s.pos < len(s.slots) {
		sl := &s.slots[s.pos]
		sl.value = combine(sl.keepMax, sl.value, value)
	}
	s.pos++
}

// Snapshot returns the summed counters in registration order.
func (s *Sum) Snapshot() Snapshot {
	out := Snapshot{samples: make([]Sample, len(s.slots))}
	for i, sl := range s.slots {
		out.samples[i] = Sample{Name: sl.name, Value: sl.value}
	}
	return out
}

// highWater reports whether the named counter is a high-water mark, a
// maximum rather than a count: its last path element starts with "max_"
// or ends in "_high_water" (deser/max_depth_seen, ser/max_depth_seen,
// rocc/queue_high_water). Sum and Aggregate combine a high-water mark
// across Systems, batches or runs by keeping the larger value, and add
// every other counter.
func highWater(name string) bool {
	leaf := name[strings.LastIndexByte(name, '/')+1:]
	return strings.HasPrefix(leaf, "max_") || strings.HasSuffix(leaf, "_high_water")
}

// combine folds v into acc: the larger of the two for a high-water mark,
// their sum for any other counter.
func combine(keepMax bool, acc, v float64) float64 {
	if !keepMax {
		return acc + v
	}
	if v > acc {
		return v
	}
	return acc
}

// Aggregate accumulates snapshots from many runs into one by-name total,
// combining each counter as highWater says. Callers must Add in a
// deterministic order (the harness sorts runs by key first) so float
// summation order — and therefore the result — is identical between
// serial and parallel executions.
type Aggregate struct {
	values map[string]float64
	order  []string // first-seen order, for stable iteration before sort
}

// Add folds one snapshot into the aggregate.
func (a *Aggregate) Add(s Snapshot) {
	if a.values == nil {
		a.values = make(map[string]float64)
	}
	for _, sm := range s.samples {
		acc, ok := a.values[sm.Name]
		if !ok {
			a.order = append(a.order, sm.Name)
			a.values[sm.Name] = sm.Value
			continue
		}
		a.values[sm.Name] = combine(highWater(sm.Name), acc, sm.Value)
	}
}

// Snapshot returns the aggregated counters sorted by name.
func (a *Aggregate) Snapshot() Snapshot {
	names := make([]string, len(a.order))
	copy(names, a.order)
	sort.Strings(names)
	out := Snapshot{samples: make([]Sample, len(names))}
	for i, n := range names {
		out.samples[i] = Sample{Name: n, Value: a.values[n]}
	}
	return out
}

// Attribution breaks an operation's cycles into the stall classes the
// paper's evaluation reasons about: pure FSM/compute work, supply-bound
// cycles (the memloader cannot feed the FSM faster), metadata-stack spill
// penalties, and blocking ADT-load stalls (the model's "ADT cache miss"
// analogue). Total is the operation's cycle count; the four classes
// partition it (FSM is the remainder).
type Attribution struct {
	Total   float64 `json:"total"`
	FSM     float64 `json:"fsm"`
	Supply  float64 `json:"supply"`
	Spill   float64 `json:"spill"`
	ADTMiss float64 `json:"adt_miss"`
}

// NewAttribution builds an Attribution from a total and the three stall
// classes, computing FSM as the (clamped) remainder.
func NewAttribution(total, supply, spill, adtMiss float64) Attribution {
	fsm := total - supply - spill - adtMiss
	if fsm < 0 {
		fsm = 0
	}
	return Attribution{Total: total, FSM: fsm, Supply: supply, Spill: spill, ADTMiss: adtMiss}
}

// Add adds o to a, class by class.
func (a *Attribution) Add(o Attribution) {
	a.Total += o.Total
	a.FSM += o.FSM
	a.Supply += o.Supply
	a.Spill += o.Spill
	a.ADTMiss += o.ADTMiss
}

// OpTelemetry is the report a System attaches to a batch Result when
// attribution is enabled: the batch's cycle attribution.
type OpTelemetry struct {
	Attribution Attribution
}

// Hub bundles the per-System telemetry state: the counter registry and
// the trace buffer, plus the attribution switch. core.System owns exactly
// one Hub; pooled Systems reset it via Reset.
type Hub struct {
	Registry Registry
	Tracer   Tracer

	attribution bool
}

// EnableAttribution toggles attribution attachment for the batch
// operations: their Results carry a cycle Attribution, computed from unit
// stat deltas (a handful of field reads). The serving tiles turn it on for
// every batch. Off by default.
func (h *Hub) EnableAttribution(on bool) { h.attribution = on }

// AttributionEnabled reports whether batch Results carry a cycle
// attribution.
func (h *Hub) AttributionEnabled() bool { return h != nil && h.attribution }

// Reset returns the Hub to its post-construction state: the trace buffer
// is emptied and disabled and attribution is switched off. Counter
// registrations persist — the counters themselves live in the units,
// which the owning System resets separately (System.ResetAll zeroes every
// unit's accumulators, so a snapshot taken after ResetAll is all-zero).
func (h *Hub) Reset() {
	h.Tracer.Reset()
	h.attribution = false
}
