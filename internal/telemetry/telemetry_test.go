package telemetry

import (
	"reflect"
	"sort"
	"testing"
)

type fakeUnit struct {
	hits, misses float64
}

func (f *fakeUnit) CollectTelemetry(emit func(name string, value float64)) {
	emit("hits", f.hits)
	emit("misses", f.misses)
}

func TestRegistrySnapshotOrderAndNames(t *testing.T) {
	var r Registry
	a := &fakeUnit{hits: 1, misses: 2}
	b := &fakeUnit{hits: 3}
	r.Register("l1", a)
	r.Register("tlb", b)
	s := r.Snapshot()
	want := []Sample{
		{Name: "l1/hits", Value: 1},
		{Name: "l1/misses", Value: 2},
		{Name: "tlb/hits", Value: 3},
		{Name: "tlb/misses", Value: 0},
	}
	if !reflect.DeepEqual(s.Samples(), want) {
		t.Errorf("snapshot = %+v, want %+v", s.Samples(), want)
	}
	if got := r.Groups(); !reflect.DeepEqual(got, []string{"l1", "tlb"}) {
		t.Errorf("groups = %v", got)
	}
	if v, ok := s.Get("l1/misses"); !ok || v != 2 {
		t.Errorf("Get(l1/misses) = %v, %v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get(nope) should miss")
	}
}

func TestSnapshotZero(t *testing.T) {
	var r Registry
	u := &fakeUnit{}
	r.Register("u", u)
	if !r.Snapshot().Zero() {
		t.Error("fresh unit snapshot should be zero")
	}
	u.hits = 1
	if r.Snapshot().Zero() {
		t.Error("non-zero counter not detected")
	}
}

func TestAggregateSortedDeterminism(t *testing.T) {
	mk := func(name string, v float64) Snapshot {
		return Snapshot{samples: []Sample{{Name: name, Value: v}}}
	}
	var a, b Aggregate
	a.Add(mk("x", 1))
	a.Add(mk("y", 2))
	a.Add(mk("x", 3))
	b.Add(mk("y", 2))
	b.Add(mk("x", 3))
	b.Add(mk("x", 1))
	if !reflect.DeepEqual(a.Snapshot().Samples(), b.Snapshot().Samples()) {
		t.Errorf("aggregation order leaked into result: %+v vs %+v",
			a.Snapshot().Samples(), b.Snapshot().Samples())
	}
	s := a.Snapshot()
	if v, _ := s.Get("x"); v != 4 {
		t.Errorf("x total = %v", v)
	}
}

// A Sum over registries of one shape must equal the by-name Aggregate of
// their snapshots, sample for sample, once both are sorted by name; and
// a Sum of one registry is that registry's snapshot.
func TestSumMatchesAggregate(t *testing.T) {
	var sum Sum
	var agg Aggregate
	for i := 0; i < 5; i++ {
		var r Registry
		r.Register("l1", &fakeUnit{hits: float64(i), misses: float64(3 * i)})
		r.Register("tlb", &fakeUnit{hits: float64(i * i)})
		r.Register("empty", CollectorFunc(func(func(string, float64)) {}))
		r.AddInto(&sum)
		agg.Add(r.Snapshot())
		if i == 0 && !reflect.DeepEqual(sum.Snapshot().Samples(), r.Snapshot().Samples()) {
			t.Errorf("sum of one registry = %+v, want its snapshot %+v", sum.Snapshot().Samples(), r.Snapshot().Samples())
		}
	}
	got := sum.Snapshot().Samples()
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	if want := agg.Snapshot().Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("sum = %+v, want aggregate %+v", got, want)
	}
}

// High-water marks are maxima: Sum and Aggregate keep the largest value
// of each across registries, and add every other counter.
func TestHighWaterCombinesByMax(t *testing.T) {
	for name, want := range map[string]bool{
		"deser/max_depth_seen":  true,
		"ser/max_depth_seen":    true,
		"rocc/queue_high_water": true,
		"queue_high_water":      true,
		"deser/cycles":          false,
		"serve/queue/depth":     false,
		"max_x/hits":            false,
	} {
		if got := highWater(name); got != want {
			t.Errorf("highWater(%q) = %v, want %v", name, got, want)
		}
	}
	unit := func(count, depth, queue float64) CollectorFunc {
		return func(emit func(string, float64)) {
			emit("count", count)
			emit("max_depth_seen", depth)
			emit("queue_high_water", queue)
		}
	}
	var sum Sum
	var agg Aggregate
	for _, v := range [][3]float64{{1, 4, 2}, {2, 9, 1}, {3, 5, 7}} {
		var r Registry
		r.Register("u", unit(v[0], v[1], v[2]))
		r.AddInto(&sum)
		agg.Add(r.Snapshot())
	}
	want := []Sample{{"u/count", 6}, {"u/max_depth_seen", 9}, {"u/queue_high_water", 7}}
	if got := sum.Snapshot().Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("sum = %+v, want %+v", got, want)
	}
	if got := agg.Snapshot().Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate = %+v, want %+v", got, want)
	}
}

// Adding a registry of another shape is a broken Collector contract, and
// AddInto says so rather than adding counters into the wrong slots.
func TestSumPanicsOnShapeChange(t *testing.T) {
	var one, two Registry
	one.Register("a", &fakeUnit{})
	two.Register("a", &fakeUnit{})
	two.Register("b", &fakeUnit{})
	for _, c := range []struct {
		name        string
		first, then *Registry
	}{{"more counters", &one, &two}, {"fewer counters", &two, &one}} {
		var s Sum
		c.first.AddInto(&s)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddInto did not panic", c.name)
				}
			}()
			c.then.AddInto(&s)
		}()
	}
}

func TestAttributionPartition(t *testing.T) {
	at := NewAttribution(100, 20, 5, 10)
	if at.FSM != 65 {
		t.Errorf("FSM = %v, want 65", at.FSM)
	}
	if sum := at.FSM + at.Supply + at.Spill + at.ADTMiss; sum != at.Total {
		t.Errorf("classes sum to %v, total %v", sum, at.Total)
	}
	// Overcommitted stalls clamp FSM at zero rather than going negative.
	if at := NewAttribution(10, 8, 8, 8); at.FSM != 0 {
		t.Errorf("clamped FSM = %v", at.FSM)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	tr.Emit(Event{Unit: "x"}) // must not panic
	tr.Disable()
	tr.Reset()
	if ev := tr.Events(); ev != nil {
		t.Errorf("nil tracer events = %v", ev)
	}
	if ev := tr.TakeEvents(); ev != nil {
		t.Errorf("nil tracer take = %v", ev)
	}
}

func TestTracerLifecycle(t *testing.T) {
	tr := &Tracer{}
	tr.Emit(Event{Name: "dropped"})
	if len(tr.Events()) != 0 {
		t.Error("disabled tracer recorded an event")
	}
	tr.Enable()
	tr.Emit(Event{Name: "a", Cycle: 1})
	tr.Emit(Event{Name: "b", Cycle: 2})
	if len(tr.Events()) != 2 {
		t.Fatalf("events = %d", len(tr.Events()))
	}
	got := tr.TakeEvents()
	if len(got) != 2 || got[0].Name != "a" {
		t.Errorf("take = %+v", got)
	}
	if len(tr.Events()) != 0 {
		t.Error("take did not empty the buffer")
	}
	tr.Emit(Event{Name: "c"})
	tr.Reset()
	if tr.Enabled() || len(tr.Events()) != 0 {
		t.Error("reset did not disable and empty")
	}
}
