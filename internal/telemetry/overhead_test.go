package telemetry

import "testing"

// The overhead contract (package doc): with tracing off, the telemetry
// layer adds zero allocations to the simulation hot paths. These guards are run by `make vet`; a regression here means an
// emit site started paying even when observability is disabled.

func TestDisabledTracerEmitAllocsNothing(t *testing.T) {
	tr := &Tracer{}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Unit: "deser", Name: "parseKey", Cycle: 1, Depth: 2, Field: 3, Pos: 4})
	}); n != 0 {
		t.Errorf("disabled Emit allocates %v/op, want 0", n)
	}
}

func TestNilTracerEmitAllocsNothing(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Unit: "ser", Name: "field"})
	}); n != 0 {
		t.Errorf("nil Emit allocates %v/op, want 0", n)
	}
}

// Enabled steady-state emission must not allocate per event once the
// buffer has grown (append reuses capacity), and repeated SnapshotInto
// reuses sample storage. These are amortized paths, checked loosely.
func TestEnabledTracerAmortizedAppend(t *testing.T) {
	tr := &Tracer{}
	tr.Enable()
	for i := 0; i < 4096; i++ {
		tr.Emit(Event{Name: "warm"})
	}
	tr.events = tr.events[:0]
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Name: "steady"})
		tr.events = tr.events[:0]
	}); n != 0 {
		t.Errorf("steady-state Emit allocates %v/op, want 0", n)
	}
}
