package core

import (
	"reflect"
	"testing"

	"protoacc/internal/pb/codec"
)

// telemetrySetup builds a loaded system with one wire buffer and one
// materialized object ready for timed ops.
func telemetrySetup(t *testing.T, k Kind) (*System, uint64, uint64, uint64) {
	t.Helper()
	typ := testType()
	msg := populate(typ)
	wire, err := codec.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(smallConfig(k))
	if err := sys.LoadSchema(typ); err != nil {
		t.Fatal(err)
	}
	bufAddr, err := sys.WriteWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	objAddr, err := sys.MaterializeInput(msg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bufAddr, uint64(len(wire)), objAddr
}

// TestTelemetryCoverage checks the acceptance criterion that one snapshot
// of the accelerated system covers every unit and all four levels of the
// memory hierarchy (L1, L2, LLC, DRAM) plus the TLBs.
func TestTelemetryCoverage(t *testing.T) {
	sys, bufAddr, bufLen, objAddr := telemetrySetup(t, KindAccel)
	typ := sys.schemaRoots[0]
	if _, err := sys.Deserialize(typ, bufAddr, bufLen); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serialize(typ, objAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Copy(typ, objAddr); err != nil {
		t.Fatal(err)
	}

	groups := sys.Telemetry().Registry.Groups()
	want := []string{"mem", "cpu", "rocc", "deser", "ser", "mops", "faults", "resilience"}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}

	snap := sys.Telemetry().Registry.Snapshot()
	mustHave := []string{
		// all four memory levels, per-port L1/TLB for both ports
		"mem/l1/cpu/hits", "mem/l1/accel/hits",
		"mem/tlb/cpu/hits", "mem/tlb/accel/hits",
		"mem/l2/hits", "mem/l2/misses",
		"mem/llc/hits", "mem/llc/misses",
		"mem/dram/accesses",
		// one representative counter per unit
		"cpu/cycles", "rocc/commands", "deser/cycles", "ser/cycles", "mops/cycles",
	}
	for _, name := range mustHave {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
	// The ops above must have left visible footprints in the right units.
	for _, name := range []string{
		"rocc/commands", "deser/cycles", "deser/bytes_consumed",
		"ser/cycles", "ser/bytes_produced", "mops/copies", "mem/l1/accel/hits",
	} {
		if v, _ := snap.Get(name); v <= 0 {
			t.Errorf("%s = %v after exercising all units, want > 0", name, v)
		}
	}
}

// A batch Result carries a cycle attribution only while attribution is
// enabled; its total is the batch's cycles and its classes partition the
// total. The batch's unit counters move in the registry.
func TestBatchTelemetry(t *testing.T) {
	for _, k := range []Kind{KindBOOM, KindAccel} {
		sys, bufAddr, bufLen, _ := telemetrySetup(t, k)
		typ := sys.schemaRoots[0]
		refs := []WireRef{{bufAddr, bufLen}, {bufAddr, bufLen}, {bufAddr, bufLen}}
		off, _, err := sys.DeserializeBatch(typ, refs)
		if err != nil {
			t.Fatal(err)
		}
		if off.Telemetry != nil {
			t.Errorf("%v: batch result carries telemetry with attribution off", k)
		}

		sys.Telemetry().EnableAttribution(true)
		counter, want := "cpu/deserializes", 3.0
		if k == KindAccel {
			// Two commands per item plus the completion barrier.
			counter, want = "rocc/commands", 7
		}
		before, _ := sys.Telemetry().Registry.Snapshot().Get(counter)
		total, objs, err := sys.DeserializeBatch(typ, refs)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != 3 {
			t.Fatalf("%v: %d objects", k, len(objs))
		}
		if total.Telemetry == nil {
			t.Fatalf("%v: batch result has no telemetry", k)
		}
		at := total.Telemetry.Attribution
		if at.Total != total.Cycles {
			t.Errorf("%v: batch attribution total %v != cycles %v", k, at.Total, total.Cycles)
		}
		if sum := at.FSM + at.Supply + at.Spill + at.ADTMiss; sum != at.Total {
			t.Errorf("%v: attribution classes sum to %v, total %v", k, sum, at.Total)
		}
		after, _ := sys.Telemetry().Registry.Snapshot().Get(counter)
		if after-before != want {
			t.Errorf("%v: %s moved by %v over the batch, want %v", k, counter, after-before, want)
		}
	}
}

func TestResetAllZeroesTelemetry(t *testing.T) {
	sys, bufAddr, bufLen, _ := telemetrySetup(t, KindAccel)
	typ := sys.schemaRoots[0]
	hub := sys.Telemetry()
	hub.Tracer.Enable()
	hub.EnableAttribution(true)
	if _, err := sys.Deserialize(typ, bufAddr, bufLen); err != nil {
		t.Fatal(err)
	}
	if hub.Registry.Snapshot().Zero() {
		t.Fatal("expected non-zero counters after an op")
	}
	if len(hub.Tracer.Events()) == 0 {
		t.Fatal("expected trace events after a traced op")
	}

	sys.ResetAll()
	if !hub.Registry.Snapshot().Zero() {
		for _, sm := range hub.Registry.Snapshot().Samples() {
			if sm.Value != 0 {
				t.Errorf("counter %s = %v after ResetAll", sm.Name, sm.Value)
			}
		}
	}
	if hub.Tracer.Enabled() || len(hub.Tracer.Events()) != 0 {
		t.Error("ResetAll left the tracer enabled or non-empty")
	}
	if hub.AttributionEnabled() {
		t.Error("ResetAll left attribution enabled")
	}
	if len(hub.Registry.Groups()) != 8 {
		t.Errorf("ResetAll dropped registrations: groups = %v", hub.Registry.Groups())
	}
}

// TestTracedSystemPoolsCleanly covers the pooling fix: tracing is System
// state enabled after Pool.Get, so traced Systems recycle through the pool
// and come back with telemetry fully cleared.
func TestTracedSystemPoolsCleanly(t *testing.T) {
	pool := NewPool(4)
	cfg := smallConfig(KindAccel)
	sys := pool.Get(cfg)
	sys.Telemetry().Tracer.Enable()

	typ := testType()
	msg := populate(typ)
	wire, err := codec.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSchema(typ); err != nil {
		t.Fatal(err)
	}
	bufAddr, err := sys.WriteWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deserialize(typ, bufAddr, uint64(len(wire))); err != nil {
		t.Fatal(err)
	}
	if got := sys.Telemetry().Tracer.TakeEvents(); len(got) == 0 {
		t.Fatal("traced run produced no events")
	}
	sys.Telemetry().Tracer.Reset()
	pool.Put(sys)

	recycled := pool.Get(cfg)
	if recycled != sys {
		t.Fatal("expected the traced System to be recycled")
	}
	if recycled.Telemetry().Tracer.Enabled() {
		t.Error("recycled System came back with tracing on")
	}
	if !recycled.Telemetry().Registry.Snapshot().Zero() {
		t.Error("recycled System came back with non-zero counters")
	}
}
