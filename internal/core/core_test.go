package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/pbtest"
	"protoacc/internal/pb/schema"
)

func testType() *schema.Message {
	sub := mustMessage("Sub",
		&schema.Field{Name: "id", Number: 1, Kind: schema.KindInt64},
		&schema.Field{Name: "tag", Number: 2, Kind: schema.KindString})
	return mustMessage("T",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "r", Number: 3, Kind: schema.KindInt64, Label: schema.LabelRepeated, Packed: true},
		&schema.Field{Name: "sub", Number: 4, Kind: schema.KindMessage, Message: sub},
	)
}

func populate(t *schema.Message) *dynamic.Message {
	m := dynamic.New(t)
	m.SetInt32(1, -5)
	m.SetString(2, "payload string")
	for i := 0; i < 8; i++ {
		m.AddScalarBits(3, uint64(i*7))
	}
	s := m.MutableMessage(4)
	s.SetInt64(1, 42)
	s.SetString(2, "nested")
	return m
}

func allKinds() []Kind { return []Kind{KindBOOM, KindXeon, KindAccel} }

// smallConfig shrinks the memory regions so tests don't spend their time
// zeroing gigabytes of simulated DRAM.
func smallConfig(k Kind) Config {
	cfg := DefaultConfig(k)
	cfg.StaticSize = 8 << 20
	cfg.HeapSize = 8 << 20
	cfg.ArenaSize = 8 << 20
	cfg.OutSize = 8 << 20
	return cfg
}

func TestRoundTripAllSystems(t *testing.T) {
	typ := testType()
	msg := populate(typ)
	wire, err := codec.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allKinds() {
		sys := New(smallConfig(k))
		if err := sys.LoadSchema(typ); err != nil {
			t.Fatal(err)
		}
		// Deserialize path.
		bufAddr, err := sys.WriteWire(wire)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := sys.Deserialize(typ, bufAddr, uint64(len(wire)))
		if err != nil {
			t.Fatalf("%v: deserialize: %v", k, err)
		}
		got, err := sys.ReadMessage(typ, dres.ObjAddr)
		if err != nil {
			t.Fatal(err)
		}
		if !msg.Equal(got) {
			t.Errorf("%v: deserialized message differs", k)
		}
		if dres.Cycles <= 0 || dres.Throughput() <= 0 {
			t.Errorf("%v: bad result %+v", k, dres)
		}

		// Serialize path.
		objAddr, err := sys.MaterializeInput(msg)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sys.Serialize(typ, objAddr)
		if err != nil {
			t.Fatalf("%v: serialize: %v", k, err)
		}
		out, err := sys.ReadWire(sres.WireAddr, sres.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, wire) {
			t.Errorf("%v: serialized bytes differ from reference", k)
		}
	}
}

func TestCrossSystemWireCompatibility(t *testing.T) {
	// Bytes produced by the accelerated system must deserialize on the
	// software systems and vice versa (wire compatibility, §1).
	typ := testType()
	msg := populate(typ)

	accel := New(smallConfig(KindAccel))
	if err := accel.LoadSchema(typ); err != nil {
		t.Fatal(err)
	}
	objAddr, err := accel.MaterializeInput(msg)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := accel.Serialize(typ, objAddr)
	if err != nil {
		t.Fatal(err)
	}
	accelBytes, err := accel.ReadWire(sres.WireAddr, sres.Bytes)
	if err != nil {
		t.Fatal(err)
	}

	boom := New(smallConfig(KindBOOM))
	if err := boom.LoadSchema(typ); err != nil {
		t.Fatal(err)
	}
	bufAddr, err := boom.WriteWire(accelBytes)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := boom.Deserialize(typ, bufAddr, uint64(len(accelBytes)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := boom.ReadMessage(typ, dres.ObjAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Equal(got) {
		t.Error("accelerator bytes did not round trip through software system")
	}
}

func TestAccelFasterThanCPUs(t *testing.T) {
	typ := testType()
	msg := populate(typ)
	wire, _ := codec.Marshal(msg)

	deserSeconds := func(k Kind) float64 {
		sys := New(smallConfig(k))
		if err := sys.LoadSchema(typ); err != nil {
			t.Fatal(err)
		}
		bufAddr, _ := sys.WriteWire(wire)
		// Warm caches with a few runs, then measure.
		var last Result
		for i := 0; i < 5; i++ {
			var err error
			last, err = sys.Deserialize(typ, bufAddr, uint64(len(wire)))
			if err != nil {
				t.Fatal(err)
			}
		}
		return last.Seconds
	}
	boom, xeon, accel := deserSeconds(KindBOOM), deserSeconds(KindXeon), deserSeconds(KindAccel)
	if accel >= boom || accel >= xeon {
		t.Errorf("accel (%g) should beat boom (%g) and xeon (%g)", accel, boom, xeon)
	}
	if xeon >= boom {
		t.Errorf("xeon (%g) should beat boom (%g)", xeon, boom)
	}
}

func TestResetWorkAllowsReuse(t *testing.T) {
	typ := testType()
	msg := populate(typ)
	wire, _ := codec.Marshal(msg)
	sys := New(smallConfig(KindAccel))
	if err := sys.LoadSchema(typ); err != nil {
		t.Fatal(err)
	}
	bufAddr, _ := sys.WriteWire(wire)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 50; i++ {
			if _, err := sys.Deserialize(typ, bufAddr, uint64(len(wire))); err != nil {
				t.Fatalf("batch %d iter %d: %v", batch, i, err)
			}
		}
		used := sys.Heap.Used()
		sys.ResetWork()
		if sys.Heap.Used() != 0 || used == 0 {
			t.Fatal("ResetWork did not rewind heap")
		}
	}
}

func TestRandomizedCrossSystemEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 25; trial++ {
		typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
		msg := pbtest.RandomPopulated(rng, typ, pbtest.DefaultMessageConfig())
		want, err := codec.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		var outputs [][]byte
		for _, k := range allKinds() {
			sys := New(smallConfig(k))
			if err := sys.LoadSchema(typ); err != nil {
				t.Fatal(err)
			}
			objAddr, err := sys.MaterializeInput(msg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Serialize(typ, objAddr)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, k, err)
			}
			b, err := sys.ReadWire(res.WireAddr, res.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			outputs = append(outputs, b)
		}
		for i, b := range outputs {
			if !bytes.Equal(b, want) {
				t.Fatalf("trial %d: system %v produced different bytes", trial, allKinds()[i])
			}
		}
	}
}

// On an accelerated System, every operation on a type whose ADT is not
// loaded fails with the not-loaded error, whether no schema or another
// one is loaded. A software System needs no ADT.
func TestUnloadedTypeError(t *testing.T) {
	typ := testType()
	for _, c := range []struct {
		kind  Kind
		other bool // another schema is loaded
	}{{KindAccel, false}, {KindAccel, true}, {KindBOOM, false}} {
		sys := New(smallConfig(c.kind))
		if c.other {
			other := mustMessage("Other", &schema.Field{Name: "x", Number: 1, Kind: schema.KindInt32})
			if err := sys.LoadSchema(other); err != nil {
				t.Fatal(err)
			}
		}
		obj, err := sys.MaterializeInput(populate(typ))
		if err != nil {
			t.Fatal(err)
		}
		ops := []struct {
			name string
			run  func() (Result, error)
		}{
			{"deserialize", func() (Result, error) { return sys.Deserialize(typ, 0x10000, 0) }},
			{"clear", func() (Result, error) { return sys.Clear(typ, obj) }},
			{"copy", func() (Result, error) { return sys.Copy(typ, obj) }},
			{"merge", func() (Result, error) { return sys.Merge(typ, obj, obj) }},
		}
		for _, op := range ops {
			_, err := op.run()
			switch {
			case c.kind != KindAccel:
				if err != nil {
					t.Errorf("%v: %s without a loaded schema: %v", c.kind, op.name, err)
				}
			case err == nil || !strings.Contains(err.Error(), "core: type T not loaded"):
				t.Errorf("%s (another schema loaded: %v): err = %v, want the not-loaded error", op.name, c.other, err)
			}
		}
	}
}

func TestThroughputMetric(t *testing.T) {
	r := Result{Bytes: 1000, Seconds: 1e-6}
	if got := r.Throughput(); got < 7.9 || got > 8.1 { // 8 Gbit/s
		t.Errorf("Throughput = %f", got)
	}
	if (Result{}).Throughput() != 0 {
		t.Error("zero result should have zero throughput")
	}
}

// mustMessage is the test-local stand-in for the removed
// schema.MustMessage: build a type from known-good literal fields,
// panicking on error. Library code uses schema.NewMessage and returns
// the error.
func mustMessage(name string, fields ...*schema.Field) *schema.Message {
	m, err := schema.NewMessage(name, fields...)
	if err != nil {
		panic(err)
	}
	return m
}
