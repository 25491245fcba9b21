package rocc

import (
	"testing"

	"protoacc/internal/accel/adt"
	"protoacc/internal/accel/deser"
	"protoacc/internal/accel/layout"
	"protoacc/internal/accel/mops"
	"protoacc/internal/accel/ser"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
)

func setup(t *testing.T) (*Accelerator, *adt.Set, *layout.Materializer, *mem.Memory, *schema.Message) {
	t.Helper()
	typ := mustMessage("M",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString})
	m := mem.New()
	adtAlloc := mem.NewAllocator(m.Map("adt", 1<<20))
	heap := mem.NewAllocator(m.Map("heap", 1<<20))
	arena := mem.NewAllocator(m.Map("arena", 1<<20))
	serOut := m.Map("ser-out", 1<<20)
	serPtrs := m.Map("ser-ptrs", 1<<16)
	reg := layout.NewRegistry()
	set, err := adt.Build(m, adtAlloc, reg, typ)
	if err != nil {
		t.Fatal(err)
	}
	sys := memmodel.NewSystem(memmodel.DefaultConfig())
	port := sys.NewPort("accel")
	a := &Accelerator{
		Deser: deser.New(m, port, arena, deser.DefaultConfig()),
		Ser:   ser.New(m, port, ser.DefaultConfig()),
		Mem:   m,
	}
	a.AssignArenas(arena, serOut, serPtrs)
	return a, set, layout.NewMaterializer(m, heap, reg), m, typ
}

func TestProtocolRequiresInfo(t *testing.T) {
	a, _, _, _, _ := setup(t)
	if _, err := a.Issue(Command{Op: OpDoProtoDeser}); err != ErrNoInfo {
		t.Errorf("deser err = %v, want ErrNoInfo", err)
	}
	if _, err := a.Issue(Command{Op: OpDoProtoSer}); err != ErrNoInfo {
		t.Errorf("ser err = %v, want ErrNoInfo", err)
	}
}

func TestBatchedDeserializations(t *testing.T) {
	a, set, mat, m, typ := setup(t)
	msg := dynamic.New(typ)
	msg.SetInt32(1, 7)
	msg.SetString(2, "hi")
	b, _ := codec.Marshal(msg)
	inRegion := m.Map("in", 64)
	if err := m.WriteBytes(inRegion.Base, b); err != nil {
		t.Fatal(err)
	}
	// Issue three pairs before the barrier (the batching §4.4.1 allows).
	var objs []uint64
	for i := 0; i < 3; i++ {
		obj, err := mat.AllocObject(typ)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		if _, err := a.Issue(Command{Op: OpDeserInfo, RS1: set.Addr(typ), RS2: obj}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Issue(Command{Op: OpDoProtoDeser, RS1: inRegion.Base, RS2: uint64(len(b))}); err != nil {
			t.Fatal(err)
		}
	}
	busy, err := a.Issue(Command{Op: OpBlockForDeserCompletion})
	if err != nil {
		t.Fatal(err)
	}
	if busy <= 0 || len(a.DeserOps) != 3 {
		t.Errorf("busy=%f ops=%d", busy, len(a.DeserOps))
	}
	for _, obj := range objs {
		got, err := mat.Read(typ, obj)
		if err != nil || !msg.Equal(got) {
			t.Errorf("batched op result wrong: %v", err)
		}
	}
	// The barrier resets in-flight accounting.
	busy2, _ := a.Issue(Command{Op: OpBlockForDeserCompletion})
	if busy2 >= busy {
		t.Errorf("second barrier busy=%f should be just dispatch+fence", busy2)
	}
}

func TestSerializeOpRoundTrip(t *testing.T) {
	a, set, mat, m, typ := setup(t)
	msg := dynamic.New(typ)
	msg.SetInt32(1, 5)
	msg.SetString(2, "rocc")
	obj, err := mat.Write(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpSerInfo}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpDoProtoSer, RS1: set.Addr(typ), RS2: obj}); err != nil {
		t.Fatal(err)
	}
	busy, err := a.Issue(Command{Op: OpBlockForSerCompletion})
	if err != nil {
		t.Fatal(err)
	}
	if busy < a.SerOps[0].Cycles {
		t.Error("busy should include dispatch and fence")
	}
	addr, n, err := a.Ser.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if err := m.ReadBytes(addr, out); err != nil {
		t.Fatal(err)
	}
	want, _ := codec.Marshal(msg)
	if string(out) != string(want) {
		t.Error("rocc serialize output mismatch")
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := OpDeserAssignArena; op <= OpBlockForSerCompletion; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has empty name", op)
		}
	}
	if Opcode(99).String() != "rocc.Opcode(99)" {
		t.Error("unknown opcode format")
	}
}

func TestMopsOpcodes(t *testing.T) {
	a, set, mat, m, typ := setup(t)
	// Wire up a mops unit (setup only builds deser/ser).
	arena := mem.NewAllocator(m.Map("mops-arena", 1<<20))
	sysMem := memmodel.NewSystem(memmodel.DefaultConfig())
	a.Mops = mops.New(m, sysMem.NewPort("mops"), arena, mops.DefaultConfig())

	msg := dynamic.New(typ)
	msg.SetInt32(1, 5)
	msg.SetString(2, "mops")
	obj, err := mat.Write(msg)
	if err != nil {
		t.Fatal(err)
	}

	// Protocol: do_proto_* without mops_info is rejected.
	for _, op := range []Opcode{OpDoProtoClear, OpDoProtoCopy, OpDoProtoMerge} {
		if _, err := a.Issue(Command{Op: op}); err != ErrNoInfo {
			t.Errorf("%v without info: err = %v", op, err)
		}
	}

	// Copy.
	busy, dst, err := a.CopyOp(set.Addr(typ), obj)
	if err != nil {
		t.Fatal(err)
	}
	if busy <= 0 || dst == 0 {
		t.Errorf("copy busy=%f dst=%x", busy, dst)
	}
	got, err := mat.Read(typ, dst)
	if err != nil || !msg.Equal(got) {
		t.Errorf("copy result wrong: %v", err)
	}

	// Merge the original into the copy (idempotent values here).
	if _, err := a.MergeOp(set.Addr(typ), dst, obj); err != nil {
		t.Fatal(err)
	}

	// Clear the copy.
	if _, err := a.ClearOp(set.Addr(typ), dst); err != nil {
		t.Fatal(err)
	}
	cleared, err := mat.Read(typ, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared.PresentFieldNumbers()) != 0 {
		t.Error("clear incomplete")
	}
	if len(a.MopsOps) != 3 {
		t.Errorf("MopsOps = %d", len(a.MopsOps))
	}
}

// TestErrorDropsInfoLatches is the regression test for the error-path
// state poisoning fix: any error returned by Issue — protocol violation
// or unit failure — must drop every pending *_info latch, so a stale
// setup can never pair with a later kick-off and a fresh well-formed
// sequence is never rejected.
func TestErrorDropsInfoLatches(t *testing.T) {
	a, set, mat, m, typ := setup(t)
	msg := dynamic.New(typ)
	msg.SetInt32(1, 9)
	msg.SetString(2, "latch")
	wire, _ := codec.Marshal(msg)
	in := m.Map("in", 64)
	if err := m.WriteBytes(in.Base, wire); err != nil {
		t.Fatal(err)
	}
	obj, err := mat.AllocObject(typ)
	if err != nil {
		t.Fatal(err)
	}

	// Latch deser_info, then violate the protocol on the ser path.
	if _, err := a.Issue(Command{Op: OpDeserInfo, RS1: set.Addr(typ), RS2: obj}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpDoProtoSer}); err != ErrNoInfo {
		t.Fatalf("do_proto_ser without ser_info: err = %v, want ErrNoInfo", err)
	}
	// The error must have reset the decoder: the stale deser latch is gone.
	if _, err := a.Issue(Command{Op: OpDoProtoDeser, RS1: in.Base, RS2: uint64(len(wire))}); err != ErrNoInfo {
		t.Fatalf("stale deser_info survived an error: err = %v, want ErrNoInfo", err)
	}
	// A fresh well-formed sequence works and produces the right object.
	for _, cmd := range []Command{
		{Op: OpDeserInfo, RS1: set.Addr(typ), RS2: obj},
		{Op: OpDoProtoDeser, RS1: in.Base, RS2: uint64(len(wire))},
		{Op: OpBlockForDeserCompletion},
	} {
		if _, err := a.Issue(cmd); err != nil {
			t.Fatalf("recovery sequence rejected at %v: %v", cmd.Op, err)
		}
	}
	got, err := mat.Read(typ, obj)
	if err != nil || !msg.Equal(got) {
		t.Fatalf("recovery sequence produced wrong object: %v", err)
	}

	// A unit-level failure resets the decoder too: latch ser_info, fail a
	// deserialization on malformed wire, then do_proto_ser must be
	// rejected rather than consuming the stale latch.
	bad := []byte{0x12, 0x7f} // string field claiming 127 bytes in a 2-byte buffer
	badRegion := m.Map("bad", 16)
	if err := m.WriteBytes(badRegion.Base, bad); err != nil {
		t.Fatal(err)
	}
	obj2, err := mat.AllocObject(typ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpSerInfo}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpDeserInfo, RS1: set.Addr(typ), RS2: obj2}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Issue(Command{Op: OpDoProtoDeser, RS1: badRegion.Base, RS2: uint64(len(bad))}); err == nil {
		t.Fatal("malformed deserialization should error")
	}
	if _, err := a.Issue(Command{Op: OpDoProtoSer, RS1: set.Addr(typ), RS2: obj}); err != ErrNoInfo {
		t.Fatalf("ser_info latch survived a unit failure: err = %v, want ErrNoInfo", err)
	}
	// And the full serialize sequence recovers, matching the codec.
	for _, cmd := range []Command{
		{Op: OpSerInfo},
		{Op: OpDoProtoSer, RS1: set.Addr(typ), RS2: obj},
		{Op: OpBlockForSerCompletion},
	} {
		if _, err := a.Issue(cmd); err != nil {
			t.Fatalf("serialize recovery sequence rejected at %v: %v", cmd.Op, err)
		}
	}
	addr, n, err := a.Ser.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if err := m.ReadBytes(addr, out); err != nil {
		t.Fatal(err)
	}
	if string(out) != string(wire) {
		t.Error("serialize output after recovery mismatches the codec")
	}
}

func TestUnknownOpcode(t *testing.T) {
	a, _, _, _, _ := setup(t)
	if _, err := a.Issue(Command{Op: Opcode(200)}); err == nil {
		t.Error("unknown opcode should error")
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
