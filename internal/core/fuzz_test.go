package core

import (
	"bytes"
	"testing"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
)

// fuzzType is the fixed schema the native fuzz targets decode against:
// one field of each major wire shape, plus a nested message.
func fuzzType() *schema.Message {
	sub := mustMessage("FSub",
		&schema.Field{Name: "id", Number: 1, Kind: schema.KindInt64},
		&schema.Field{Name: "tag", Number: 2, Kind: schema.KindString})
	return mustMessage("F",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "r", Number: 3, Kind: schema.KindUint64, Label: schema.LabelRepeated, Packed: true},
		&schema.Field{Name: "sub", Number: 4, Kind: schema.KindMessage, Message: sub},
		&schema.Field{Name: "fx", Number: 5, Kind: schema.KindFixed32},
	)
}

// fuzzSeeds returns wire-format seed inputs for the fuzz targets: a fully
// populated message plus boundary shapes (empty, lone varint, group tag,
// over-long string, truncated sub-message, an unknown fixed32 before a
// known field, an empty unknown group).
func fuzzSeeds(f *testing.F, typ *schema.Message) [][]byte {
	m := dynamic.New(typ)
	m.SetInt32(1, -1)
	m.SetString(2, "seed")
	m.AddScalarBits(3, 300)
	m.MutableMessage(4).SetInt64(1, 7)
	m.SetUint32(5, 0xabcd)
	full, err := codec.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		full,
		{},
		{0x08, 0x96, 0x01},
		{0x0b},                   // group tag
		{0x12, 0x7f},             // over-long string
		{0x22, 0x05, 0x08, 0x07}, // truncated sub-message
		{0x9d, 0x06, 0x01, 0x02, 0x03, 0x04, 0x08, 0x01}, // unknown fixed32 field 99, then a = 1
		{0xa3, 0x06, 0xa4, 0x06},                         // empty group, field 100
	}
}

// FuzzDeserialize fuzzes the deserialization path of both simulated
// systems — and a third System running under an injected-fault schedule —
// against the reference codec: no input may panic or corrupt simulated
// memory, accepted inputs must decode identically everywhere, and fault
// recovery (retry, software fallback) must be semantically invisible.
func FuzzDeserialize(f *testing.F) {
	typ := fuzzType()
	for _, seed := range fuzzSeeds(f, typ) {
		f.Add(seed)
	}
	boom := New(smallConfig(KindBOOM))
	accel := New(smallConfig(KindAccel))
	chaos := New(faultedConfig(0xC0FFEE, 0.02))
	for _, sys := range []*System{boom, accel, chaos} {
		if err := sys.LoadSchema(typ); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return // keep simulated memory small
		}
		diffCheck(t, typ, input, boom, accel, chaos)
	})
}

// FuzzSerializeRoundTrip fuzzes the serialization path: any input the
// reference codec accepts is stripped of unknown bytes (the materializer
// writes none), materialized as a simulated C++ object and serialized on
// every system — software, accelerated, and accelerated-under-faults —
// and each must reproduce the reference codec's canonical bytes exactly.
func FuzzSerializeRoundTrip(f *testing.F) {
	typ := fuzzType()
	for _, seed := range fuzzSeeds(f, typ) {
		f.Add(seed)
	}
	boom := New(smallConfig(KindBOOM))
	accel := New(smallConfig(KindAccel))
	chaos := New(faultedConfig(0xFA177, 0.02))
	systems := []*System{boom, accel, chaos}
	for _, sys := range systems {
		if err := sys.LoadSchema(typ); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return
		}
		ref, err := codec.Unmarshal(typ, input)
		if err != nil {
			return
		}
		stripUnknown(ref)
		want, err := codec.Marshal(ref)
		if err != nil {
			t.Fatalf("reference re-marshal failed: %v", err)
		}
		for _, sys := range systems {
			sys.ResetWork()
			sys.Static.Reset()
			objAddr, err := sys.MaterializeInput(ref)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Serialize(typ, objAddr)
			if err != nil {
				t.Fatalf("%s rejected a valid object: %v\ninput: %x", sys.Name(), err, input)
			}
			out, err := sys.ReadWire(res.WireAddr, res.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s round trip diverged from the reference codec\ninput: %x\ngot:  %x\nwant: %x",
					sys.Name(), input, out, want)
			}
		}
	})
}
