package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/pbtest"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// test1Type mirrors the canonical protobuf docs Test1 message:
// message Test1 { optional int32 a = 1; }
func test1Type() *schema.Message {
	return mustMessage("Test1",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32})
}

func TestGoldenWireBytes(t *testing.T) {
	// From the protobuf encoding documentation: a=150 encodes as 08 96 01.
	m := dynamic.New(test1Type())
	m.SetInt32(1, 150)
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x08, 0x96, 0x01}) {
		t.Errorf("Marshal = %x, want 089601", b)
	}
	if Size(m) != 3 {
		t.Errorf("Size = %d", Size(m))
	}

	// Test2 { optional string b = 2; } with b="testing":
	// 12 07 74 65 73 74 69 6e 67
	t2 := mustMessage("Test2", &schema.Field{Name: "b", Number: 2, Kind: schema.KindString})
	m2 := dynamic.New(t2)
	m2.SetString(2, "testing")
	b2, _ := Marshal(m2)
	want2 := append([]byte{0x12, 0x07}, []byte("testing")...)
	if !bytes.Equal(b2, want2) {
		t.Errorf("Marshal = %x, want %x", b2, want2)
	}

	// Test3 { optional Test1 c = 3; } with c.a=150: 1a 03 08 96 01
	t3 := mustMessage("Test3",
		&schema.Field{Name: "c", Number: 3, Kind: schema.KindMessage, Message: test1Type()})
	m3 := dynamic.New(t3)
	m3.MutableMessage(3).SetInt32(1, 150)
	b3, _ := Marshal(m3)
	if !bytes.Equal(b3, []byte{0x1a, 0x03, 0x08, 0x96, 0x01}) {
		t.Errorf("Marshal = %x, want 1a03089601", b3)
	}

	// Test4 { repeated int32 d = 4 [packed=true]; } with d=[3,270,86942]:
	// 22 06 03 8e 02 9e a7 05
	t4 := mustMessage("Test4",
		&schema.Field{Name: "d", Number: 4, Kind: schema.KindInt32, Label: schema.LabelRepeated, Packed: true})
	m4 := dynamic.New(t4)
	for _, v := range []int32{3, 270, 86942} {
		m4.AddScalarBits(4, uint64(int64(v)))
	}
	b4, _ := Marshal(m4)
	if !bytes.Equal(b4, []byte{0x22, 0x06, 0x03, 0x8e, 0x02, 0x9e, 0xa7, 0x05}) {
		t.Errorf("Marshal = %x, want 2206038e029ea705", b4)
	}
}

func TestNegativeInt32TenBytes(t *testing.T) {
	// proto2 quirk: int32 -1 is sign-extended to a 10-byte varint.
	m := dynamic.New(test1Type())
	m.SetInt32(1, -1)
	b, _ := Marshal(m)
	if len(b) != 11 { // 1 tag + 10 varint
		t.Fatalf("len = %d, want 11", len(b))
	}
	got, err := Unmarshal(m.Type(), b)
	if err != nil || got.GetInt32(1) != -1 {
		t.Errorf("round trip = (%v, %v)", got.GetInt32(1), err)
	}
}

func TestSint32OneByte(t *testing.T) {
	typ := mustMessage("M", &schema.Field{Name: "a", Number: 1, Kind: schema.KindSint32})
	m := dynamic.New(typ)
	m.SetInt32(1, -1)
	b, _ := Marshal(m)
	if len(b) != 2 { // zig-zag: -1 → 1 → single byte
		t.Fatalf("len = %d, want 2", len(b))
	}
	got, _ := Unmarshal(typ, b)
	if got.GetInt32(1) != -1 {
		t.Error("sint32 round trip failed")
	}
}

func TestEmptyMessageZeroBytes(t *testing.T) {
	// Figure 1 of the paper: empty messages take no bytes in encoded form.
	typ := mustMessage("Empty")
	b, err := Marshal(dynamic.New(typ))
	if err != nil || len(b) != 0 {
		t.Errorf("empty message encoded to %d bytes", len(b))
	}
	// A sub-message field pointing at an empty message costs only
	// tag+len(0).
	outer := mustMessage("Outer",
		&schema.Field{Name: "e", Number: 1, Kind: schema.KindMessage, Message: typ})
	m := dynamic.New(outer)
	m.MutableMessage(1)
	b2, _ := Marshal(m)
	if !bytes.Equal(b2, []byte{0x0a, 0x00}) {
		t.Errorf("empty sub-message = %x, want 0a00", b2)
	}
}

func TestRecursiveType(t *testing.T) {
	// Figure 1's message B { optional B f0 = 1; }.
	b := &schema.Message{Name: "B"}
	if err := b.SetFields([]*schema.Field{
		{Name: "f0", Number: 1, Kind: schema.KindMessage, Message: b},
	}); err != nil {
		t.Fatal(err)
	}
	m := dynamic.New(b)
	cur := m
	for i := 0; i < 5; i++ {
		cur = cur.MutableMessage(1)
	}
	enc, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b, enc)
	if err != nil || !m.Equal(got) {
		t.Errorf("recursive round trip failed: %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	b := &schema.Message{Name: "B"}
	if err := b.SetFields([]*schema.Field{
		{Name: "f0", Number: 1, Kind: schema.KindMessage, Message: b},
	}); err != nil {
		t.Fatal(err)
	}
	m := dynamic.New(b)
	cur := m
	for i := 0; i < MaxNestingDepth+5; i++ {
		cur = cur.MutableMessage(1)
	}
	enc, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b, enc); err == nil {
		t.Error("expected depth-limit error")
	}
}

func TestUnpackedRepeated(t *testing.T) {
	typ := mustMessage("M",
		&schema.Field{Name: "r", Number: 2, Kind: schema.KindUint64, Label: schema.LabelRepeated})
	m := dynamic.New(typ)
	m.AddScalarBits(2, 1)
	m.AddScalarBits(2, 300)
	b, _ := Marshal(m)
	// Two key/value pairs with the same key (§2.1.2).
	want := []byte{0x10, 0x01, 0x10, 0xac, 0x02}
	if !bytes.Equal(b, want) {
		t.Errorf("Marshal = %x, want %x", b, want)
	}
	got, err := Unmarshal(typ, b)
	if err != nil || got.Len(2) != 2 {
		t.Fatalf("unmarshal: %v", err)
	}
}

func TestPackedUnpackedInterchange(t *testing.T) {
	// A decoder must accept packed data for unpacked fields and vice versa.
	unpackedType := mustMessage("M",
		&schema.Field{Name: "r", Number: 1, Kind: schema.KindInt32, Label: schema.LabelRepeated})
	packedType := mustMessage("M",
		&schema.Field{Name: "r", Number: 1, Kind: schema.KindInt32, Label: schema.LabelRepeated, Packed: true})

	src := dynamic.New(packedType)
	for _, v := range []int32{1, 2, 300} {
		src.AddScalarBits(1, uint64(int64(v)))
	}
	packedBytes, _ := Marshal(src)

	got, err := Unmarshal(unpackedType, packedBytes)
	if err != nil || got.Len(1) != 3 || got.RepeatedScalarBits(1)[2] != 300 {
		t.Errorf("unpacked decoder rejected packed data: %v", err)
	}

	src2 := dynamic.New(unpackedType)
	for _, v := range []int32{1, 2, 300} {
		src2.AddScalarBits(1, uint64(int64(v)))
	}
	unpackedBytes, _ := Marshal(src2)
	got2, err := Unmarshal(packedType, unpackedBytes)
	if err != nil || got2.Len(1) != 3 {
		t.Errorf("packed decoder rejected unpacked data: %v", err)
	}
}

func TestPackedFixedWidth(t *testing.T) {
	typ := mustMessage("M",
		&schema.Field{Name: "r", Number: 1, Kind: schema.KindFixed32, Label: schema.LabelRepeated, Packed: true},
		&schema.Field{Name: "d", Number: 2, Kind: schema.KindDouble, Label: schema.LabelRepeated, Packed: true})
	m := dynamic.New(typ)
	m.AddScalarBits(1, 7)
	m.AddScalarBits(1, 8)
	m.AddScalarBits(2, math.Float64bits(1.5))
	b, _ := Marshal(m)
	got, err := Unmarshal(typ, b)
	if err != nil || !m.Equal(got) {
		t.Errorf("packed fixed round trip: %v", err)
	}
	// Packed fixed32 ×2 = tag(1) + len(1) + 8 bytes.
	if Size(m) != 2+8+2+8 {
		t.Errorf("Size = %d", Size(m))
	}
}

func TestLastOneWins(t *testing.T) {
	typ := test1Type()
	var b []byte
	b = wire.AppendTag(b, 1, wire.TypeVarint)
	b = wire.AppendVarint(b, 5)
	b = wire.AppendTag(b, 1, wire.TypeVarint)
	b = wire.AppendVarint(b, 9)
	m, err := Unmarshal(typ, b)
	if err != nil || m.GetInt32(1) != 9 {
		t.Errorf("last-one-wins: got %d, %v", m.GetInt32(1), err)
	}
}

func TestSingularSubMessageMergesAcrossOccurrences(t *testing.T) {
	sub := mustMessage("Sub",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "b", Number: 2, Kind: schema.KindInt32})
	typ := mustMessage("M",
		&schema.Field{Name: "s", Number: 1, Kind: schema.KindMessage, Message: sub})
	// Two occurrences of field 1, each setting a different sub-field.
	m1 := dynamic.New(typ)
	m1.MutableMessage(1).SetInt32(1, 5)
	m2 := dynamic.New(typ)
	m2.MutableMessage(1).SetInt32(2, 7)
	b1, _ := Marshal(m1)
	b2, _ := Marshal(m2)
	got, err := Unmarshal(typ, append(b1, b2...))
	if err != nil {
		t.Fatal(err)
	}
	s := got.GetMessage(1)
	if s.GetInt32(1) != 5 || s.GetInt32(2) != 7 {
		t.Errorf("merge across occurrences: a=%d b=%d", s.GetInt32(1), s.GetInt32(2))
	}
}

func TestUnknownFieldPreservation(t *testing.T) {
	// Serialize with a richer schema, deserialize with a narrower one
	// (schema evolution), reserialize, deserialize with the rich schema.
	rich := mustMessage("M",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "b", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "c", Number: 3, Kind: schema.KindFixed64})
	narrow := mustMessage("M", &schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32})

	m := dynamic.New(rich)
	m.SetInt32(1, 5)
	m.SetString(2, "keep me")
	m.SetUint64(3, 99)
	b, _ := Marshal(m)

	mid, err := Unmarshal(narrow, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Unknown) == 0 {
		t.Fatal("unknown fields not preserved")
	}
	b2, _ := Marshal(mid)
	back, err := Unmarshal(rich, b2)
	if err != nil {
		t.Fatal(err)
	}
	if back.GetString(2) != "keep me" || back.GetUint64(3) != 99 {
		t.Error("unknown fields lost through round trip")
	}
}

func TestWireTypeMismatchGoesToUnknown(t *testing.T) {
	typ := test1Type() // field 1 is int32 (varint)
	var b []byte
	b = wire.AppendTag(b, 1, wire.TypeFixed32)
	b = wire.AppendFixed32(b, 7)
	m, err := Unmarshal(typ, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Has(1) || len(m.Unknown) != 5 {
		t.Errorf("mismatched wire type should be unknown; has=%v unknown=%x", m.Has(1), m.Unknown)
	}
}

func TestTruncatedInputs(t *testing.T) {
	typ := mustMessage("M",
		&schema.Field{Name: "s", Number: 1, Kind: schema.KindString},
		&schema.Field{Name: "v", Number: 2, Kind: schema.KindUint64})
	m := dynamic.New(typ)
	m.SetString(1, "hello world")
	m.SetUint64(2, 1<<40)
	b, _ := Marshal(m)
	for i := 1; i < len(b); i++ {
		if _, err := Unmarshal(typ, b[:i]); err == nil {
			// Truncation at a field boundary is a valid shorter message
			// only when it cuts exactly between fields.
			valid := false
			for _, cut := range []int{0, 13} { // after string field
				if i == cut {
					valid = true
				}
			}
			if !valid {
				t.Errorf("truncated at %d: expected error", i)
			}
		}
	}
}

func TestSizeMatchesMarshalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
		m := pbtest.RandomPopulated(rng, typ, pbtest.DefaultMessageConfig())
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(b) != Size(m) {
			t.Fatalf("trial %d: Size=%d len=%d", trial, Size(m), len(b))
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
		m := pbtest.RandomPopulated(rng, typ, pbtest.DefaultMessageConfig())
		ok, err := RoundTripEqual(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			t.Fatalf("trial %d: round trip not equal", trial)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
	m := pbtest.RandomPopulated(rng, typ, pbtest.DefaultMessageConfig())
	a, _ := Marshal(m)
	b, _ := Marshal(m)
	if !bytes.Equal(a, b) {
		t.Error("Marshal not deterministic")
	}
}

func TestFieldsSerializedInAscendingOrder(t *testing.T) {
	typ := mustMessage("M",
		&schema.Field{Name: "hi", Number: 200, Kind: schema.KindInt32},
		&schema.Field{Name: "lo", Number: 1, Kind: schema.KindInt32})
	m := dynamic.New(typ)
	m.SetInt32(200, 1)
	m.SetInt32(1, 2)
	b, _ := Marshal(m)
	fn, _, _, err := wire.ReadTag(b)
	if err != nil || fn != 1 {
		t.Errorf("first field on wire = %d, want 1", fn)
	}
}

func TestBoolCanonicalization(t *testing.T) {
	typ := mustMessage("M", &schema.Field{Name: "b", Number: 1, Kind: schema.KindBool})
	// Wire value 2 should decode as true (non-zero).
	var b []byte
	b = wire.AppendTag(b, 1, wire.TypeVarint)
	b = wire.AppendVarint(b, 2)
	m, err := Unmarshal(typ, b)
	if err != nil || !m.GetBool(1) {
		t.Error("bool 2 should decode true")
	}
	// And re-encode as 1.
	out, _ := Marshal(m)
	if !bytes.Equal(out, []byte{0x08, 0x01}) {
		t.Errorf("re-encode = %x", out)
	}
}

// FuzzUnmarshalRoundTrip checks the codec's round-trip properties on
// every input Unmarshal accepts, over one fixed random schema (seed 136:
// non-repeated uint64 field 1, sub-messages four deep, repeated, bytes
// and enum fields): Size matches the encoding's length, re-parsing the
// encoding gives back an equal message, re-encoding that gives the same
// bytes, and Clone and Merge into an empty message both copy it exactly.
// The seeds include an unknown varint field (98 06 07, field 99) and a
// wire-type mismatch (0a 01 41, bytes on the uint64 field 1), which are
// kept as unknown bytes.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(136))
	typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
	if fd := typ.FieldByNumber(1); fd == nil || fd.Kind != schema.KindUint64 || fd.Label == schema.LabelRepeated || typ.FieldByNumber(99) != nil {
		f.Fatal("schema no longer has non-repeated uint64 field 1 and no field 99; the seeds below lose their meaning")
	}
	// Four typical messages and one with every field set at every depth,
	// so each kind and label is in the corpus.
	cfgs := []pbtest.MessageConfig{pbtest.DefaultMessageConfig(), pbtest.DefaultMessageConfig(),
		pbtest.DefaultMessageConfig(), pbtest.DefaultMessageConfig(), {PresenceProb: 1, MaxRepeat: 2, MaxBlobLen: 8}}
	for _, cfg := range cfgs {
		b, err := Marshal(pbtest.RandomPopulated(rng, typ, cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(append(b, 0x98, 0x06, 0x07))
	}
	f.Add([]byte{})
	f.Add([]byte{0x98, 0x06, 0x07})
	f.Add([]byte{0x0a, 0x01, 0x41})
	f.Fuzz(func(t *testing.T, input []byte) {
		m, err := Unmarshal(typ, input)
		if err != nil {
			return
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if Size(m) != len(b) {
			t.Fatalf("Size = %d, Marshal wrote %d bytes", Size(m), len(b))
		}
		back, err := Unmarshal(typ, b)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(m)): %v", err)
		}
		if !back.Equal(m) {
			t.Fatalf("Unmarshal(Marshal(m)) differs from m for input %x", input)
		}
		again, err := Marshal(back)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("Marshal not idempotent: %x then %x (%v)", b, again, err)
		}
		if !m.Clone().Equal(m) {
			t.Fatal("Clone differs from m")
		}
		merged := dynamic.New(typ)
		merged.Merge(m)
		if !merged.Equal(m) {
			t.Fatal("New(t).Merge(m) differs from m")
		}
	})
}

func BenchmarkMarshalSmall(b *testing.B) {
	m := dynamic.New(test1Type())
	m.SetInt32(1, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalSmall(b *testing.B) {
	m := dynamic.New(test1Type())
	m.SetInt32(1, 150)
	enc, _ := Marshal(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(m.Type(), enc); err != nil {
			b.Fatal(err)
		}
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
