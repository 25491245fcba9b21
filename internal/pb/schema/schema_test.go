package schema

import (
	"fmt"
	"strings"
	"testing"

	"protoacc/internal/pb/wire"
)

func TestKindWireTypes(t *testing.T) {
	cases := []struct {
		k Kind
		w wire.Type
	}{
		{KindDouble, wire.TypeFixed64},
		{KindFloat, wire.TypeFixed32},
		{KindInt32, wire.TypeVarint},
		{KindInt64, wire.TypeVarint},
		{KindUint32, wire.TypeVarint},
		{KindUint64, wire.TypeVarint},
		{KindSint32, wire.TypeVarint},
		{KindSint64, wire.TypeVarint},
		{KindFixed32, wire.TypeFixed32},
		{KindFixed64, wire.TypeFixed64},
		{KindSfixed32, wire.TypeFixed32},
		{KindSfixed64, wire.TypeFixed64},
		{KindBool, wire.TypeVarint},
		{KindEnum, wire.TypeVarint},
		{KindString, wire.TypeBytes},
		{KindBytes, wire.TypeBytes},
		{KindMessage, wire.TypeBytes},
	}
	for _, c := range cases {
		if got := c.k.WireType(); got != c.w {
			t.Errorf("%v.WireType() = %v, want %v", c.k, got, c.w)
		}
	}
}

func TestTable1Classes(t *testing.T) {
	// Table 1 of the paper.
	want := map[Kind]PerfClass{
		KindBytes: ClassBytesLike, KindString: ClassBytesLike,
		KindSint64: ClassVarintLike, KindSint32: ClassVarintLike,
		KindUint64: ClassVarintLike, KindUint32: ClassVarintLike,
		KindInt64: ClassVarintLike, KindInt32: ClassVarintLike,
		KindEnum: ClassVarintLike, KindBool: ClassVarintLike,
		KindFloat:   ClassFloatLike,
		KindDouble:  ClassDoubleLike,
		KindFixed32: ClassFixed32Like, KindSfixed32: ClassFixed32Like,
		KindFixed64: ClassFixed64Like, KindSfixed64: ClassFixed64Like,
	}
	for k, c := range want {
		if got := k.Class(); got != c {
			t.Errorf("%v.Class() = %v, want %v", k, got, c)
		}
	}
}

func TestKindByName(t *testing.T) {
	for _, name := range []string{"double", "float", "int32", "int64", "uint32",
		"uint64", "sint32", "sint64", "fixed32", "fixed64", "sfixed32",
		"sfixed64", "bool", "string", "bytes"} {
		k, ok := KindByName(name)
		if !ok || k.String() != name {
			t.Errorf("KindByName(%q) = (%v,%v)", name, k, ok)
		}
	}
	if _, ok := KindByName("message"); ok {
		t.Error("KindByName should not resolve message")
	}
	if _, ok := KindByName("int16"); ok {
		t.Error("KindByName resolved nonexistent type")
	}
}

func TestFixedWireSize(t *testing.T) {
	if KindFloat.FixedWireSize() != 4 || KindSfixed32.FixedWireSize() != 4 {
		t.Error("32-bit kinds should report 4")
	}
	if KindDouble.FixedWireSize() != 8 || KindFixed64.FixedWireSize() != 8 {
		t.Error("64-bit kinds should report 8")
	}
	if KindInt64.FixedWireSize() != 0 || KindString.FixedWireSize() != 0 {
		t.Error("variable kinds should report 0")
	}
}

func TestMessageConstruction(t *testing.T) {
	m := mustMessage("M",
		&Field{Name: "c", Number: 9, Kind: KindInt64},
		&Field{Name: "a", Number: 3, Kind: KindString},
		&Field{Name: "b", Number: 5, Kind: KindBool},
	)
	if got := m.MinFieldNumber(); got != 3 {
		t.Errorf("MinFieldNumber = %d", got)
	}
	if got := m.MaxFieldNumber(); got != 9 {
		t.Errorf("MaxFieldNumber = %d", got)
	}
	if got := m.FieldNumberRange(); got != 7 {
		t.Errorf("FieldNumberRange = %d", got)
	}
	if d := m.DefinitionDensity(); d < 0.42 || d > 0.43 {
		t.Errorf("DefinitionDensity = %f, want 3/7", d)
	}
	if m.Fields[0].Name != "a" || m.Fields[2].Name != "c" {
		t.Error("fields not sorted by number")
	}
	if m.FieldByNumber(5).Name != "b" {
		t.Error("FieldByNumber failed")
	}
	if m.FieldByNumber(4) != nil {
		t.Error("FieldByNumber(4) should be nil")
	}
	if m.FieldByName("c").Number != 9 {
		t.Error("FieldByName failed")
	}
	if m.FieldByName("zz") != nil {
		t.Error("FieldByName(zz) should be nil")
	}
}

// TestFieldIndex checks the number-to-index lookup on a densely numbered
// type, a sparse one and an empty one, against a linear scan, including
// numbers below, between and above the defined ones.
func TestFieldIndex(t *testing.T) {
	field := func(n int32) *Field { return &Field{Name: fmt.Sprintf("f%d", n), Number: n, Kind: KindInt32} }
	var dense, sparse []*Field
	for n := int32(1); n <= 6; n++ {
		dense = append(dense, field(n))
	}
	for _, n := range []int32{2, 3, 7, 40, 41, 1000, wire.MaxFieldNumber} {
		sparse = append(sparse, field(n))
	}
	for _, fields := range [][]*Field{dense, sparse, nil} {
		m, err := NewMessage("M", fields...)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int32{-1, 0, 1, 2, 3, 4, 6, 7, 8, 39, 40, 41, 42, 999, 1000, 1001, wire.MaxFieldNumber, wire.MaxFieldNumber + 1} {
			want := -1
			for i, f := range m.Fields {
				if f.Number == n {
					want = i
				}
			}
			if got := m.FieldIndex(n); got != want {
				t.Errorf("%d fields: FieldIndex(%d) = %d, want %d", len(m.Fields), n, got, want)
			}
		}
	}
}

func TestMessageValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []*Field
		errSub string
	}{
		{"dup", []*Field{{Name: "a", Number: 1, Kind: KindBool}, {Name: "b", Number: 1, Kind: KindBool}}, "duplicate"},
		{"zero", []*Field{{Name: "a", Number: 0, Kind: KindBool}}, "out of range"},
		{"reserved", []*Field{{Name: "a", Number: 19000, Kind: KindBool}}, "reserved"},
		{"noname", []*Field{{Number: 1, Kind: KindBool}}, "no name"},
		{"badkind", []*Field{{Name: "a", Number: 1}}, "invalid kind"},
		{"nilmsg", []*Field{{Name: "a", Number: 1, Kind: KindMessage}}, "nil type"},
		{"packednonrep", []*Field{{Name: "a", Number: 1, Kind: KindInt32, Packed: true}}, "non-repeated"},
		{"packedstring", []*Field{{Name: "a", Number: 1, Kind: KindString, Label: LabelRepeated, Packed: true}}, "length-delimited"},
	}
	for _, c := range cases {
		if _, err := NewMessage("M", c.fields...); err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.errSub)
		}
	}
}

func TestPackedWireType(t *testing.T) {
	f := &Field{Name: "a", Number: 1, Kind: KindInt32, Label: LabelRepeated, Packed: true}
	if f.WireType() != wire.TypeBytes {
		t.Error("packed field should be length-delimited on the wire")
	}
	f2 := &Field{Name: "b", Number: 2, Kind: KindInt32, Label: LabelRepeated}
	if f2.WireType() != wire.TypeVarint {
		t.Error("unpacked repeated int32 should be varint on the wire")
	}
}

func makeChain(depth int) *Message {
	leaf := mustMessage("D0", &Field{Name: "v", Number: 1, Kind: KindInt32})
	cur := leaf
	for i := 1; i < depth; i++ {
		cur = mustMessage("D"+string(rune('0'+i)),
			&Field{Name: "sub", Number: 1, Kind: KindMessage, Message: cur})
	}
	return cur
}

func TestMaxDepth(t *testing.T) {
	if d := makeChain(1).MaxDepth(100); d != 1 {
		t.Errorf("depth(chain1) = %d", d)
	}
	if d := makeChain(5).MaxDepth(100); d != 5 {
		t.Errorf("depth(chain5) = %d", d)
	}
	// Recursive type: depth clamps at limit.
	rec := &Message{Name: "R"}
	if err := rec.SetFields([]*Field{
		{Name: "self", Number: 1, Kind: KindMessage, Message: rec},
		{Name: "v", Number: 2, Kind: KindInt32},
	}); err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxDepth(25); d != 25 {
		t.Errorf("recursive depth = %d, want clamp 25", d)
	}
}

func TestWalkVisitsOnce(t *testing.T) {
	shared := mustMessage("Shared", &Field{Name: "v", Number: 1, Kind: KindInt32})
	top := mustMessage("Top",
		&Field{Name: "a", Number: 1, Kind: KindMessage, Message: shared},
		&Field{Name: "b", Number: 2, Kind: KindMessage, Message: shared},
	)
	var names []string
	top.Walk(func(m *Message) { names = append(names, m.Name) })
	if len(names) != 2 || names[0] != "Top" || names[1] != "Shared" {
		t.Errorf("Walk visited %v", names)
	}
	// Recursive walk terminates.
	rec := &Message{Name: "R"}
	if err := rec.SetFields([]*Field{{Name: "self", Number: 1, Kind: KindMessage, Message: rec}}); err != nil {
		t.Fatal(err)
	}
	count := 0
	rec.Walk(func(*Message) { count++ })
	if count != 1 {
		t.Errorf("recursive Walk visited %d", count)
	}
}

func TestEmptyMessage(t *testing.T) {
	m := mustMessage("Empty")
	if m.MinFieldNumber() != 0 || m.MaxFieldNumber() != 0 || m.FieldNumberRange() != 0 {
		t.Error("empty message bounds should be zero")
	}
	if m.DefinitionDensity() != 0 {
		t.Error("empty message density should be zero")
	}
	if m.MaxDepth(10) != 1 {
		t.Error("empty message depth should be 1")
	}
}

func TestFileMessageByName(t *testing.T) {
	f := &File{Path: "a.proto", Messages: []*Message{mustMessage("A"), mustMessage("B")}}
	if f.MessageByName("B") == nil || f.MessageByName("C") != nil {
		t.Error("MessageByName lookup failed")
	}
}

// mustMessage is the test-local stand-in for the removed MustMessage:
// build a type from known-good literal fields, panicking on error.
func mustMessage(name string, fields ...*Field) *Message {
	m, err := NewMessage(name, fields...)
	if err != nil {
		panic(err)
	}
	return m
}
