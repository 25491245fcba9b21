package dynamic

import (
	"testing"
	"testing/quick"

	"protoacc/internal/pb/schema"
)

func scalarType() *schema.Message {
	return mustMessage("S",
		&schema.Field{Name: "i32", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "i64", Number: 2, Kind: schema.KindInt64},
		&schema.Field{Name: "u32", Number: 3, Kind: schema.KindUint32},
		&schema.Field{Name: "u64", Number: 4, Kind: schema.KindUint64},
		&schema.Field{Name: "b", Number: 5, Kind: schema.KindBool},
		&schema.Field{Name: "f", Number: 6, Kind: schema.KindFloat},
		&schema.Field{Name: "d", Number: 7, Kind: schema.KindDouble},
		&schema.Field{Name: "s", Number: 8, Kind: schema.KindString},
		&schema.Field{Name: "by", Number: 9, Kind: schema.KindBytes},
	)
}

func TestScalarAccessors(t *testing.T) {
	m := New(scalarType())
	m.SetInt32(1, -5)
	m.SetInt64(2, -1e12)
	m.SetUint32(3, 4e9)
	m.SetUint64(4, 1<<63)
	m.SetBool(5, true)
	m.SetFloat(6, 1.5)
	m.SetDouble(7, -2.25)
	m.SetString(8, "hello")
	m.SetBytes(9, []byte{1, 2, 3})

	if m.GetInt32(1) != -5 || m.GetInt64(2) != -1e12 || m.GetUint32(3) != 4e9 ||
		m.GetUint64(4) != 1<<63 || !m.GetBool(5) || m.GetFloat(6) != 1.5 ||
		m.GetDouble(7) != -2.25 || m.GetString(8) != "hello" ||
		string(m.GetBytes(9)) != "\x01\x02\x03" {
		t.Error("scalar round trip failed")
	}
	for n := int32(1); n <= 9; n++ {
		if !m.Has(n) {
			t.Errorf("Has(%d) = false", n)
		}
	}
	if got := m.PresentFieldNumbers(); len(got) != 9 || got[0] != 1 || got[8] != 9 {
		t.Errorf("PresentFieldNumbers = %v", got)
	}
}

func TestDefaultsWhenAbsent(t *testing.T) {
	typ := mustMessage("D",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32, Default: ^uint64(0) - 6}, // -7 two's complement
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString, DefaultBytes: []byte("dflt")},
		&schema.Field{Name: "b", Number: 3, Kind: schema.KindBool, Default: 1},
	)
	m := New(typ)
	if m.Has(1) || m.GetInt32(1) != -7 {
		t.Error("int default wrong")
	}
	if m.GetString(2) != "dflt" {
		t.Error("string default wrong")
	}
	if !m.GetBool(3) {
		t.Error("bool default wrong")
	}
	m.SetInt32(1, 0)
	if !m.Has(1) || m.GetInt32(1) != 0 {
		t.Error("explicit zero should be present and override default")
	}
	m.Clear(1)
	if m.Has(1) || m.GetInt32(1) != -7 {
		t.Error("Clear should restore default")
	}
}

func TestRepeatedScalars(t *testing.T) {
	typ := mustMessage("R",
		&schema.Field{Name: "v", Number: 1, Kind: schema.KindInt64, Label: schema.LabelRepeated},
	)
	m := New(typ)
	if m.Len(1) != 0 || m.Has(1) {
		t.Error("empty repeated field should have len 0, absent")
	}
	for i := int64(0); i < 5; i++ {
		m.AddScalarBits(1, uint64(i*10))
	}
	if m.Len(1) != 5 || !m.Has(1) {
		t.Errorf("Len = %d", m.Len(1))
	}
	got := m.RepeatedScalarBits(1)
	if got[3] != 30 {
		t.Errorf("element 3 = %d", got[3])
	}
}

func TestRepeatedBytesAndMessages(t *testing.T) {
	sub := mustMessage("Sub", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	typ := mustMessage("R",
		&schema.Field{Name: "names", Number: 1, Kind: schema.KindString, Label: schema.LabelRepeated},
		&schema.Field{Name: "subs", Number: 2, Kind: schema.KindMessage, Label: schema.LabelRepeated, Message: sub},
	)
	m := New(typ)
	m.AddString(1, "a")
	m.AddString(1, "bb")
	if m.Len(1) != 2 || string(m.RepeatedBytes(1)[1]) != "bb" {
		t.Error("repeated string failed")
	}
	s1 := m.AddMessage(2)
	s1.SetInt32(1, 42)
	m.AddMessage(2)
	if m.Len(2) != 2 || m.RepeatedMessages(2)[0].GetInt32(1) != 42 {
		t.Error("repeated message failed")
	}
}

func TestSubMessageAccessors(t *testing.T) {
	sub := mustMessage("Sub", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	typ := mustMessage("M",
		&schema.Field{Name: "s", Number: 1, Kind: schema.KindMessage, Message: sub},
	)
	m := New(typ)
	if m.GetMessage(1) != nil {
		t.Error("absent sub-message should be nil")
	}
	ms := m.MutableMessage(1)
	ms.SetInt32(1, 7)
	if m.GetMessage(1).GetInt32(1) != 7 {
		t.Error("MutableMessage did not persist")
	}
	if m.MutableMessage(1) != ms {
		t.Error("MutableMessage should return same instance")
	}
}

func TestAccessorPanics(t *testing.T) {
	typ := mustMessage("M",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "r", Number: 2, Kind: schema.KindInt32, Label: schema.LabelRepeated},
		&schema.Field{Name: "s", Number: 3, Kind: schema.KindString},
	)
	m := New(typ)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unknown field", func() { m.SetInt32(99, 1) })
	expectPanic("singular on repeated", func() { m.SetInt32(2, 1) })
	expectPanic("repeated on singular", func() { m.AddScalarBits(1, 1) })
	expectPanic("scalar on string", func() { m.SetScalarBits(3, 1) })
	expectPanic("bytes on int", func() { m.SetBytes(1, nil) })
	expectPanic("message on int", func() { m.GetMessage(1) })
	expectPanic("len on singular", func() { m.Len(1) })
}

func TestSetMessageTypeCheck(t *testing.T) {
	subA := mustMessage("A", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	subB := mustMessage("B", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	typ := mustMessage("M", &schema.Field{Name: "s", Number: 1, Kind: schema.KindMessage, Message: subA})
	m := New(typ)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong sub-message type")
		}
	}()
	m.SetMessage(1, New(subB))
}

func TestEqualCloneMerge(t *testing.T) {
	sub := mustMessage("Sub", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	typ := mustMessage("M",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "sub", Number: 3, Kind: schema.KindMessage, Message: sub},
		&schema.Field{Name: "r", Number: 4, Kind: schema.KindInt64, Label: schema.LabelRepeated},
		&schema.Field{Name: "rs", Number: 5, Kind: schema.KindString, Label: schema.LabelRepeated},
		&schema.Field{Name: "rm", Number: 6, Kind: schema.KindMessage, Label: schema.LabelRepeated, Message: sub},
	)
	m := New(typ)
	m.SetInt32(1, 5)
	m.SetString(2, "x")
	m.MutableMessage(3).SetInt32(1, 9)
	m.AddScalarBits(4, 1)
	m.AddScalarBits(4, 2)
	m.AddString(5, "y")
	m.AddMessage(6).SetInt32(1, 8)

	c := m.Clone()
	if !m.Equal(c) || !c.Equal(m) {
		t.Fatal("clone should be equal")
	}
	// Deep copy: mutating the clone must not affect the original.
	c.MutableMessage(3).SetInt32(1, 100)
	if m.GetMessage(3).GetInt32(1) != 9 {
		t.Error("clone shares sub-message storage")
	}
	if m.Equal(c) {
		t.Error("should differ after clone mutation")
	}
	c = m.Clone()
	c.RepeatedBytes(5)[0][0] = 'z'
	c.RepeatedMessages(6)[0].SetInt32(1, 0)
	if string(m.RepeatedBytes(5)[0]) != "y" || m.RepeatedMessages(6)[0].GetInt32(1) != 8 {
		t.Error("clone shares repeated element storage")
	}

	// Merge semantics.
	dst := New(typ)
	dst.SetInt32(1, 1)
	dst.AddScalarBits(4, 100)
	dst.MutableMessage(3).SetInt32(1, 1)
	src := New(typ)
	src.SetInt32(1, 2)
	src.SetString(2, "from-src")
	src.AddScalarBits(4, 200)
	src.MutableMessage(3).SetInt32(1, 2)
	dst.Merge(src)
	if dst.GetInt32(1) != 2 {
		t.Error("merge should overwrite singular scalar")
	}
	if dst.GetString(2) != "from-src" {
		t.Error("merge should set absent string")
	}
	if dst.Len(4) != 2 || dst.RepeatedScalarBits(4)[1] != 200 {
		t.Error("merge should concatenate repeated")
	}
	if dst.GetMessage(3).GetInt32(1) != 2 {
		t.Error("merge should recurse into sub-message")
	}
}

// TestPresentNilSubMessage covers a singular sub-message whose hasbit is
// set over a nil value — what layout.Materializer.Read yields for an
// object with a set hasbit and a null pointer. Clone and Merge must carry
// the state without dereferencing the nil.
func TestPresentNilSubMessage(t *testing.T) {
	sub := mustMessage("Sub", &schema.Field{Name: "v", Number: 1, Kind: schema.KindInt32})
	typ := mustMessage("M",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "sub", Number: 2, Kind: schema.KindMessage, Message: sub},
	)
	m := New(typ)
	m.SetInt32(1, 3)
	m.SetMessage(2, nil)
	if !m.Has(2) || m.GetMessage(2) != nil {
		t.Fatal("SetMessage(nil) should leave the field present with a nil value")
	}
	absent := New(typ)
	absent.SetInt32(1, 3)
	if m.Equal(absent) || absent.Equal(m) {
		t.Error("present-nil should differ from absent")
	}

	c := m.Clone()
	if !c.Has(2) || c.GetMessage(2) != nil || !c.Equal(m) {
		t.Error("Clone should copy the present-nil state")
	}
	merged := New(typ)
	merged.Merge(m)
	if !merged.Has(2) || merged.GetMessage(2) != nil || !merged.Equal(m) {
		t.Error("Merge into an empty message should copy the present-nil state")
	}

	// Merging present-nil over a set sub-message leaves its value alone;
	// merging a set sub-message over present-nil allocates it.
	dst := New(typ)
	dst.MutableMessage(2).SetInt32(1, 7)
	dst.Merge(m)
	if dst.GetMessage(2).GetInt32(1) != 7 {
		t.Error("merging present-nil should keep the destination's sub-message")
	}
	src := New(typ)
	src.MutableMessage(2).SetInt32(1, 9)
	m.Merge(src)
	if m.GetMessage(2) == nil || m.GetMessage(2).GetInt32(1) != 9 {
		t.Error("merging a set sub-message over present-nil should allocate it")
	}
}

func TestEqualEdgeCases(t *testing.T) {
	typ := scalarType()
	a, b := New(typ), New(typ)
	if !a.Equal(b) {
		t.Error("two empty messages should be equal")
	}
	a.SetInt32(1, 0)
	if a.Equal(b) {
		t.Error("present-with-zero vs absent should differ")
	}
	var nilMsg *Message
	if nilMsg.Equal(a) || a.Equal(nil) {
		t.Error("nil comparisons")
	}
	if !nilMsg.Equal(nil) {
		t.Error("nil == nil")
	}
	c, d := New(typ), New(typ)
	c.Unknown = []byte{1}
	if c.Equal(d) {
		t.Error("unknown bytes should affect equality")
	}
}

func TestClearAll(t *testing.T) {
	m := New(scalarType())
	m.SetInt32(1, 5)
	m.Unknown = []byte{1, 2}
	m.ClearAll()
	if m.Has(1) || m.Unknown != nil {
		t.Error("ClearAll incomplete")
	}
}

func TestIsInitialized(t *testing.T) {
	sub := mustMessage("Sub",
		&schema.Field{Name: "req", Number: 1, Kind: schema.KindInt32, Label: schema.LabelRequired})
	typ := mustMessage("M",
		&schema.Field{Name: "req", Number: 1, Kind: schema.KindInt32, Label: schema.LabelRequired},
		&schema.Field{Name: "sub", Number: 2, Kind: schema.KindMessage, Message: sub},
		&schema.Field{Name: "subs", Number: 3, Kind: schema.KindMessage, Message: sub, Label: schema.LabelRepeated},
	)
	m := New(typ)
	if m.IsInitialized() {
		t.Error("missing required field")
	}
	m.SetInt32(1, 1)
	if !m.IsInitialized() {
		t.Error("should be initialized (absent optional sub)")
	}
	m.MutableMessage(2)
	if m.IsInitialized() {
		t.Error("sub-message missing required field")
	}
	m.GetMessage(2).SetInt32(1, 1)
	if !m.IsInitialized() {
		t.Error("should be initialized")
	}
	m.AddMessage(3)
	if m.IsInitialized() {
		t.Error("repeated sub element missing required field")
	}
}

func TestMergeUnknown(t *testing.T) {
	typ := scalarType()
	a, b := New(typ), New(typ)
	a.Unknown = []byte{1}
	b.Unknown = []byte{2}
	a.Merge(b)
	if string(a.Unknown) != "\x01\x02" {
		t.Errorf("Unknown = %v", a.Unknown)
	}
}

func TestQuickScalarBitsRoundTrip(t *testing.T) {
	typ := scalarType()
	// Property: SetScalarBits/ScalarBits is the identity for any 64-bit
	// pattern on 64-bit kinds, and presence always follows a set.
	f := func(bits uint64) bool {
		m := New(typ)
		m.SetScalarBits(2, bits) // i64
		m.SetScalarBits(4, bits) // u64
		return m.ScalarBits(2) == bits && m.ScalarBits(4) == bits && m.Has(2) && m.Has(4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIntoEmptyEqualsClone(t *testing.T) {
	// Property: merging any message into an empty one yields an equal
	// message (and equals its clone).
	typ := scalarType()
	f := func(i32 int32, u64 uint64, b bool, s []byte) bool {
		m := New(typ)
		m.SetInt32(1, i32)
		m.SetUint64(4, u64)
		m.SetBool(5, b)
		m.SetBytes(9, s)
		empty := New(typ)
		empty.Merge(m)
		return m.Equal(empty) && m.Equal(m.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClearRestoresAbsence(t *testing.T) {
	typ := scalarType()
	f := func(bits uint64) bool {
		m := New(typ)
		m.SetScalarBits(2, bits)
		m.Clear(2)
		return !m.Has(2) && len(m.PresentFieldNumbers()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
