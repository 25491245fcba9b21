// Package dynamic provides the host-side in-memory representation of proto2
// messages: the Go analogue of the C++ objects protoc generates (§2.1.3 of
// the paper). Like those objects, a Message has one fixed slot per schema
// field, parallel to the type's Fields and found through
// schema.Message.FieldIndex, with a hasbit per slot. Scalars are stored
// inline as 64-bit patterns, strings and bytes as byte slices and
// sub-messages as pointers; a repeated field's elements sit behind one
// pointer. The slots are allocated together when the first field is set.
//
// Accessors panic on schema misuse (wrong kind, unknown field number): such
// errors are programming bugs, matching the behaviour of generated code.
//
// None of these panics is reachable from wire input. The only decoder that
// drives these accessors from untrusted bytes is codec.Unmarshal, which
// resolves each tag against the schema first (unknown or wire-type-
// mismatched fields are preserved as Unknown bytes, never dispatched) and
// then selects the accessor from the resolved field's own kind and label —
// so field(), checkKind, checkSingular/checkRepeated, and the scalar-kind
// guards hold by construction. SetMessage and Merge, whose type-identity
// panics a decoder could not guarantee, are not called by the codec: it
// builds sub-messages with AddMessage/MutableMessage, which derive the
// element type from the field descriptor. FuzzDeserialize in internal/core
// asserts this empirically on arbitrary inputs.
package dynamic

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"protoacc/internal/pb/schema"
)

// slot holds one field's value; a Message's i'th slot belongs to its
// type's Fields[i]. Singular values live inline and a repeated field's
// elements sit behind rep. Only the member the field's kind uses is ever
// set; the others stay zero.
type slot struct {
	has  bool      // the field's hasbit
	bits uint64    // singular numeric/bool/enum bit pattern
	blob []byte    // singular string/bytes payload
	msg  *Message  // singular sub-message; nil with has set is present-but-nil
	rep  *repeated // repeated elements, allocated by the first Add
}

// repeated holds the elements of one repeated field.
type repeated struct {
	scalars []uint64   // numeric/bool/enum bit patterns
	blobs   [][]byte   // string/bytes payloads
	msgs    []*Message // sub-messages
}

// Message is a dynamically-typed proto2 message instance.
type Message struct {
	typ   *schema.Message
	slots []slot // parallel to typ.Fields; nil until a field is first set

	// Unknown holds wire-format bytes of fields that were not in the
	// schema when the message was deserialized; proto2 preserves them
	// across a deserialize/serialize round trip.
	Unknown []byte
}

// New creates an empty message of the given type.
func New(t *schema.Message) *Message {
	if t == nil {
		panic("dynamic: nil message type")
	}
	return &Message{typ: t}
}

// Type returns the message's descriptor.
func (m *Message) Type() *schema.Message { return m.typ }

// field returns the slot index and descriptor for num, panicking if
// undefined.
func (m *Message) field(num int32) (int, *schema.Field) {
	i := m.typ.FieldIndex(num)
	if i < 0 {
		panic(fmt.Sprintf("dynamic: %s has no field %d", m.typ.Name, num))
	}
	return i, m.typ.Fields[i]
}

func (m *Message) checkKind(f *schema.Field, want ...schema.Kind) {
	for _, k := range want {
		if f.Kind == k {
			return
		}
	}
	// Format a copy so want does not escape: callers' argument slices
	// then stay on the stack.
	panic(fmt.Sprintf("dynamic: %s.%s is %v, not %v", m.typ.Name, f.Name, f.Kind, append([]schema.Kind(nil), want...)))
}

func (m *Message) checkScalar(f *schema.Field) {
	if c := f.Kind.Class(); c == schema.ClassBytesLike || c == schema.ClassMessage {
		panic(fmt.Sprintf("dynamic: %s.%s is not scalar", m.typ.Name, f.Name))
	}
}

func (m *Message) checkSingular(f *schema.Field) {
	if f.Repeated() {
		panic(fmt.Sprintf("dynamic: %s.%s is repeated; use Add/Index accessors", m.typ.Name, f.Name))
	}
}

func (m *Message) checkRepeated(f *schema.Field) {
	if !f.Repeated() {
		panic(fmt.Sprintf("dynamic: %s.%s is singular; use Set/Get accessors", m.typ.Name, f.Name))
	}
}

// present reports slot i's hasbit.
func (m *Message) present(i int) bool { return m.slots != nil && m.slots[i].has }

// set returns slot i for writing, marking the field present. The slots are
// allocated, all at once, by the first write.
func (m *Message) set(i int) *slot {
	if m.slots == nil {
		m.slots = make([]slot, len(m.typ.Fields))
	}
	s := &m.slots[i]
	s.has = true
	return s
}

// elems returns slot i's repeated elements, or nil if the field is absent.
func (m *Message) elems(i int) *repeated {
	if !m.present(i) {
		return nil
	}
	return m.slots[i].rep
}

// appendTo returns slot i's repeated elements for appending, marking the
// field present.
func (m *Message) appendTo(i int) *repeated {
	s := m.set(i)
	if s.rep == nil {
		s.rep = new(repeated)
	}
	return s.rep
}

// Has reports whether the field is present (set). For repeated fields it
// reports whether at least one element exists.
func (m *Message) Has(num int32) bool {
	i, _ := m.field(num)
	return m.present(i)
}

// Clear removes the field's value and presence bit.
func (m *Message) Clear(num int32) {
	i, _ := m.field(num)
	if m.slots != nil {
		m.slots[i] = slot{}
	}
}

// ClearAll resets the message to empty (the protobuf Clear operation).
func (m *Message) ClearAll() {
	clear(m.slots)
	m.Unknown = nil
}

// PresentFieldNumbers returns the numbers of all present fields in
// ascending order.
func (m *Message) PresentFieldNumbers() []int32 {
	var nums []int32
	for i := range m.slots {
		if m.slots[i].has {
			nums = append(nums, m.typ.Fields[i].Number)
		}
	}
	return nums
}

// --- scalar accessors (bit-pattern level) ---

// SetScalarBits sets a singular numeric/bool/enum field from its raw
// 64-bit pattern (sign-extended two's complement for signed kinds,
// IEEE-754 bits for floats, 0/1 for bool).
func (m *Message) SetScalarBits(num int32, bits uint64) {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkScalar(f)
	m.set(i).bits = bits
}

// ScalarBits returns the raw bit pattern of a singular scalar field, or its
// default if absent.
func (m *Message) ScalarBits(num int32) uint64 {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkScalar(f)
	if m.present(i) {
		return m.slots[i].bits
	}
	return f.Default
}

// AddScalarBits appends to a repeated numeric/bool/enum field.
func (m *Message) AddScalarBits(num int32, bits uint64) {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkScalar(f)
	r := m.appendTo(i)
	r.scalars = append(r.scalars, bits)
}

// RepeatedScalarBits returns the elements of a repeated scalar field. The
// slice aliases internal storage; treat it as read-only.
func (m *Message) RepeatedScalarBits(num int32) []uint64 {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkScalar(f)
	if r := m.elems(i); r != nil {
		return r.scalars
	}
	return nil
}

// --- typed convenience accessors ---

// SetInt32 sets an int32/sint32/sfixed32/enum field.
func (m *Message) SetInt32(num int32, v int32) { m.SetScalarBits(num, uint64(int64(v))) }

// GetInt32 returns an int32-like field's value or default.
func (m *Message) GetInt32(num int32) int32 { return int32(m.ScalarBits(num)) }

// SetInt64 sets an int64/sint64/sfixed64 field.
func (m *Message) SetInt64(num int32, v int64) { m.SetScalarBits(num, uint64(v)) }

// GetInt64 returns an int64-like field's value or default.
func (m *Message) GetInt64(num int32) int64 { return int64(m.ScalarBits(num)) }

// SetUint32 sets a uint32/fixed32 field.
func (m *Message) SetUint32(num int32, v uint32) { m.SetScalarBits(num, uint64(v)) }

// GetUint32 returns a uint32-like field's value or default.
func (m *Message) GetUint32(num int32) uint32 { return uint32(m.ScalarBits(num)) }

// SetUint64 sets a uint64/fixed64 field.
func (m *Message) SetUint64(num int32, v uint64) { m.SetScalarBits(num, v) }

// GetUint64 returns a uint64-like field's value or default.
func (m *Message) GetUint64(num int32) uint64 { return m.ScalarBits(num) }

// SetBool sets a bool field.
func (m *Message) SetBool(num int32, v bool) {
	var b uint64
	if v {
		b = 1
	}
	m.SetScalarBits(num, b)
}

// GetBool returns a bool field's value or default.
func (m *Message) GetBool(num int32) bool { return m.ScalarBits(num) != 0 }

// SetFloat sets a float field.
func (m *Message) SetFloat(num int32, v float32) {
	m.SetScalarBits(num, uint64(math.Float32bits(v)))
}

// GetFloat returns a float field's value or default.
func (m *Message) GetFloat(num int32) float32 {
	return math.Float32frombits(uint32(m.ScalarBits(num)))
}

// SetDouble sets a double field.
func (m *Message) SetDouble(num int32, v float64) {
	m.SetScalarBits(num, math.Float64bits(v))
}

// GetDouble returns a double field's value or default.
func (m *Message) GetDouble(num int32) float64 {
	return math.Float64frombits(m.ScalarBits(num))
}

// --- string/bytes accessors ---

// SetBytes sets a singular string/bytes field. The slice is not copied.
func (m *Message) SetBytes(num int32, v []byte) {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkKind(f, schema.KindString, schema.KindBytes)
	m.set(i).blob = v
}

// GetBytes returns a singular string/bytes field's value or default.
func (m *Message) GetBytes(num int32) []byte {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkKind(f, schema.KindString, schema.KindBytes)
	if m.present(i) {
		return m.slots[i].blob
	}
	return f.DefaultBytes
}

// SetString sets a singular string field.
func (m *Message) SetString(num int32, v string) { m.SetBytes(num, []byte(v)) }

// GetString returns a singular string field's value or default.
func (m *Message) GetString(num int32) string { return string(m.GetBytes(num)) }

// AddBytes appends to a repeated string/bytes field.
func (m *Message) AddBytes(num int32, v []byte) {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkKind(f, schema.KindString, schema.KindBytes)
	r := m.appendTo(i)
	r.blobs = append(r.blobs, v)
}

// AddString appends to a repeated string field.
func (m *Message) AddString(num int32, v string) { m.AddBytes(num, []byte(v)) }

// RepeatedBytes returns the elements of a repeated string/bytes field.
func (m *Message) RepeatedBytes(num int32) [][]byte {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkKind(f, schema.KindString, schema.KindBytes)
	if r := m.elems(i); r != nil {
		return r.blobs
	}
	return nil
}

// --- sub-message accessors ---

// SetMessage sets a singular message field. A nil v marks the field
// present with no value, the state an object whose hasbit is set over a
// null pointer reads back as.
func (m *Message) SetMessage(num int32, v *Message) {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkKind(f, schema.KindMessage)
	if v != nil && v.typ != f.Message {
		panic(fmt.Sprintf("dynamic: %s.%s wants %s, got %s", m.typ.Name, f.Name, f.Message.Name, v.typ.Name))
	}
	m.set(i).msg = v
}

// GetMessage returns a singular message field's value, or nil if absent.
func (m *Message) GetMessage(num int32) *Message {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkKind(f, schema.KindMessage)
	if m.present(i) {
		return m.slots[i].msg
	}
	return nil
}

// MutableMessage returns the singular sub-message, allocating it if absent
// (the mutable_foo() accessor of C++ generated code).
func (m *Message) MutableMessage(num int32) *Message {
	i, f := m.field(num)
	m.checkSingular(f)
	m.checkKind(f, schema.KindMessage)
	s := m.set(i)
	if s.msg == nil {
		s.msg = New(f.Message)
	}
	return s.msg
}

// AddMessage appends a new empty element to a repeated message field and
// returns it.
func (m *Message) AddMessage(num int32) *Message {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkKind(f, schema.KindMessage)
	sub := New(f.Message)
	r := m.appendTo(i)
	r.msgs = append(r.msgs, sub)
	return sub
}

// RepeatedMessages returns the elements of a repeated message field.
func (m *Message) RepeatedMessages(num int32) []*Message {
	i, f := m.field(num)
	m.checkRepeated(f)
	m.checkKind(f, schema.KindMessage)
	if r := m.elems(i); r != nil {
		return r.msgs
	}
	return nil
}

// Len returns the number of elements in a repeated field (0 if absent).
func (m *Message) Len(num int32) int {
	i, f := m.field(num)
	m.checkRepeated(f)
	r := m.elems(i)
	switch {
	case r == nil:
		return 0
	case f.Kind == schema.KindMessage:
		return len(r.msgs)
	case f.Kind.Class() == schema.ClassBytesLike:
		return len(r.blobs)
	default:
		return len(r.scalars)
	}
}

// --- message-level operations (the paper's Figure 2 "other" operators) ---

// Equal reports deep equality of two messages of the same type, comparing
// presence, values, element order, and unknown bytes. A sub-message field
// present with a nil value differs from an absent one.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.typ != o.typ || !bytes.Equal(m.Unknown, o.Unknown) {
		return false
	}
	for i := range m.typ.Fields {
		if m.present(i) != o.present(i) {
			return false
		}
		if m.present(i) && !m.slots[i].equal(&o.slots[i]) {
			return false
		}
	}
	return true
}

// equal compares two present slots of one field member by member; the
// members the field's kind does not use are zero in both.
func (s *slot) equal(o *slot) bool {
	return s.bits == o.bits && bytes.Equal(s.blob, o.blob) && s.msg.Equal(o.msg) && s.rep.equal(o.rep)
}

func (r *repeated) equal(o *repeated) bool {
	if r == nil || o == nil {
		return r == o
	}
	return slices.Equal(r.scalars, o.scalars) && slices.EqualFunc(r.blobs, o.blobs, bytes.Equal) &&
		slices.EqualFunc(r.msgs, o.msgs, (*Message).Equal)
}

// Clone returns a deep copy of m, or nil for a nil m.
func (m *Message) Clone() *Message {
	if m == nil {
		return nil
	}
	c := New(m.typ)
	c.Merge(m)
	return c
}

// Merge merges src into m with proto2 semantics: singular scalars and
// strings are overwritten if present in src, singular sub-messages are
// merged recursively, repeated fields are concatenated. A sub-message
// present in src with a nil value marks the field present in m and
// leaves m's value as it was.
func (m *Message) Merge(src *Message) {
	if src.typ != m.typ {
		panic(fmt.Sprintf("dynamic: cannot merge %s into %s", src.typ.Name, m.typ.Name))
	}
	for i := range src.slots {
		s := &src.slots[i]
		if !s.has {
			continue
		}
		f := m.typ.Fields[i]
		switch {
		case f.Repeated():
			m.appendTo(i).appendCopies(s.rep)
		case f.Kind == schema.KindMessage:
			d := m.set(i)
			if s.msg == nil {
				continue
			}
			if d.msg == nil {
				d.msg = New(f.Message)
			}
			d.msg.Merge(s.msg)
		case f.Kind.Class() == schema.ClassBytesLike:
			m.set(i).blob = cloneBytes(s.blob)
		default:
			m.set(i).bits = s.bits
		}
	}
	m.Unknown = append(m.Unknown, src.Unknown...)
}

// appendCopies appends deep copies of o's elements to r.
func (r *repeated) appendCopies(o *repeated) {
	r.scalars = append(r.scalars, o.scalars...)
	for _, b := range o.blobs {
		r.blobs = append(r.blobs, cloneBytes(b))
	}
	for _, s := range o.msgs {
		r.msgs = append(r.msgs, s.Clone())
	}
}

func cloneBytes(b []byte) []byte { return append([]byte(nil), b...) }

// IsInitialized reports whether all required fields are present,
// recursively (proto2 required-field semantics).
func (m *Message) IsInitialized() bool {
	for _, f := range m.typ.Fields {
		if f.Label == schema.LabelRequired && !m.Has(f.Number) {
			return false
		}
		if f.Kind != schema.KindMessage {
			continue
		}
		if f.Repeated() {
			for _, s := range m.RepeatedMessages(f.Number) {
				if !s.IsInitialized() {
					return false
				}
			}
		} else if s := m.GetMessage(f.Number); s != nil && !s.IsInitialized() {
			return false
		}
	}
	return true
}
