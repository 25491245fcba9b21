// Package schema defines proto2 message descriptors: the static description
// of message types, their fields, labels, and types that the rest of the
// system (software codec, layout generator, ADT generator, accelerator
// model, benchmark generators) is driven from.
//
// Descriptors correspond to what protoc derives from .proto files; package
// protoparse builds them from proto2 source and the benchmark generators
// build them programmatically.
package schema

import (
	"fmt"
	"sort"

	"protoacc/internal/pb/wire"
)

// Kind is a proto2 field type.
type Kind uint8

// Field kinds, mirroring the proto2 scalar types plus message-typed fields.
// Groups are deprecated and unsupported, matching the paper's scope.
const (
	KindInvalid Kind = iota
	KindDouble
	KindFloat
	KindInt32
	KindInt64
	KindUint32
	KindUint64
	KindSint32
	KindSint64
	KindFixed32
	KindFixed64
	KindSfixed32
	KindSfixed64
	KindBool
	KindEnum
	KindString
	KindBytes
	KindMessage
)

var kindNames = [...]string{
	KindInvalid:  "invalid",
	KindDouble:   "double",
	KindFloat:    "float",
	KindInt32:    "int32",
	KindInt64:    "int64",
	KindUint32:   "uint32",
	KindUint64:   "uint64",
	KindSint32:   "sint32",
	KindSint64:   "sint64",
	KindFixed32:  "fixed32",
	KindFixed64:  "fixed64",
	KindSfixed32: "sfixed32",
	KindSfixed64: "sfixed64",
	KindBool:     "bool",
	KindEnum:     "enum",
	KindString:   "string",
	KindBytes:    "bytes",
	KindMessage:  "message",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("schema.Kind(%d)", uint8(k))
}

// KindByName maps a proto2 scalar type name to its Kind. Message type names
// are resolved separately by the parser.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name && Kind(k) != KindInvalid && Kind(k) != KindMessage && Kind(k) != KindEnum {
			return Kind(k), true
		}
	}
	return KindInvalid, false
}

// WireType returns the wire type used for a single (non-packed) value of
// this kind.
func (k Kind) WireType() wire.Type {
	switch k {
	case KindDouble, KindFixed64, KindSfixed64:
		return wire.TypeFixed64
	case KindFloat, KindFixed32, KindSfixed32:
		return wire.TypeFixed32
	case KindString, KindBytes, KindMessage:
		return wire.TypeBytes
	default:
		return wire.TypeVarint
	}
}

// IsVarint reports whether values of this kind are varint-encoded on the
// wire.
func (k Kind) IsVarint() bool { return k.WireType() == wire.TypeVarint }

// IsZigZag reports whether values of this kind use zig-zag encoding.
func (k Kind) IsZigZag() bool { return k == KindSint32 || k == KindSint64 }

// FixedWireSize returns the on-wire size of a fixed-width value of this
// kind, or 0 for variable-width kinds.
func (k Kind) FixedWireSize() int {
	switch k.WireType() {
	case wire.TypeFixed32:
		return 4
	case wire.TypeFixed64:
		return 8
	default:
		return 0
	}
}

// The scalar value rules below are shared by every model that decodes or
// encodes values: the accelerator units and the CPU baselines. Package
// codec keeps its own copy as the independent reference the models are
// checked against.
//
// A value is held as its stored bits: the 64-bit pattern a dynamic message
// and an object slot hold. Signed 32-bit kinds (int32, sint32, sfixed32,
// enum) are stored sign-extended, float and double as IEEE-754 bits, bool
// as 0 or 1.

// AcceptsWireType reports whether a field of this kind decodes a value
// that arrives with wire type wt: its own wire type, or, for a repeated
// scalar field, the packed (length-delimited) form as well.
func (k Kind) AcceptsWireType(wt wire.Type, repeated bool) bool {
	natural := k.WireType()
	if wt == natural {
		return true
	}
	return repeated && natural != wire.TypeBytes && wt == wire.TypeBytes
}

// Stored returns the stored bits of a value of this kind from its wire
// value: the varint as read, or the fixed32 or fixed64 word.
func (k Kind) Stored(v uint64) uint64 {
	switch k {
	case KindSint32:
		return uint64(int64(wire.DecodeZigZag32(v)))
	case KindSint64:
		return uint64(wire.DecodeZigZag64(v))
	case KindInt32, KindEnum, KindSfixed32:
		return uint64(int64(int32(v)))
	case KindUint32:
		return uint64(uint32(v))
	case KindBool:
		if v != 0 {
			return 1
		}
		return 0
	default:
		return v
	}
}

// VarintValue returns the varint that encodes a value of this varint kind
// with the given stored bits: zig-zagged for sint32 and sint64, a negative
// int32 or enum sign-extended to ten bytes, uint32 truncated, bool 0 or 1.
// Fixed-width kinds are encoded by AppendValue without one.
func (k Kind) VarintValue(bits uint64) uint64 {
	switch k {
	case KindSint32:
		return wire.EncodeZigZag32(int32(bits))
	case KindSint64:
		return wire.EncodeZigZag64(int64(bits))
	case KindInt32, KindEnum:
		return uint64(int64(int32(bits)))
	case KindUint32:
		return uint64(uint32(bits))
	case KindBool:
		if bits != 0 {
			return 1
		}
		return 0
	default:
		return bits
	}
}

// AppendValue appends the wire bytes of a value of this scalar kind (the
// value only, no tag) to b.
func (k Kind) AppendValue(b []byte, bits uint64) []byte {
	switch k.WireType() {
	case wire.TypeFixed32:
		return wire.AppendFixed32(b, uint32(bits))
	case wire.TypeFixed64:
		return wire.AppendFixed64(b, bits)
	default:
		return wire.AppendVarint(b, k.VarintValue(bits))
	}
}

// ValueSize returns the number of bytes AppendValue appends.
func (k Kind) ValueSize(bits uint64) int {
	if n := k.FixedWireSize(); n > 0 {
		return n
	}
	return wire.SizeVarint(k.VarintValue(bits))
}

// PerfClass is the paper's Table 1 classification of field types into
// performance-similar groups.
type PerfClass uint8

// Table 1 performance classes.
const (
	ClassBytesLike   PerfClass = iota // bytes, string
	ClassVarintLike                   // {s,u}int{32,64}, int{32,64}, enum, bool
	ClassFloatLike                    // float
	ClassDoubleLike                   // double
	ClassFixed32Like                  // fixed32, sfixed32
	ClassFixed64Like                  // fixed64, sfixed64
	ClassMessage                      // sub-messages (not a Table 1 row; accounted via contained fields)
)

func (c PerfClass) String() string {
	switch c {
	case ClassBytesLike:
		return "bytes-like"
	case ClassVarintLike:
		return "varint-like"
	case ClassFloatLike:
		return "float-like"
	case ClassDoubleLike:
		return "double-like"
	case ClassFixed32Like:
		return "fixed32-like"
	case ClassFixed64Like:
		return "fixed64-like"
	case ClassMessage:
		return "message"
	default:
		return fmt.Sprintf("schema.PerfClass(%d)", uint8(c))
	}
}

// Class returns the Table 1 performance class for this kind.
func (k Kind) Class() PerfClass {
	switch k {
	case KindString, KindBytes:
		return ClassBytesLike
	case KindFloat:
		return ClassFloatLike
	case KindDouble:
		return ClassDoubleLike
	case KindFixed32, KindSfixed32:
		return ClassFixed32Like
	case KindFixed64, KindSfixed64:
		return ClassFixed64Like
	case KindMessage:
		return ClassMessage
	default:
		return ClassVarintLike
	}
}

// Label is a proto2 field cardinality qualifier.
type Label uint8

// proto2 labels.
const (
	LabelOptional Label = iota
	LabelRequired
	LabelRepeated
)

func (l Label) String() string {
	switch l {
	case LabelOptional:
		return "optional"
	case LabelRequired:
		return "required"
	case LabelRepeated:
		return "repeated"
	default:
		return fmt.Sprintf("schema.Label(%d)", uint8(l))
	}
}

// Enum describes a proto2 enum type. Enums behave as varint-like int32
// values everywhere in the system; the descriptor exists for name
// resolution and default-value parsing.
type Enum struct {
	Name   string
	Values map[string]int32
}

// Field describes one field of a message type.
type Field struct {
	Name    string
	Number  int32
	Kind    Kind
	Label   Label
	Packed  bool     // repeated scalar with [packed=true]
	Message *Message // element type for KindMessage fields
	Enum    *Enum    // type for KindEnum fields (may be nil for synthetic schemas)

	// Default is the proto2 default value for absent optional scalar
	// fields, stored as a raw 64-bit pattern: two's complement
	// (sign-extended) for signed integer kinds, IEEE-754 bits for
	// float/double, 0/1 for bool. String/bytes defaults live in
	// DefaultBytes.
	Default      uint64
	DefaultBytes []byte
}

// Repeated reports whether the field is a vector.
func (f *Field) Repeated() bool { return f.Label == LabelRepeated }

// WireType returns the wire type this field's values appear with on the
// wire: the packed encoding uses a single length-delimited value.
func (f *Field) WireType() wire.Type {
	if f.Packed {
		return wire.TypeBytes
	}
	return f.Kind.WireType()
}

// Validate checks field-level invariants.
func (f *Field) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("schema: field %d has no name", f.Number)
	}
	if f.Number <= 0 || f.Number > wire.MaxFieldNumber {
		return fmt.Errorf("schema: field %s: number %d out of range", f.Name, f.Number)
	}
	if f.Number >= wire.FirstReservedFieldNumber && f.Number <= wire.LastReservedFieldNumber {
		return fmt.Errorf("schema: field %s: number %d is reserved", f.Name, f.Number)
	}
	if f.Kind == KindInvalid || f.Kind > KindMessage {
		return fmt.Errorf("schema: field %s: invalid kind", f.Name)
	}
	if f.Kind == KindMessage && f.Message == nil {
		return fmt.Errorf("schema: field %s: message kind with nil type", f.Name)
	}
	if f.Packed {
		if !f.Repeated() {
			return fmt.Errorf("schema: field %s: packed on non-repeated field", f.Name)
		}
		if wt := f.Kind.WireType(); wt == wire.TypeBytes {
			return fmt.Errorf("schema: field %s: packed on length-delimited kind %v", f.Name, f.Kind)
		}
	}
	return nil
}

// Message describes a message type: an ordered collection of fields.
type Message struct {
	Name   string
	Fields []*Field // sorted by field number
}

// NewMessage constructs a message descriptor, sorting fields by number and
// validating invariants (unique numbers, valid fields).
func NewMessage(name string, fields ...*Field) (*Message, error) {
	m := &Message{Name: name}
	if err := m.SetFields(fields); err != nil {
		return nil, err
	}
	return m, nil
}

// SetFields replaces the message's field set. It exists so recursive types
// can be built: create the Message, then set fields that refer back to it.
func (m *Message) SetFields(fields []*Field) error {
	sorted := make([]*Field, len(fields))
	copy(sorted, fields)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Number < sorted[j].Number })
	for i, f := range sorted {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		if i > 0 && sorted[i-1].Number == f.Number {
			return fmt.Errorf("schema: %s: duplicate field number %d", m.Name, f.Number)
		}
	}
	m.Fields = sorted
	return nil
}

// FieldIndex returns the index in Fields of the field numbered n, or -1.
// It is the one number-to-field lookup: everything parallel to Fields
// (dynamic messages' value slots, layout.Layout.Fields) is indexed by it.
// A densely numbered type resolves with one comparison; any other by a
// binary search over the sorted Fields.
func (m *Message) FieldIndex(n int32) int {
	fs := m.Fields
	if len(fs) == 0 {
		return -1
	}
	if i := int(n - fs[0].Number); i >= 0 && i < len(fs) && fs[i].Number == n {
		return i
	}
	lo, hi := 0, len(fs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fs[mid].Number < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fs) && fs[lo].Number == n {
		return lo
	}
	return -1
}

// FieldByNumber returns the field with the given number, or nil.
func (m *Message) FieldByNumber(n int32) *Field {
	if i := m.FieldIndex(n); i >= 0 {
		return m.Fields[i]
	}
	return nil
}

// FieldByName returns the field with the given name, or nil.
func (m *Message) FieldByName(name string) *Field {
	for _, f := range m.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MinFieldNumber returns the smallest defined field number (0 if empty).
// The accelerator indexes ADTs and sparse hasbits relative to this value
// (§4.2 of the paper).
func (m *Message) MinFieldNumber() int32 {
	if len(m.Fields) == 0 {
		return 0
	}
	return m.Fields[0].Number
}

// MaxFieldNumber returns the largest defined field number (0 if empty).
func (m *Message) MaxFieldNumber() int32 {
	if len(m.Fields) == 0 {
		return 0
	}
	return m.Fields[len(m.Fields)-1].Number
}

// FieldNumberRange returns max-min+1, the number of ADT entry slots and
// sparse hasbits bits the type requires (0 if empty).
func (m *Message) FieldNumberRange() int32 {
	if len(m.Fields) == 0 {
		return 0
	}
	return m.MaxFieldNumber() - m.MinFieldNumber() + 1
}

// DefinitionDensity is the static variant of the paper's §3.7 field-number
// usage density: defined fields divided by the field number range. The
// dynamic (per-instance) density is computed by the fleet sampler.
func (m *Message) DefinitionDensity() float64 {
	r := m.FieldNumberRange()
	if r == 0 {
		return 0
	}
	return float64(len(m.Fields)) / float64(r)
}

// MaxDepth returns the deepest nesting level reachable from m, counting m
// itself as depth 1. Recursive types return limit. The accelerator sizes
// its metadata stacks from this (§3.8).
func (m *Message) MaxDepth(limit int) int {
	return m.depth(limit, make(map[*Message]bool))
}

func (m *Message) depth(limit int, onPath map[*Message]bool) int {
	if limit <= 0 || onPath[m] {
		return limit
	}
	onPath[m] = true
	defer delete(onPath, m)
	d := 1
	for _, f := range m.Fields {
		if f.Kind == KindMessage {
			if sub := 1 + f.Message.depth(limit-1, onPath); sub > d {
				d = sub
			}
		}
	}
	return d
}

// Walk visits m and every message type reachable from it exactly once, in
// a deterministic (pre-order, field-number) order.
func (m *Message) Walk(visit func(*Message)) {
	seen := make(map[*Message]bool)
	var rec func(*Message)
	rec = func(msg *Message) {
		if seen[msg] {
			return
		}
		seen[msg] = true
		visit(msg)
		for _, f := range msg.Fields {
			if f.Kind == KindMessage {
				rec(f.Message)
			}
		}
	}
	rec(m)
}

// File is a parsed .proto file: a named set of top-level message types,
// what protodb records per file (§3.1.3).
type File struct {
	Path     string
	Package  string
	Syntax   string // "proto2"
	Messages []*Message
}

// MessageByName returns the top-level message with the given name, or nil.
func (f *File) MessageByName(name string) *Message {
	for _, m := range f.Messages {
		if m.Name == name {
			return m
		}
	}
	return nil
}
