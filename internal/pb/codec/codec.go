// Package codec implements the software serializer and deserializer between
// dynamic messages and the protobuf wire format. It is the reference
// implementation: the accelerator model's output is cross-checked against it
// byte-for-byte (serialization) and value-for-value (deserialization).
//
// Proto2 semantics are implemented: ascending-field-number output, a
// separate byte-size pass before serialization (the C++ library's ByteSize,
// which Figure 2 of the paper attributes 6% of protobuf cycles to), packed
// and unpacked repeated encodings (decoders accept either form for scalar
// fields), last-one-wins for singular scalars, recursive merge for repeated
// occurrences of a singular sub-message field, and unknown-field
// preservation.
package codec

import (
	"errors"
	"fmt"

	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// Errors returned by Unmarshal.
var (
	ErrTooDeep   = errors.New("codec: message nesting exceeds limit")
	ErrTrailing  = errors.New("codec: trailing garbage after group")
	ErrBadPacked = errors.New("codec: malformed packed field")
)

// MaxNestingDepth bounds decoder recursion. The paper observes (§3.8) that
// the maximum message depth seen fleet-wide is below 100; we use the same
// bound.
const MaxNestingDepth = 100

// Size returns the serialized size of m in bytes (the ByteSize operation).
func Size(m *dynamic.Message) int {
	n := 0
	for _, f := range m.Type().Fields {
		if !m.Has(f.Number) {
			continue
		}
		n += fieldSize(m, f)
	}
	return n + len(m.Unknown)
}

func scalarValueSize(f *schema.Field, bits uint64) int {
	switch {
	case f.Kind.IsZigZag():
		if f.Kind == schema.KindSint32 {
			return wire.SizeVarint(wire.EncodeZigZag32(int32(bits)))
		}
		return wire.SizeVarint(wire.EncodeZigZag64(int64(bits)))
	case f.Kind == schema.KindFloat || f.Kind == schema.KindFixed32 || f.Kind == schema.KindSfixed32:
		return 4
	case f.Kind == schema.KindDouble || f.Kind == schema.KindFixed64 || f.Kind == schema.KindSfixed64:
		return 8
	case f.Kind == schema.KindUint32 || f.Kind == schema.KindFixed32:
		return wire.SizeVarint(uint64(uint32(bits)))
	case f.Kind == schema.KindInt32 || f.Kind == schema.KindEnum:
		// Negative int32 values are sign-extended to 10 bytes on the wire.
		return wire.SizeVarint(uint64(int64(int32(bits))))
	case f.Kind == schema.KindBool:
		return 1
	default:
		return wire.SizeVarint(bits)
	}
}

func fieldSize(m *dynamic.Message, f *schema.Field) int {
	tag := wire.SizeTag(f.Number)
	switch {
	case f.Kind == schema.KindMessage:
		if f.Repeated() {
			n := 0
			for _, s := range m.RepeatedMessages(f.Number) {
				n += tag + wire.SizeBytes(Size(s))
			}
			return n
		}
		sub := m.GetMessage(f.Number)
		if sub == nil {
			return 0
		}
		return tag + wire.SizeBytes(Size(sub))
	case f.Kind.Class() == schema.ClassBytesLike:
		if f.Repeated() {
			n := 0
			for _, b := range m.RepeatedBytes(f.Number) {
				n += tag + wire.SizeBytes(len(b))
			}
			return n
		}
		return tag + wire.SizeBytes(len(m.GetBytes(f.Number)))
	case f.Repeated():
		vals := m.RepeatedScalarBits(f.Number)
		body := 0
		for _, v := range vals {
			body += scalarValueSize(f, v)
		}
		if f.Packed {
			return tag + wire.SizeBytes(body)
		}
		return tag*len(vals) + body
	default:
		return tag + scalarValueSize(f, m.ScalarBits(f.Number))
	}
}

// Marshal serializes m to the wire format.
func Marshal(m *dynamic.Message) ([]byte, error) {
	return MarshalAppend(make([]byte, 0, Size(m)), m)
}

// MarshalAppend serializes m, appending to b.
func MarshalAppend(b []byte, m *dynamic.Message) ([]byte, error) {
	for _, f := range m.Type().Fields {
		if !m.Has(f.Number) {
			continue
		}
		var err error
		b, err = appendField(b, m, f)
		if err != nil {
			return nil, err
		}
	}
	return append(b, m.Unknown...), nil
}

func appendScalarValue(b []byte, f *schema.Field, bits uint64) []byte {
	switch f.Kind {
	case schema.KindSint32:
		return wire.AppendVarint(b, wire.EncodeZigZag32(int32(bits)))
	case schema.KindSint64:
		return wire.AppendVarint(b, wire.EncodeZigZag64(int64(bits)))
	case schema.KindFloat, schema.KindFixed32, schema.KindSfixed32:
		return wire.AppendFixed32(b, uint32(bits))
	case schema.KindDouble, schema.KindFixed64, schema.KindSfixed64:
		return wire.AppendFixed64(b, bits)
	case schema.KindUint32:
		return wire.AppendVarint(b, uint64(uint32(bits)))
	case schema.KindInt32, schema.KindEnum:
		return wire.AppendVarint(b, uint64(int64(int32(bits))))
	case schema.KindBool:
		if bits != 0 {
			return append(b, 1)
		}
		return append(b, 0)
	default: // int64, uint64
		return wire.AppendVarint(b, bits)
	}
}

func appendField(b []byte, m *dynamic.Message, f *schema.Field) ([]byte, error) {
	switch {
	case f.Kind == schema.KindMessage:
		if !f.Repeated() {
			return appendMessage(b, f.Number, m.GetMessage(f.Number))
		}
		for _, s := range m.RepeatedMessages(f.Number) {
			var err error
			b, err = appendMessage(b, f.Number, s)
			if err != nil {
				return nil, err
			}
		}
		return b, nil
	case f.Kind.Class() == schema.ClassBytesLike:
		if !f.Repeated() {
			b = wire.AppendTag(b, f.Number, wire.TypeBytes)
			return wire.AppendBytes(b, m.GetBytes(f.Number)), nil
		}
		for _, v := range m.RepeatedBytes(f.Number) {
			b = wire.AppendTag(b, f.Number, wire.TypeBytes)
			b = wire.AppendBytes(b, v)
		}
		return b, nil
	case f.Repeated():
		vals := m.RepeatedScalarBits(f.Number)
		if f.Packed {
			body := 0
			for _, v := range vals {
				body += scalarValueSize(f, v)
			}
			b = wire.AppendTag(b, f.Number, wire.TypeBytes)
			b = wire.AppendVarint(b, uint64(body))
			for _, v := range vals {
				b = appendScalarValue(b, f, v)
			}
			return b, nil
		}
		for _, v := range vals {
			b = wire.AppendTag(b, f.Number, f.Kind.WireType())
			b = appendScalarValue(b, f, v)
		}
		return b, nil
	default:
		b = wire.AppendTag(b, f.Number, f.Kind.WireType())
		return appendScalarValue(b, f, m.ScalarBits(f.Number)), nil
	}
}

// appendMessage appends sub-message s as field num. A nil s (present but
// unset) writes no bytes.
func appendMessage(b []byte, num int32, s *dynamic.Message) ([]byte, error) {
	if s == nil {
		return b, nil
	}
	b = wire.AppendTag(b, num, wire.TypeBytes)
	b = wire.AppendVarint(b, uint64(Size(s)))
	return MarshalAppend(b, s)
}

// Unmarshal deserializes wire bytes into a fresh message of type t.
func Unmarshal(t *schema.Message, b []byte) (*dynamic.Message, error) {
	m := dynamic.New(t)
	if err := UnmarshalInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto deserializes wire bytes into m, merging with any existing
// contents (proto2 MergeFromCodedStream semantics).
func UnmarshalInto(m *dynamic.Message, b []byte) error {
	return unmarshal(m, b, MaxNestingDepth)
}

func unmarshal(m *dynamic.Message, b []byte, depth int) error {
	if depth <= 0 {
		return ErrTooDeep
	}
	t := m.Type()
	for len(b) > 0 {
		num, wt, n, err := wire.ReadTag(b)
		if err != nil {
			return fmt.Errorf("codec: %s: %w", t.Name, err)
		}
		f := t.FieldByNumber(num)
		if f == nil || !compatibleWireType(f, wt) {
			// Unknown (or wire-type-mismatched) field: preserve raw bytes.
			vn, err := wire.SkipValue(b[n:], num, wt)
			if err != nil {
				return fmt.Errorf("codec: %s: field %d: %w", t.Name, num, err)
			}
			m.Unknown = append(m.Unknown, b[:n+vn]...)
			b = b[n+vn:]
			continue
		}
		b = b[n:]
		b, err = readField(m, f, wt, b, depth)
		if err != nil {
			return fmt.Errorf("codec: %s.%s: %w", t.Name, f.Name, err)
		}
	}
	return nil
}

// compatibleWireType reports whether wt is an acceptable encoding for f:
// the field's natural wire type, or the packed/unpacked alternative for
// repeated scalars.
func compatibleWireType(f *schema.Field, wt wire.Type) bool {
	natural := f.Kind.WireType()
	if wt == natural {
		return true
	}
	// Repeated scalar fields accept the length-delimited (packed) form
	// regardless of the packed option, and vice versa.
	if f.Repeated() && f.Kind != schema.KindMessage && f.Kind.Class() != schema.ClassBytesLike {
		return wt == wire.TypeBytes || wt == natural
	}
	return false
}

func decodeScalar(f *schema.Field, b []byte) (bits uint64, n int, err error) {
	switch f.Kind.WireType() {
	case wire.TypeFixed32:
		v, n, err := wire.ReadFixed32(b)
		if f.Kind == schema.KindSfixed32 {
			// Signed 32-bit kinds are stored sign-extended.
			return uint64(int64(int32(v))), n, err
		}
		return uint64(v), n, err
	case wire.TypeFixed64:
		return wire.ReadFixed64(b)
	default:
		v, n, err := wire.ReadVarint(b)
		if err != nil {
			return 0, 0, err
		}
		switch f.Kind {
		case schema.KindSint32:
			return uint64(int64(wire.DecodeZigZag32(v))), n, nil
		case schema.KindSint64:
			return uint64(wire.DecodeZigZag64(v)), n, nil
		case schema.KindInt32, schema.KindEnum:
			return uint64(int64(int32(v))), n, nil
		case schema.KindUint32:
			return uint64(uint32(v)), n, nil
		case schema.KindBool:
			if v != 0 {
				return 1, n, nil
			}
			return 0, n, nil
		default:
			return v, n, nil
		}
	}
}

func readField(m *dynamic.Message, f *schema.Field, wt wire.Type, b []byte, depth int) ([]byte, error) {
	switch {
	case f.Kind == schema.KindMessage:
		body, n, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		var sub *dynamic.Message
		if f.Repeated() {
			sub = m.AddMessage(f.Number)
		} else {
			// Repeated occurrences of a singular sub-message merge.
			sub = m.MutableMessage(f.Number)
		}
		if err := unmarshal(sub, body, depth-1); err != nil {
			return nil, err
		}
		return b[n:], nil
	case f.Kind.Class() == schema.ClassBytesLike:
		body, n, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		val := append([]byte(nil), body...)
		if f.Repeated() {
			m.AddBytes(f.Number, val)
		} else {
			m.SetBytes(f.Number, val)
		}
		return b[n:], nil
	case f.Repeated() && wt == wire.TypeBytes:
		// Packed encoding of a repeated scalar.
		body, n, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		for len(body) > 0 {
			bits, vn, err := decodeScalar(f, body)
			if err != nil {
				return nil, ErrBadPacked
			}
			m.AddScalarBits(f.Number, bits)
			body = body[vn:]
		}
		return b[n:], nil
	default:
		bits, n, err := decodeScalar(f, b)
		if err != nil {
			return nil, err
		}
		if f.Repeated() {
			m.AddScalarBits(f.Number, bits)
		} else {
			m.SetScalarBits(f.Number, bits)
		}
		return b[n:], nil
	}
}

// RoundTripEqual is a test/validation helper: it serializes m, deserializes
// the result, and reports whether the round trip preserves equality.
func RoundTripEqual(m *dynamic.Message) (bool, error) {
	b, err := Marshal(m)
	if err != nil {
		return false, err
	}
	got, err := Unmarshal(m.Type(), b)
	if err != nil {
		return false, err
	}
	return m.Equal(got), nil
}
