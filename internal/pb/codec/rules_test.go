package codec

import (
	"bytes"
	"math"
	"testing"

	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// ruleValues are the edge values each scalar rule is pinned at, as 64-bit
// patterns: zero, one and minus one, the int32 and int64 bounds (signed
// values sign-extended), 2^32-1, 2^63, the uint64 maximum, a bool of 2,
// and NaN and -0 as float and double bits.
var ruleValues = []uint64{
	0, 1, bitsOf(-1),
	bitsOf(math.MinInt32), bitsOf(math.MaxInt32),
	bitsOf(math.MinInt64), bitsOf(math.MaxInt64),
	math.MaxUint32, 1 << 63, math.MaxUint64,
	2,
	uint64(math.Float32bits(float32(math.NaN()))), uint64(math.Float32bits(float32(math.Copysign(0, -1)))),
	math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1)),
}

func bitsOf(v int64) uint64 { return uint64(v) }

// TestScalarRulesMatchReference pins the scalar value rules the models
// share (schema.Kind's AcceptsWireType, Stored, AppendValue and
// ValueSize) to this package's own copies, kind by kind, at edge values
// the random differential tests reach only by chance.
func TestScalarRulesMatchReference(t *testing.T) {
	for k := schema.KindDouble; k <= schema.KindMessage; k++ {
		for _, repeated := range []bool{false, true} {
			f := &schema.Field{Name: "f", Number: 1, Kind: k}
			if repeated {
				f.Label = schema.LabelRepeated
			}
			for wt := wire.TypeVarint; wt <= wire.TypeFixed32; wt++ {
				if got, want := k.AcceptsWireType(wt, repeated), compatibleWireType(f, wt); got != want {
					t.Errorf("%v (repeated %v) AcceptsWireType(%v) = %v, reference %v", k, repeated, wt, got, want)
				}
			}
		}
		if k.WireType() == wire.TypeBytes {
			continue // no scalar value rules for string, bytes and messages
		}
		f := &schema.Field{Name: "f", Number: 1, Kind: k}
		for _, v := range ruleValues {
			// Decode: v as the wire value, a varint or a fixed word.
			var in []byte
			raw := v
			switch k.WireType() {
			case wire.TypeFixed32:
				raw = uint64(uint32(v))
				in = wire.AppendFixed32(nil, uint32(v))
			case wire.TypeFixed64:
				in = wire.AppendFixed64(nil, v)
			default:
				in = wire.AppendVarint(nil, v)
			}
			want, n, err := decodeScalar(f, in)
			if err != nil || n != len(in) {
				t.Fatalf("%v: reference decode of %x: %d bytes, %v", k, in, n, err)
			}
			if got := k.Stored(raw); got != want {
				t.Errorf("%v Stored(%#x) = %#x, reference %#x", k, raw, got, want)
			}

			// Encode: v as the stored bits.
			wantBytes := appendScalarValue(nil, f, v)
			if got := k.AppendValue(nil, v); !bytes.Equal(got, wantBytes) {
				t.Errorf("%v AppendValue(%#x) = %x, reference %x", k, v, got, wantBytes)
			}
			if got, want := k.ValueSize(v), scalarValueSize(f, v); got != want || got != len(wantBytes) {
				t.Errorf("%v ValueSize(%#x) = %d, reference %d (%d bytes appended)", k, v, got, want, len(wantBytes))
			}
		}
	}
}
