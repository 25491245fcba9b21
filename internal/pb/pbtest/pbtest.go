// Package pbtest provides randomized schema and message generators for
// property-based tests across the project: the software codec, the
// accelerator models, and the layout/ADT generators are all exercised
// against messages drawn from these generators.
package pbtest

import (
	"fmt"
	"math/rand"

	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// SchemaConfig controls RandomSchema.
type SchemaConfig struct {
	MaxFields    int     // max fields per message (min 1)
	MaxDepth     int     // max nesting depth
	MaxFieldNum  int32   // field numbers drawn from [1, MaxFieldNum]
	RepeatedProb float64 // probability a field is repeated
	PackedProb   float64 // probability a repeated scalar is packed
	MessageProb  float64 // probability a field is a sub-message (if depth remains)
}

// DefaultSchemaConfig returns a config producing moderately complex types.
func DefaultSchemaConfig() SchemaConfig {
	return SchemaConfig{
		MaxFields:    12,
		MaxDepth:     4,
		MaxFieldNum:  40,
		RepeatedProb: 0.25,
		PackedProb:   0.5,
		MessageProb:  0.2,
	}
}

var scalarKinds = []schema.Kind{
	schema.KindDouble, schema.KindFloat, schema.KindInt32, schema.KindInt64,
	schema.KindUint32, schema.KindUint64, schema.KindSint32, schema.KindSint64,
	schema.KindFixed32, schema.KindFixed64, schema.KindSfixed32, schema.KindSfixed64,
	schema.KindBool, schema.KindEnum, schema.KindString, schema.KindBytes,
}

// RandomSchema generates a random message type.
func RandomSchema(rng *rand.Rand, cfg SchemaConfig) *schema.Message {
	var counter int
	return randomMessage(rng, cfg, cfg.MaxDepth, &counter)
}

func randomMessage(rng *rand.Rand, cfg SchemaConfig, depth int, counter *int) *schema.Message {
	*counter++
	name := fmt.Sprintf("T%d", *counter)
	nf := 1 + rng.Intn(cfg.MaxFields)
	used := map[int32]bool{}
	var fields []*schema.Field
	for i := 0; i < nf; i++ {
		num := 1 + rng.Int31n(cfg.MaxFieldNum)
		if used[num] || (num >= wire.FirstReservedFieldNumber && num <= wire.LastReservedFieldNumber) {
			continue // duplicate or protobuf-reserved field number
		}
		used[num] = true
		f := &schema.Field{Name: fmt.Sprintf("f%d", num), Number: num}
		if depth > 1 && rng.Float64() < cfg.MessageProb {
			f.Kind = schema.KindMessage
			f.Message = randomMessage(rng, cfg, depth-1, counter)
		} else {
			f.Kind = scalarKinds[rng.Intn(len(scalarKinds))]
		}
		if rng.Float64() < cfg.RepeatedProb {
			f.Label = schema.LabelRepeated
			if f.Kind != schema.KindMessage && f.Kind.Class() != schema.ClassBytesLike &&
				rng.Float64() < cfg.PackedProb {
				f.Packed = true
			}
		}
		fields = append(fields, f)
	}
	m, err := schema.NewMessage(name, fields...)
	if err != nil {
		// The guards above keep every generated field valid (unique,
		// non-reserved numbers; scalar-only packing), so reaching here is a
		// bug in the generator itself — which only test code drives.
		panic(fmt.Sprintf("pbtest: generated invalid schema: %v", err))
	}
	return m
}

// MessageConfig controls RandomPopulated.
type MessageConfig struct {
	PresenceProb float64 // probability each field is populated
	MaxRepeat    int     // max elements in a repeated field
	MaxBlobLen   int     // max string/bytes length
}

// DefaultMessageConfig returns a config producing moderately full messages.
func DefaultMessageConfig() MessageConfig {
	return MessageConfig{PresenceProb: 0.7, MaxRepeat: 4, MaxBlobLen: 32}
}

// RandomPopulated creates a message of type t with randomly populated
// fields.
func RandomPopulated(rng *rand.Rand, t *schema.Message, cfg MessageConfig) *dynamic.Message {
	return randomPopulated(rng, t, cfg, 8)
}

func randomPopulated(rng *rand.Rand, t *schema.Message, cfg MessageConfig, depth int) *dynamic.Message {
	m := dynamic.New(t)
	for _, f := range t.Fields {
		if rng.Float64() >= cfg.PresenceProb {
			continue
		}
		count := 1
		if f.Repeated() {
			count = 1 + rng.Intn(cfg.MaxRepeat)
		}
		for i := 0; i < count; i++ {
			switch {
			case f.Kind == schema.KindMessage:
				if depth <= 0 {
					continue
				}
				sub := randomPopulated(rng, f.Message, cfg, depth-1)
				if f.Repeated() {
					// AddMessage returns an empty element; merge content in.
					m.AddMessage(f.Number).Merge(sub)
				} else {
					m.SetMessage(f.Number, sub)
				}
			case f.Kind.Class() == schema.ClassBytesLike:
				b := RandomBlob(rng, rng.Intn(cfg.MaxBlobLen+1))
				if f.Repeated() {
					m.AddBytes(f.Number, b)
				} else {
					m.SetBytes(f.Number, b)
				}
			default:
				bits := RandomScalarBits(rng, f.Kind)
				if f.Repeated() {
					m.AddScalarBits(f.Number, bits)
				} else {
					m.SetScalarBits(f.Number, bits)
				}
			}
		}
	}
	return m
}

// RandomScalarBits draws a random bit pattern valid for kind k, biased
// toward small magnitudes half the time (matching the paper's observation
// that small varints dominate).
func RandomScalarBits(rng *rand.Rand, k schema.Kind) uint64 {
	small := rng.Intn(2) == 0
	switch k {
	case schema.KindBool:
		return uint64(rng.Intn(2))
	case schema.KindInt32, schema.KindSint32, schema.KindSfixed32, schema.KindEnum:
		v := int32(rng.Uint64())
		if small {
			v = int32(rng.Intn(256)) - 128
		}
		return uint64(int64(v))
	case schema.KindUint32, schema.KindFixed32, schema.KindFloat:
		v := uint32(rng.Uint64())
		if small && k != schema.KindFloat {
			v = uint32(rng.Intn(256))
		}
		return uint64(v)
	default:
		v := rng.Uint64()
		if small {
			v = uint64(rng.Intn(256))
		}
		if k == schema.KindInt64 || k == schema.KindSint64 || k == schema.KindSfixed64 {
			return uint64(int64(v) >> uint(rng.Intn(64)))
		}
		return v
	}
}

// RandomBlob returns n random bytes.
func RandomBlob(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
