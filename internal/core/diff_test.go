package core

import (
	"math/rand"
	"strings"
	"testing"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/pbtest"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// diffCheck feeds one input to the reference codec and to the given
// systems, asserting agreement:
//   - no path may panic or corrupt simulated memory (faults surface as
//     errors);
//   - when the reference accepts an input, every system must decode it
//     to the reference message stripped of unknown bytes at every depth
//     (the models skip unknown fields without preserving them), unless
//     those bytes hold a group: the models do not skip groups, so every
//     system must reject it with the group error;
//   - when the reference rejects an input, the systems may reject too.
func diffCheck(t *testing.T, typ *schema.Message, input []byte, systems ...*System) {
	t.Helper()
	ref, refErr := codec.Unmarshal(typ, input)
	group := refErr == nil && stripUnknown(ref)
	for _, sys := range systems {
		sys.ResetWork()
		// Inputs are transient here (unlike benchmark workloads): recycle
		// the static input space so long fuzzing sessions don't exhaust it.
		sys.Static.Reset()
		bufAddr, err := sys.WriteWire(input)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Deserialize(typ, bufAddr, uint64(len(input)))
		switch {
		case refErr != nil:
			// The reference rejected: the systems may reject too.
		case group:
			if err == nil || !strings.Contains(err.Error(), "group") {
				t.Fatalf("%s did not reject a group with the group error: %v\ninput: %x", sys.Name(), err, input)
			}
		case err != nil:
			t.Fatalf("%s rejected input the reference accepts: %v\ninput: %x", sys.Name(), err, input)
		default:
			got, err := sys.ReadMessage(typ, res.ObjAddr)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(got) {
				t.Fatalf("%s decoded differently from the reference\ninput: %x", sys.Name(), input)
			}
		}
	}
}

// stripUnknown deletes the unknown bytes of m and of every message in
// it, reporting whether any of them held a group: a start-group tag at
// the top level of some message's unknown bytes.
func stripUnknown(m *dynamic.Message) (group bool) {
	for b := m.Unknown; len(b) > 0; {
		num, wt, n, err := wire.ReadTag(b)
		if err != nil {
			break
		}
		group = group || wt == wire.TypeStartGroup
		vn, err := wire.SkipValue(b[n:], num, wt)
		if err != nil {
			break
		}
		b = b[n+vn:]
	}
	m.Unknown = nil
	for _, f := range m.Type().Fields {
		if f.Kind != schema.KindMessage || !m.Has(f.Number) {
			continue
		}
		if f.Repeated() {
			for _, sub := range m.RepeatedMessages(f.Number) {
				group = stripUnknown(sub) || group
			}
		} else if sub := m.GetMessage(f.Number); sub != nil {
			group = stripUnknown(sub) || group
		}
	}
	return group
}

func TestDifferentialMutatedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	// The unknown-field insertions draw from their own stream, so the
	// mutations below see the same draws with or without them.
	ins := rand.New(rand.NewSource(16180))
	for trial := 0; trial < 15; trial++ {
		typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
		boom := New(smallConfig(KindBOOM))
		accel := New(smallConfig(KindAccel))
		for _, sys := range []*System{boom, accel} {
			if err := sys.LoadSchema(typ); err != nil {
				t.Fatal(err)
			}
		}
		// Valid seeds.
		var seeds [][]byte
		for i := 0; i < 4; i++ {
			m := pbtest.RandomPopulated(rng, typ, pbtest.DefaultMessageConfig())
			b, err := codec.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, b)
		}
		for _, seed := range seeds {
			diffCheck(t, typ, seed, boom, accel)
			// Mutations: bit flips, truncations, splices, random tails.
			for m := 0; m < 30; m++ {
				mut := append([]byte(nil), seed...)
				switch rng.Intn(4) {
				case 0: // bit flip
					if len(mut) > 0 {
						mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
					}
				case 1: // truncate
					if len(mut) > 0 {
						mut = mut[:rng.Intn(len(mut))]
					}
				case 2: // splice two seeds
					other := seeds[rng.Intn(len(seeds))]
					if len(other) > 0 && len(mut) > 0 {
						mut = append(mut[:rng.Intn(len(mut))], other[rng.Intn(len(other)):]...)
					}
				case 3: // random tail
					tail := make([]byte, rng.Intn(16))
					rng.Read(tail)
					mut = append(mut, tail...)
				}
				diffCheck(t, typ, mut, boom, accel)
			}
			for m := 0; m < 10; m++ {
				diffCheck(t, typ, insertUnknown(ins, typ, seed), boom, accel)
			}
		}
	}
}

// insertUnknown returns a copy of seed with one unknown field inserted at
// a random top-level field boundary: a field number typ does not define,
// with a value of a random wire type — varint, fixed32, fixed64, bytes,
// or an empty group.
func insertUnknown(rng *rand.Rand, typ *schema.Message, seed []byte) []byte {
	bounds := []int{0}
	for b := seed; len(b) > 0; {
		num, wt, n, err := wire.ReadTag(b)
		if err != nil {
			break
		}
		vn, err := wire.SkipValue(b[n:], num, wt)
		if err != nil {
			break
		}
		b = b[n+vn:]
		bounds = append(bounds, len(seed)-len(b))
	}
	at := bounds[rng.Intn(len(bounds))]
	num := 1 + rng.Int31n(typ.MaxFieldNumber()+8)
	for typ.FieldByNumber(num) != nil {
		num++
	}
	var f []byte
	switch rng.Intn(5) {
	case 0:
		f = wire.AppendVarint(wire.AppendTag(f, num, wire.TypeVarint), rng.Uint64()>>rng.Intn(64))
	case 1:
		f = wire.AppendFixed32(wire.AppendTag(f, num, wire.TypeFixed32), rng.Uint32())
	case 2:
		f = wire.AppendFixed64(wire.AppendTag(f, num, wire.TypeFixed64), rng.Uint64())
	case 3:
		v := make([]byte, rng.Intn(9))
		rng.Read(v)
		f = wire.AppendBytes(wire.AppendTag(f, num, wire.TypeBytes), v)
	case 4:
		f = wire.AppendTag(wire.AppendTag(f, num, wire.TypeStartGroup), num, wire.TypeEndGroup)
	}
	return append(append(append([]byte(nil), seed[:at]...), f...), seed[at:]...)
}

// TestDifferentialPureRandom throws fully random bytes at the decoders:
// nothing may panic, and whenever all paths accept, they must agree.
func TestDifferentialPureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	typ := pbtest.RandomSchema(rng, pbtest.DefaultSchemaConfig())
	boom := New(smallConfig(KindBOOM))
	accel := New(smallConfig(KindAccel))
	for _, sys := range []*System{boom, accel} {
		if err := sys.LoadSchema(typ); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 500; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		diffCheck(t, typ, b, boom, accel)
	}
}

// FuzzDifferentialDeserialize is a native fuzz target over a fixed schema:
// `go test -fuzz=FuzzDifferentialDeserialize ./internal/core` explores the
// input space; in normal runs the seed corpus exercises the check.
func FuzzDifferentialDeserialize(f *testing.F) {
	sub := mustMessage("FSub",
		&schema.Field{Name: "id", Number: 1, Kind: schema.KindInt64},
		&schema.Field{Name: "tag", Number: 2, Kind: schema.KindString})
	typ := mustMessage("F",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "r", Number: 3, Kind: schema.KindUint64, Label: schema.LabelRepeated, Packed: true},
		&schema.Field{Name: "sub", Number: 4, Kind: schema.KindMessage, Message: sub},
		&schema.Field{Name: "fx", Number: 5, Kind: schema.KindFixed32},
	)
	m := dynamic.New(typ)
	m.SetInt32(1, -1)
	m.SetString(2, "seed")
	m.AddScalarBits(3, 300)
	m.MutableMessage(4).SetInt64(1, 7)
	m.SetUint32(5, 0xabcd)
	seed, err := codec.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x96, 0x01})
	f.Add([]byte{0x0b})       // group tag
	f.Add([]byte{0x12, 0x7f}) // over-long string

	boom := New(smallConfig(KindBOOM))
	accel := New(smallConfig(KindAccel))
	for _, sys := range []*System{boom, accel} {
		if err := sys.LoadSchema(typ); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			return // keep simulated memory small
		}
		diffCheck(t, typ, input, boom, accel)
	})
}
