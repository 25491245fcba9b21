package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
)

// A Catalog is the set of message schemas a Server hosts. Requests name
// an entry; the server resolves it to the schema it loads into the
// accelerator's ADT. Entries also carry deterministic sample payloads so
// the load generator and the equivalence tests can exercise the serving
// path without inventing wire bytes of their own.
type Catalog struct {
	entries map[string]*Entry
	names   []string
}

// Entry is one hosted schema plus canonical sample payloads.
type Entry struct {
	Name string
	Type *schema.Message

	payloads [][]byte
}

// NewCatalog builds a catalog from entries; names must be unique.
func NewCatalog(entries ...*Entry) (*Catalog, error) {
	c := &Catalog{entries: make(map[string]*Entry, len(entries))}
	for _, e := range entries {
		if _, dup := c.entries[e.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate catalog entry %q", e.Name)
		}
		c.entries[e.Name] = e
		c.names = append(c.names, e.Name)
	}
	sort.Strings(c.names)
	return c, nil
}

// Lookup resolves a schema name; nil if absent.
func (c *Catalog) Lookup(name string) *Entry {
	if c == nil {
		return nil
	}
	return c.entries[name]
}

// Names lists hosted schema names, sorted.
func (c *Catalog) Names() []string {
	return append([]string(nil), c.names...)
}

// SamplePayload returns the i'th canonical sample payload (wrapping).
// Payloads are canonical codec.Marshal output, so a serving response for
// either op over a sample payload must equal the payload itself.
func (e *Entry) SamplePayload(i int) []byte {
	return e.payloads[i%len(e.payloads)]
}

// NumSamples reports how many distinct sample payloads the entry carries.
func (e *Entry) NumSamples() int { return len(e.payloads) }

// SampleOrder returns load worker w's sequence of sample indices. With
// zipfS 0 it walks the samples from w*7919. With a finite zipfS > 1 it
// draws Zipf(zipfS)-skewed indices — hot-key traffic, where a handful of
// payloads dominate (the distribution the response cache exists for) —
// from a source seeded with w+1, so runs are reproducible for a given
// worker count; rank 0, the hottest, is sample 0 on every worker, so the
// workers' hot sets overlap. A single sample needs no draw. An entry
// with no samples has no sequence (the walk's modulo, and the Zipf imax
// NumSamples-1, would break), and any other zipfS is an error: one in
// (0, 1] is no Zipf, and an infinite one never draws.
func (e *Entry) SampleOrder(w int, zipfS float64) (func(i int) int, error) {
	n := len(e.payloads)
	switch {
	case zipfS != 0 && !(zipfS > 1) || math.IsInf(zipfS, 0):
		return nil, fmt.Errorf("serve: skew %g invalid (Zipf needs a finite s > 1, or 0 for uniform)", zipfS)
	case n == 0:
		return nil, fmt.Errorf("serve: schema %q has no sample payloads", e.Name)
	case zipfS > 1 && n > 1:
		zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), zipfS, 1, uint64(n-1))
		return func(int) int { return int(zipf.Uint64()) }, nil
	}
	return func(i int) int { return (w*7919 + i) % n }, nil
}

// samplesPerEntry is the number of deterministic payloads generated per
// default-catalog entry; enough variety to spread message sizes without
// bloating server start-up.
const samplesPerEntry = 64

// sampleSeed derives the per-entry RNG seed from an FNV-1a hash of the
// full schema name. Seeding from the name's *length* (as this package
// originally did) collides for any two equal-length names — "varint" and
// "string" shared one seed, so their sample-payload streams drew the same
// random sequence and were correlated across schemas.
func sampleSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// newEntry builds an entry, populating sample payloads from pop.
func newEntry(name string, t *schema.Message, pop func(i int, rng *rand.Rand) *dynamic.Message) *Entry {
	e := &Entry{Name: name, Type: t}
	rng := rand.New(rand.NewSource(sampleSeed(name)))
	for i := 0; i < samplesPerEntry; i++ {
		m := pop(i, rng)
		b, err := codec.Marshal(m)
		if err != nil {
			panic(fmt.Sprintf("serve: %s sample %d: %v", name, i, err))
		}
		e.payloads = append(e.payloads, b)
	}
	return e
}

func mustType(name string, fields ...*schema.Field) *schema.Message {
	t, err := schema.NewMessage(name, fields...)
	if err != nil {
		panic(fmt.Sprintf("serve: invalid static schema %s: %v", name, err))
	}
	return t
}

// DefaultCatalog hosts three schemas spanning the accelerator's field
// regimes: pure varints (no in-accelerator allocation), a single string
// (allocation + memcpy), and a mixed message with a repeated field and a
// sub-message (pointer chasing + allocation).
func DefaultCatalog() *Catalog {
	varintT := mustType("ServeVarint",
		&schema.Field{Name: "f1", Number: 1, Kind: schema.KindUint64},
		&schema.Field{Name: "f2", Number: 2, Kind: schema.KindUint64},
		&schema.Field{Name: "f3", Number: 3, Kind: schema.KindUint64},
		&schema.Field{Name: "f4", Number: 4, Kind: schema.KindUint64},
		&schema.Field{Name: "f5", Number: 5, Kind: schema.KindUint64},
	)
	varint := newEntry("varint", varintT, func(i int, rng *rand.Rand) *dynamic.Message {
		m := dynamic.New(varintT)
		for f := int32(1); f <= 5; f++ {
			// Spread encoded widths 1..10 bytes deterministically.
			m.SetUint64(f, uint64(1)<<uint(rng.Intn(64)))
		}
		return m
	})

	stringT := mustType("ServeString",
		&schema.Field{Name: "s", Number: 1, Kind: schema.KindString})
	str := newEntry("string", stringT, func(i int, rng *rand.Rand) *dynamic.Message {
		m := dynamic.New(stringT)
		n := 8 + rng.Intn(1<<10)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(' ' + rng.Intn(95))
		}
		m.SetBytes(1, b)
		return m
	})

	innerT := mustType("ServeMixedInner",
		&schema.Field{Name: "v", Number: 1, Kind: schema.KindDouble})
	mixedT := mustType("ServeMixed",
		&schema.Field{Name: "id", Number: 1, Kind: schema.KindUint64},
		&schema.Field{Name: "name", Number: 2, Kind: schema.KindString},
		&schema.Field{Name: "vals", Number: 3, Kind: schema.KindUint64, Label: schema.LabelRepeated},
		&schema.Field{Name: "sub", Number: 4, Kind: schema.KindMessage, Message: innerT},
	)
	mixed := newEntry("mixed", mixedT, func(i int, rng *rand.Rand) *dynamic.Message {
		m := dynamic.New(mixedT)
		m.SetUint64(1, rng.Uint64())
		name := make([]byte, 4+rng.Intn(28))
		for j := range name {
			name[j] = byte('a' + rng.Intn(26))
		}
		m.SetBytes(2, name)
		for e := 0; e < 1+rng.Intn(6); e++ {
			m.AddScalarBits(3, uint64(rng.Intn(1<<20)))
		}
		m.MutableMessage(4).SetScalarBits(1, rng.Uint64())
		return m
	})

	c, err := NewCatalog(varint, str, mixed)
	if err != nil {
		panic(err) // static names, cannot collide
	}
	return c
}
