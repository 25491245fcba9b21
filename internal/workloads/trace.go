package workloads

import (
	"fmt"
	"math/rand"

	"protoacc/internal/fleet"
	"protoacc/internal/pb/schema"
	"protoacc/internal/serve"
)

// Record is one trace event: a request against a stable key. The key's
// (schema, sample) binding is part of the trace, so replay needs no
// state beyond the catalog the trace was synthesized against.
type Record struct {
	Key    uint64   // stable object identity (rank 0 = hottest)
	Schema string   // catalog entry name
	Sample int      // catalog sample-payload index for the key's object
	Op     serve.Op // deserialize (read path) or serialize (write path)
	Size   int      // encoded payload bytes (informational; pinned by tests)
}

// Trace is a key/size/op sequence plus the seed that produced it.
type Trace struct {
	Seed    int64
	Records []Record
}

// SynthOptions shapes Synthesize.
type SynthOptions struct {
	Seed    int64 // RNG seed; same seed + options → identical trace
	Records int   // trace length (default 4096)

	// Catalog supplies schemas and sample payloads; nil selects
	// serve.DefaultCatalog.
	Catalog *serve.Catalog
}

const (
	// traceKeys is the number of distinct keys a trace draws from.
	traceKeys = 512
	// zipfS is the popularity skew over key ranks — the same hot-key
	// machinery as loadgen -skew (rank 0 hottest).
	zipfS = 1.2
)

// deserShare is the fleet operation mix: the paper's fleet-wide cycle
// fractions for C++ deserialization vs serialization (§3.2) as a
// read/write split, ≈64% deserialize.
func deserShare() float64 {
	return fleet.FleetCyclesInCppDeser / (fleet.FleetCyclesInCppDeser + fleet.FleetCyclesInCppSer)
}

// sizeBucketIndex maps an encoded size onto the Figure 3 buckets.
func sizeBucketIndex(n uint64) int {
	for i, b := range fleet.SizeBucketBounds {
		if n >= b[0] && (b[1] == fleet.Unbounded || n <= b[1]) {
			return i
		}
	}
	return len(fleet.SizeBucketBounds) - 1
}

// typeKeys walks a schema (sub-messages included, matching the Figure 4a
// accounting) and returns the field-type slices it contains.
func typeKeys(t *schema.Message, depth int) []fleet.TypeKey {
	if t == nil || depth > 8 {
		return nil
	}
	var out []fleet.TypeKey
	for _, f := range t.Fields {
		if f.Kind == schema.KindMessage {
			out = append(out, typeKeys(f.Message, depth+1)...)
			continue
		}
		out = append(out, fleet.TypeKey{Kind: f.Kind, Repeated: f.Repeated()})
	}
	return out
}

// schemaWeights scores each catalog schema by the summed fleet share of
// its field-type slices (Figure 4a), so schemas whose shapes dominate
// the fleet dominate the trace. A schema whose types carry zero share
// still gets a small floor so every hosted schema appears.
func schemaWeights(names []string, c *serve.Catalog) []float64 {
	shares := make(map[fleet.TypeKey]float64)
	for _, ft := range fleet.FieldsByType() {
		shares[fleet.TypeKey{Kind: ft.Kind, Repeated: ft.Repeated}] += ft.Share
	}
	out := make([]float64, len(names))
	var total float64
	for i, name := range names {
		for _, k := range typeKeys(c.Lookup(name).Type, 0) {
			out[i] += shares[k]
		}
		out[i] += 0.01 // floor: host every schema
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// sizeShares returns the Figure 3 message-size shares.
func sizeShares() []float64 {
	out := make([]float64, len(fleet.SizeBucketBounds))
	for i, b := range fleet.MessageSizes() {
		out[i] = b.Share
	}
	return out
}

// weightedDraw picks an index from weights (assumed to sum to ~1).
func weightedDraw(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Synthesize builds a deterministic fleet-shaped trace. Keys get a
// Zipf popularity ranking; each key is bound at first appearance to a
// (schema, sample) pair — the schema drawn from the fleet field-type
// mix, the sample drawn from the fleet message-size distribution over
// the schema's sample payloads (nearest non-empty bucket when a schema
// has no payload in the drawn bucket); each record's op follows the
// fleet deserialize/serialize cycle split.
func Synthesize(opts SynthOptions) (*Trace, error) {
	if opts.Records <= 0 {
		opts.Records = 4096
	}
	if opts.Catalog == nil {
		opts.Catalog = serve.DefaultCatalog()
	}
	names := opts.Catalog.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("workloads: empty catalog")
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, traceKeys-1)

	weights := schemaWeights(names, opts.Catalog)
	sizes := sizeShares()
	dShare := deserShare()

	// Precompute, per schema, which sample payloads land in which Figure 3
	// size bucket, so a drawn (schema, bucket) maps to a concrete payload.
	buckets := make(map[string][][]int, len(names))
	for _, name := range names {
		e := opts.Catalog.Lookup(name)
		bs := make([][]int, len(fleet.SizeBucketBounds))
		for i := 0; i < e.NumSamples(); i++ {
			bi := sizeBucketIndex(uint64(len(e.SamplePayload(i))))
			bs[bi] = append(bs[bi], i)
		}
		buckets[name] = bs
	}

	type binding struct {
		schema string
		sample int
	}
	bound := make(map[uint64]binding, traceKeys)

	tr := &Trace{Seed: opts.Seed, Records: make([]Record, 0, opts.Records)}
	for n := 0; n < opts.Records; n++ {
		key := zipf.Uint64()
		b, ok := bound[key]
		if !ok {
			name := names[weightedDraw(rng, weights)]
			bs := buckets[name]
			bi := weightedDraw(rng, sizes)
			// Nearest non-empty bucket: schemas rarely cover all eight
			// Figure 3 buckets, so widen symmetrically until one hits.
			idxs := bs[bi]
			for d := 1; len(idxs) == 0 && d < len(bs); d++ {
				if bi-d >= 0 && len(bs[bi-d]) > 0 {
					idxs = bs[bi-d]
				} else if bi+d < len(bs) && len(bs[bi+d]) > 0 {
					idxs = bs[bi+d]
				}
			}
			if len(idxs) == 0 {
				return nil, fmt.Errorf("workloads: schema %q has no sample payloads", name)
			}
			b = binding{schema: name, sample: idxs[rng.Intn(len(idxs))]}
			bound[key] = b
		}
		op := serve.OpSerialize
		if rng.Float64() < dShare {
			op = serve.OpDeserialize
		}
		e := opts.Catalog.Lookup(b.schema)
		tr.Records = append(tr.Records, Record{
			Key:    key,
			Schema: b.schema,
			Sample: b.sample,
			Op:     op,
			Size:   len(e.SamplePayload(b.sample)),
		})
	}
	return tr, nil
}
