package serve

import (
	"math"
	"testing"

	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
)

// TestCatalogCodecAllocs guards the heap allocations of the software codec
// on the exact serving path, averaged over each default-catalog schema's
// sample payloads: the admission parse (codec.Unmarshal), the response
// encode (codec.Marshal, whose one allocation is the output buffer) and
// the string and sub-message getters (none). The Unmarshal bounds are
// what the per-field-slot message costs: the message and its slots, one
// copy per string, and a repeated field's element storage.
func TestCatalogCodecAllocs(t *testing.T) {
	unmarshalMax := map[string]float64{"varint": 2, "string": 3, "mixed": 9}
	cat := DefaultCatalog()
	for _, name := range cat.Names() {
		e := cat.Lookup(name)
		n := e.NumSamples()
		// perMsg is the mean allocation count of f over all samples.
		perMsg := func(f func(i int)) float64 {
			return testing.AllocsPerRun(10, func() {
				for i := 0; i < n; i++ {
					f(i)
				}
			}) / float64(n)
		}
		msgs := make([]*dynamic.Message, n)
		for i := range msgs {
			m, err := codec.Unmarshal(e.Type, e.SamplePayload(i))
			if err != nil {
				t.Fatalf("%s sample %d: %v", name, i, err)
			}
			msgs[i] = m
		}

		got := perMsg(func(i int) { _, _ = codec.Unmarshal(e.Type, e.SamplePayload(i)) })
		if want, ok := unmarshalMax[name]; !ok || got > want {
			t.Errorf("%s: codec.Unmarshal allocates %.2f per message, want <= %v", name, got, want)
		}
		if got := perMsg(func(i int) { _, _ = codec.Marshal(msgs[i]) }); got != 1 {
			t.Errorf("%s: codec.Marshal allocates %.2f per message, want 1", name, got)
		}
		for _, f := range e.Type.Fields {
			var get func(i int)
			switch {
			case f.Repeated():
				continue
			case f.Kind == schema.KindMessage:
				get = func(i int) { msgs[i].GetMessage(f.Number) }
			case f.Kind.Class() == schema.ClassBytesLike:
				get = func(i int) { msgs[i].GetBytes(f.Number) }
			default:
				continue
			}
			if got := perMsg(get); got != 0 {
				t.Errorf("%s.%s: getter allocates %.2f per call, want 0", name, f.Name, got)
			}
		}
		t.Logf("%s: codec.Unmarshal %.2f allocs per message", name, got)
	}
}

// A load worker's sample order over sample-count edge cases, uniform and
// skewed. A zero-sample entry used to reach the load worker loop, where
// SamplePayload's modulo panicked (uniform) or NumSamples-1 wrapped to
// 2^64-1 as the Zipf imax (skewed); a single-sample entry spent a Zipf
// source on a distribution with one outcome. Zero samples must be
// rejected up front; one and many must give each of two workers indices
// of the entry's own samples in both modes: the uniform walk from
// w*7919, and a skewed order whose hottest sample is sample 0. A skew
// that is neither 0 nor a finite s > 1 must be rejected too: a negative
// or NaN one used to run the uniform walk, and an infinite one hung the
// first draw.
func TestLoadgenSampleCountEdgeCases(t *testing.T) {
	payloadsOf := func(e *Entry, n int) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, e.SamplePayload(i))
		}
		return out
	}
	full := DefaultCatalog().Lookup("varint")
	cases := []struct {
		name    string
		samples int
		skew    float64
		wantErr bool
	}{
		{"zero-uniform", 0, 0, true},
		{"zero-skewed", 0, 1.2, true},
		{"one-uniform", 1, 0, false},
		{"one-skewed", 1, 1.2, false},
		{"many-uniform", 8, 0, false},
		{"many-skewed", 8, 1.2, false},
		{"skew-one", 8, 1, true},
		{"skew-negative", 8, -3, true},
		{"skew-nan", 8, math.NaN(), true},
		{"skew-inf", 8, math.Inf(1), true},
		{"skew-minus-inf", 8, math.Inf(-1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Entry{Name: "varint", Type: full.Type, payloads: payloadsOf(full, tc.samples)}
			for w := 0; w < 2; w++ {
				order, err := e.SampleOrder(w, tc.skew)
				if tc.wantErr {
					if err == nil {
						t.Fatalf("%d samples at skew %v accepted; want an error, not a worker panic or hang", tc.samples, tc.skew)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				hits := make([]int, tc.samples)
				for i := 0; i < 256; i++ {
					s := order(i)
					if s < 0 || s >= tc.samples {
						t.Fatalf("worker %d step %d: sample %d of %d", w, i, s, tc.samples)
					}
					if tc.skew == 0 && s != (w*7919+i)%tc.samples {
						t.Fatalf("worker %d step %d: uniform walk took sample %d, want %d", w, i, s, (w*7919+i)%tc.samples)
					}
					hits[s]++
				}
				for s, n := range hits {
					if tc.skew > 0 && n > hits[0] {
						t.Fatalf("worker %d: sample %d drawn %d times, more than hottest sample 0 (%d)", w, s, n, hits[0])
					}
				}
			}
		})
	}
}
