package serve

import (
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
