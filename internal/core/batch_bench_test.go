package core_test

import (
	"testing"
	"time"

	"protoacc/internal/core"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/serve"
)

// batchSize is the serving tiles' default MaxBatch.
const batchSize = 16

// benchConfig sizes the System the way a serving tile sizes its own at
// default options (MaxBatch 16 × MaxPayload 64 KiB per batch).
func benchConfig() core.Config {
	cfg := core.DefaultConfig(core.KindAccel)
	const floor, q = 16 << 20, 1 << 20
	cfg.StaticSize = q*5 + floor
	cfg.HeapSize = q*4 + floor
	cfg.ArenaSize = q*4 + floor
	cfg.OutSize = q + floor
	return cfg
}

// BenchmarkBatch times the simulator alone: DeserializeBatch and
// SerializeBatch over each serving-catalog schema's samples, 16 to a
// batch, on an accelerated System that holds the schema and is recycled
// with ResetBatch between batches, as a serving tile's is. Only the batch
// call is timed for the reported metric, host ns per simulated cycle;
// the reset and the input placement (WriteWire, MaterializeInput) are
// left out of it but not out of ns/op. Per-call timing uses time.Now,
// not the benchmark timer, whose stop and start each read the runtime's
// memory statistics and so stop the world.
func BenchmarkBatch(b *testing.B) {
	cat := serve.DefaultCatalog()
	for _, name := range cat.Names() {
		e := cat.Lookup(name)
		msgs := make([]*dynamic.Message, e.NumSamples())
		for i := range msgs {
			m, err := codec.Unmarshal(e.Type, e.SamplePayload(i))
			if err != nil {
				b.Fatal(err)
			}
			msgs[i] = m
		}
		for _, op := range []string{"deser", "ser"} {
			b.Run(name+"/"+op, func(b *testing.B) {
				sys := core.New(benchConfig())
				if err := sys.LoadSchema(e.Type); err != nil {
					b.Fatal(err)
				}
				refs := make([]core.WireRef, batchSize)
				objs := make([]uint64, batchSize)
				// Building the System and loading its schema is set-up, not
				// a batch's cost: without this reset B/op reads the
				// System's regions divided by b.N.
				b.ResetTimer()
				var ns, cycles float64
				for i := 0; i < b.N; i++ {
					sys.ResetBatch()
					first := i * batchSize
					var err error
					for j := range batchSize {
						k := (first + j) % len(msgs)
						if op == "deser" {
							p := e.SamplePayload(k)
							refs[j] = core.WireRef{Len: uint64(len(p))}
							refs[j].Addr, err = sys.WriteWire(p)
						} else {
							objs[j], err = sys.MaterializeInput(msgs[k])
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					var res core.Result
					t0 := time.Now()
					if op == "deser" {
						res, _, err = sys.DeserializeBatch(e.Type, refs)
					} else {
						res, _, err = sys.SerializeBatch(e.Type, objs)
					}
					ns += float64(time.Since(t0))
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Cycles
				}
				b.ReportMetric(ns/cycles, "ns/sim-cycle")
			})
		}
	}
}
