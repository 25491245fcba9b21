package main

import (
	"runtime"
	"time"

	"protoacc/internal/core"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/serve"
)

// probeSamples is how many root spans of the traced capacity phase the
// layer probe re-runs.
const probeSamples = 256

// probeConfig sizes the probe's System the way the serving tiles size
// theirs at default Options (MaxBatch 16 × MaxPayload 64 KiB per batch).
func probeConfig() core.Config {
	cfg := core.DefaultConfig(core.KindAccel)
	const floor, q = 16 << 20, 1 << 20
	cfg.StaticSize = q*5 + floor
	cfg.HeapSize = q*4 + floor
	cfg.ArenaSize = q*4 + floor
	cfg.OutSize = q + floor
	return cfg
}

// probe re-runs sampled requests through the public calls a tile makes
// for them, one child span per call, on a quiescent process: the
// admission parse, System build, the batch operation, readback, the
// canonical marshal, and the batch reset.
type probe struct {
	sys   *core.System
	spans []span
	next  uint64
	t     tally
	ms    runtime.MemStats
}

// call times f as a child span of parent and counts its allocations;
// f returns the simulated cycles of the call, if any.
func (p *probe) call(parent span, name string, f func() (float64, error)) error {
	runtime.ReadMemStats(&p.ms)
	a0 := p.ms.Mallocs
	t0 := time.Now()
	cycles, err := f()
	t1 := time.Now()
	runtime.ReadMemStats(&p.ms)
	p.next++
	s := rootSpan(name, parent.Req, t0, t1)
	s.ID, s.Parent, s.Allocs, s.Cycles = p.next, parent.ID, p.ms.Mallocs-a0, cycles
	p.spans = append(p.spans, s)
	return err
}

// run probes the request under root and byte-checks the probe's answer.
func (p *probe) run(e *env, root span) {
	req := e.reqs[root.Req]
	typ := e.cat.Lookup(req.Schema).Type
	var msg *dynamic.Message
	var out []byte
	err := p.call(root, "codec.Unmarshal", func() (c float64, err error) {
		msg, err = codec.Unmarshal(typ, req.Payload)
		return
	})
	if err == nil && req.Op == serve.OpSerialize {
		var obj uint64
		var refs []core.WireRef
		err = p.call(root, "System.MaterializeInput", func() (c float64, err error) {
			obj, err = p.sys.MaterializeInput(msg)
			return
		})
		if err == nil {
			err = p.call(root, "System.SerializeBatch", func() (float64, error) {
				res, r, err := p.sys.SerializeBatch(typ, []uint64{obj})
				refs = r
				return res.Cycles, err
			})
		}
		if err == nil {
			err = p.call(root, "System.ReadWire", func() (c float64, err error) {
				out, err = p.sys.ReadWire(refs[0].Addr, refs[0].Len)
				return
			})
		}
	}
	if err == nil && req.Op == serve.OpDeserialize {
		var addr uint64
		var objs []uint64
		err = p.call(root, "System.WriteWire", func() (c float64, err error) {
			addr, err = p.sys.WriteWire(req.Payload)
			return
		})
		if err == nil {
			err = p.call(root, "System.DeserializeBatch", func() (float64, error) {
				res, o, err := p.sys.DeserializeBatch(typ, []core.WireRef{{Addr: addr, Len: uint64(len(req.Payload))}})
				objs = o
				return res.Cycles, err
			})
		}
		if err == nil {
			err = p.call(root, "System.ReadMessage", func() (c float64, err error) {
				msg, err = p.sys.ReadMessage(typ, objs[0])
				return
			})
		}
		if err == nil {
			err = p.call(root, "codec.Marshal", func() (c float64, err error) {
				out, err = codec.Marshal(msg)
				return
			})
		}
	}
	p.call(root, "System.ResetBatch", func() (float64, error) {
		p.sys.ResetBatch()
		return 0, nil
	})
	p.t.note(serve.Response{Status: serve.StatusOK, Payload: out}, err, req.Payload)
}

// layerMetrics derives the codec and core metrics from the probe's
// child spans: mean self times, allocations per call, and host
// nanoseconds per simulated cycle of the batch calls.
func layerMetrics(m map[string]float64, spans []span) {
	self := selfTimes(spans)
	type acc struct {
		n, allocs uint64
		ns        int64
		cycles    float64
	}
	by := map[string]acc{}
	for _, s := range spans {
		if s.Parent != 0 {
			a := by[s.Name]
			a.n++
			a.allocs += s.Allocs
			a.ns += self[s.ID]
			a.cycles += s.Cycles
			by[s.Name] = a
		}
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	un, ma := by["codec.Unmarshal"], by["codec.Marshal"]
	m["codec.unmarshal_ns"] = div(float64(un.ns), float64(un.n))
	m["codec.marshal_ns"] = div(float64(ma.ns), float64(ma.n))
	m["codec.allocs_per_op"] = div(float64(un.allocs+ma.allocs), float64(un.n+ma.n))
	de, se := by["System.DeserializeBatch"], by["System.SerializeBatch"]
	b := acc{de.n + se.n, de.allocs + se.allocs, de.ns + se.ns, de.cycles + se.cycles}
	m["core.batch_us"] = div(float64(b.ns), float64(b.n)) / 1e3
	m["core.ns_per_sim_cycle"] = div(float64(b.ns), b.cycles)
	m["core.allocs_per_batch"] = div(float64(b.allocs), float64(b.n))
	r := by["System.ResetBatch"]
	m["core.reset_us"] = div(float64(r.ns), float64(r.n)) / 1e3
}
