package bench

import (
	"bytes"
	"fmt"

	"protoacc/internal/core"
	"protoacc/internal/faults"
)

// The differential chaos harness: drive a workload through an accelerated
// System under a seeded fault schedule and assert, operation by
// operation, that the functional output is byte-identical to the
// pure-software reference the workload carries — whether the op completed
// fault-free, succeeded after cycle-charged retries, or finished on the
// software fallback path. Any divergence or leaked partial state is a bug
// in the transactional dispatch layer, not an acceptable outcome of a
// fault.

// ChaosReport summarizes one chaos run.
type ChaosReport struct {
	Ops       int    // operations checked (per-op and batch phases)
	Injected  uint64 // faults the injector fired across the run
	Faulted   int    // operations that observed at least one fault
	Retries   int    // accelerator re-attempts after transient faults
	Fallbacks int    // operations completed by the software codec
}

func (r *ChaosReport) note(res core.Result) {
	r.Ops++
	if res.Fault != nil {
		r.Faulted++
		r.Retries += res.Fault.Retries
		if res.Fault.FellBack {
			r.Fallbacks++
		}
	}
}

// chaosConfig sizes an accelerated System for both directions of a chaos
// run: wire inputs and materialized objects live in Static together, and
// heap, arena, and serializer output must each hold a full batch.
func chaosConfig(base core.Config, w Workload) core.Config {
	const floor = 16 << 20
	const quantum = 1 << 20
	qneed := (w.Bytes + quantum - 1) &^ (quantum - 1)
	base.StaticSize = qneed*5 + floor
	base.HeapSize = qneed*4 + floor
	base.ArenaSize = qneed*4 + floor
	base.OutSize = qneed + floor
	return base
}

// RunChaos runs workload w on a fresh accelerated System under the given
// fault schedule and differentially verifies every operation: each
// deserialization must reproduce w.Messages[i] exactly and each
// serialization must reproduce w.Wire[i] byte-for-byte. Phase 1 runs
// one operation per input, each a batch of one; phase 2 runs the whole
// workload as one batch per direction (a fault inside a batch must roll
// back and recover the batch as a unit). Returns the recovery
// statistics; any divergence is an error.
func RunChaos(w Workload, fcfg faults.Config, opts Options) (ChaosReport, error) {
	var rep ChaosReport
	cfg := chaosConfig(opts.Config(core.KindAccel), w)
	cfg.Faults = fcfg
	sys := core.New(cfg)
	if err := sys.LoadSchema(w.Type); err != nil {
		return rep, err
	}
	refs := make([]core.WireRef, len(w.Wire))
	for i, b := range w.Wire {
		a, err := sys.WriteWire(b)
		if err != nil {
			return rep, err
		}
		refs[i] = core.WireRef{Addr: a, Len: uint64(len(b))}
	}
	objs := make([]uint64, len(w.Messages))
	for i, m := range w.Messages {
		a, err := sys.MaterializeInput(m)
		if err != nil {
			return rep, err
		}
		objs[i] = a
	}

	// Phase 1: per-op deserialization and serialization, each a batch of
	// one.
	for i, r := range refs {
		res, err := sys.Deserialize(w.Type, r.Addr, r.Len)
		if err != nil {
			return rep, fmt.Errorf("chaos %s: deser %d: %w", w.Name, i, err)
		}
		if err := checkObject(sys, w, res.ObjAddr, i, res); err != nil {
			return rep, err
		}
		rep.note(res)
	}
	for i, obj := range objs {
		res, err := sys.Serialize(w.Type, obj)
		if err != nil {
			return rep, fmt.Errorf("chaos %s: ser %d: %w", w.Name, i, err)
		}
		if err := checkWire(sys, w, res.WireAddr, res.Bytes, i, res); err != nil {
			return rep, err
		}
		rep.note(res)
	}

	// Phase 2: batch entry points (one completion barrier per batch).
	sys.ResetWork()
	bres, batchObjs, err := sys.DeserializeBatch(w.Type, refs)
	if err != nil {
		return rep, fmt.Errorf("chaos %s: deser batch: %w", w.Name, err)
	}
	for i, obj := range batchObjs {
		if err := checkObject(sys, w, obj, i, bres); err != nil {
			return rep, err
		}
	}
	rep.note(bres)
	sres, batchRefs, err := sys.SerializeBatch(w.Type, objs)
	if err != nil {
		return rep, fmt.Errorf("chaos %s: ser batch: %w", w.Name, err)
	}
	for i, r := range batchRefs {
		if err := checkWire(sys, w, r.Addr, r.Len, i, sres); err != nil {
			return rep, err
		}
	}
	rep.note(sres)

	rep.Injected = sys.Inj.TotalInjected()
	return rep, nil
}

func checkObject(sys *core.System, w Workload, objAddr uint64, i int, res core.Result) error {
	got, err := sys.ReadMessage(w.Type, objAddr)
	if err != nil {
		return fmt.Errorf("chaos %s: deser %d readback: %w", w.Name, i, err)
	}
	if !got.Equal(w.Messages[i]) {
		return fmt.Errorf("chaos %s: deser %d diverges from software reference (fault=%+v)",
			w.Name, i, res.Fault)
	}
	return nil
}

func checkWire(sys *core.System, w Workload, addr, n uint64, i int, res core.Result) error {
	out, err := sys.ReadWire(addr, n)
	if err != nil {
		return fmt.Errorf("chaos %s: ser %d readback: %w", w.Name, i, err)
	}
	if !bytes.Equal(out, w.Wire[i]) {
		return fmt.Errorf("chaos %s: ser %d diverges from reference wire (fault=%+v)",
			w.Name, i, res.Fault)
	}
	return nil
}
