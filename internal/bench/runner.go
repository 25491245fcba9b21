package bench

import (
	"fmt"

	"protoacc/internal/core"
	"protoacc/internal/faults"
	"protoacc/internal/hyperbench"
)

// Op selects serialization or deserialization.
type Op int

// Operations.
const (
	Deserialize Op = iota
	Serialize
)

func (o Op) String() string {
	if o == Serialize {
		return "ser"
	}
	return "deser"
}

// Measurement is one (workload, system) result.
type Measurement struct {
	Workload string
	System   core.Kind
	Op       Op
	GbitsPS  float64
	Cycles   float64
	Bytes    uint64
}

// Options tunes a run.
type Options struct {
	WarmupBatches  int // batches run before the measured one
	Config         func(core.Kind) core.Config
	SoftwareArenas bool // CPU baselines allocate from software arenas

	// Parallelism bounds the worker pool fanning out independent
	// simulations (RunSet, the ablation sweeps). 0 means GOMAXPROCS;
	// 1 forces serial execution. Results are bitwise-identical at any
	// setting — parallel runs gather by index, not completion order.
	Parallelism int

	// Telemetry, when non-nil, receives each run's end-of-run counter
	// snapshot. Counters are per-run (Systems are reset on pool reuse),
	// so recorded values are independent of pooling and parallelism.
	Telemetry *TelemetrySink

	// Trace, when non-nil, enables the matching runs' System tracers and
	// captures their event streams. Tracing is per-System state, not
	// Config state, so traced runs still pool.
	Trace *TraceCapture

	// Faults selects the deterministic fault-injection schedule
	// (internal/faults) for every System the run builds. The zero value —
	// the default — disables injection and leaves all measurements
	// bitwise-identical to a faultless build. Fault configuration is part
	// of core.Config, so faulted and fault-free runs pool separately.
	Faults faults.Config
}

// DefaultOptions returns the standard settings: one warm-up batch, paper
// configurations.
func DefaultOptions() Options {
	return Options{WarmupBatches: 1, Config: core.DefaultConfig}
}

// HyperOptions returns the HyperProtoBench settings: service workloads
// run their CPU baselines with software arena allocation, the common
// configuration for protobuf-heavy services at scale (§2.3, §7).
func HyperOptions() Options {
	o := DefaultOptions()
	o.SoftwareArenas = true
	return o
}

// sizedConfig scales the system's memory regions to the workload and
// operation, so huge workloads fit and small ones don't pay gigabyte
// mapping/zeroing costs. From need (the batch's total wire bytes,
// rounded up to 1 MiB so near-identical workloads share a region
// geometry and a System-pool key) two budgets derive, each padded by a
// 16 MiB floor for batch headers, alignment, and ADTs:
//
//	wireNeed = ceil1M(need)   + floor  // wire-resident data
//	objNeed  = ceil1M(need)*4 + floor  // materialized C++ objects:
//	                                   // hasbits, vptr, slot padding and
//	                                   // repeated/string headers expand
//	                                   // wire bytes by up to ~4x
//
// Deserialize reads wire from Static (wireNeed) and materializes into
// Heap and the accelerator Arena (objNeed); its Out space is unused.
// Serialize reads materialized objects from Static (objNeed) and writes
// wire to Out (wireNeed); its Heap/Arena are unused. Unused regions get
// the floor only.
func sizedConfig(base core.Config, need uint64, op Op) core.Config {
	const floor = 16 << 20
	const quantum = 1 << 20
	qneed := (need + quantum - 1) &^ (quantum - 1)
	wireNeed := qneed + floor
	objNeed := qneed*4 + floor
	if op == Serialize {
		base.StaticSize = objNeed
		base.OutSize = wireNeed
		base.HeapSize = floor
		base.ArenaSize = floor
	} else {
		base.StaticSize = wireNeed
		base.OutSize = floor
		base.HeapSize = objNeed
		base.ArenaSize = objNeed
	}
	return base
}

// Run measures one workload on one system for one operation: warm-up
// batches followed by a measured batch, returning batch throughput.
// Systems are recycled through core.DefaultPool: repeated runs with the
// same configuration (warm-ups, b.N benchmark iterations, sweep points)
// reuse memory regions instead of re-mapping and re-zeroing them, with
// results bitwise-identical to fresh construction (System.ResetAll).
func Run(k core.Kind, op Op, w Workload, opts Options) (Measurement, error) {
	cfg := sizedConfig(opts.Config(k), w.Bytes, op)
	cfg.SoftwareArenas = opts.SoftwareArenas
	cfg.Faults = opts.Faults
	sys := core.DefaultPool.Get(cfg)
	traced := opts.Trace.Matches(w.Name, k)
	if traced {
		sys.Telemetry().Tracer.Enable()
	}
	m, err := runOn(sys, op, w, opts)
	if err != nil {
		// A failed run may leave the System mid-operation; drop it.
		return Measurement{}, err
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Record(w.Name, k, op, sys.Telemetry().Registry.Snapshot())
	}
	if traced {
		opts.Trace.Record(w.Name, k, op, sys.Telemetry().Tracer.TakeEvents())
		sys.Telemetry().Tracer.Reset()
	}
	core.DefaultPool.Put(sys)
	return m, nil
}

// runOn executes the measured batches of one run on a prepared System.
func runOn(sys *core.System, op Op, w Workload, opts Options) (Measurement, error) {
	k := sys.Cfg.Kind
	if err := sys.LoadSchema(w.Type); err != nil {
		return Measurement{}, err
	}

	switch op {
	case Deserialize:
		// Inputs: serialized buffers in static memory. Operations are
		// batched with one completion barrier per batch (§4.4.1).
		refs := make([]core.WireRef, len(w.Wire))
		for i, b := range w.Wire {
			a, err := sys.WriteWire(b)
			if err != nil {
				return Measurement{}, err
			}
			refs[i] = core.WireRef{Addr: a, Len: uint64(len(b))}
		}
		var res core.Result
		for b := 0; b <= opts.WarmupBatches; b++ {
			sys.ResetWork()
			var err error
			res, _, err = sys.DeserializeBatch(w.Type, refs)
			if err != nil {
				return Measurement{}, err
			}
		}
		return measurement(w, k, op, res.Cycles, res.Bytes, freqGHz(sys)), nil

	case Serialize:
		// Inputs: materialized C++ objects in static memory.
		objs := make([]uint64, len(w.Messages))
		for i, m := range w.Messages {
			a, err := sys.MaterializeInput(m)
			if err != nil {
				return Measurement{}, err
			}
			objs[i] = a
		}
		var res core.Result
		for b := 0; b <= opts.WarmupBatches; b++ {
			sys.ResetWork()
			var err error
			res, _, err = sys.SerializeBatch(w.Type, objs)
			if err != nil {
				return Measurement{}, err
			}
		}
		return measurement(w, k, op, res.Cycles, res.Bytes, freqGHz(sys)), nil
	}
	return Measurement{}, fmt.Errorf("bench: unknown op %d", op)
}

func freqGHz(sys *core.System) float64 {
	if sys.Accel != nil {
		return sys.Cfg.AccelFreqGHz
	}
	return sys.Cfg.CPU.FrequencyGHz
}

func measurement(w Workload, k core.Kind, op Op, cycles float64, bytes uint64, ghz float64) Measurement {
	seconds := cycles / (ghz * 1e9)
	gbps := 0.0
	if seconds > 0 {
		gbps = float64(bytes) * 8 / seconds / 1e9
	}
	return Measurement{
		Workload: w.Name, System: k, Op: op,
		GbitsPS: gbps, Cycles: cycles, Bytes: bytes,
	}
}

// Series is one benchmark's row across the three systems, the layout of
// the Figure 11-13 bar groups.
type Series struct {
	Bench string
	BOOM  float64 // Gbit/s
	Xeon  float64
	Accel float64
}

// Systems in figure order.
var systems = []core.Kind{core.KindBOOM, core.KindXeon, core.KindAccel}

// RunSet measures a full workload set on all three systems and appends a
// geomean row. The (workload, system) grid fans out over the worker pool
// (Options.Parallelism); measurements are gathered by grid index, so the
// returned Series are identical to a serial run's.
func RunSet(op Op, workloads []Workload, opts Options) ([]Series, error) {
	ms := make([]Measurement, len(workloads)*len(systems))
	err := forEachIndexed(len(ms), opts.parallelism(), func(i int) error {
		w, k := workloads[i/len(systems)], systems[i%len(systems)]
		m, err := Run(k, op, w, opts)
		if err != nil {
			return fmt.Errorf("%s on %v: %w", w.Name, k, err)
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Series, 0, len(workloads)+1)
	for wi, w := range workloads {
		s := Series{Bench: w.Name}
		for ki, k := range systems {
			m := ms[wi*len(systems)+ki]
			switch k {
			case core.KindBOOM:
				s.BOOM = m.GbitsPS
			case core.KindXeon:
				s.Xeon = m.GbitsPS
			case core.KindAccel:
				s.Accel = m.GbitsPS
			}
		}
		out = append(out, s)
	}
	return append(out, GeomeanRow(out)), nil
}

// GeomeanRow computes the geomean series over rows.
func GeomeanRow(rows []Series) Series {
	var b, x, a []float64
	for _, r := range rows {
		b = append(b, r.BOOM)
		x = append(x, r.Xeon)
		a = append(a, r.Accel)
	}
	return Series{Bench: "geomean", BOOM: Geomean(b), Xeon: Geomean(x), Accel: Geomean(a)}
}

// Speedups returns the accelerated system's geomean speedups vs the two
// baselines over the given rows (excluding any "geomean" row).
func Speedups(rows []Series) (vsBOOM, vsXeon float64) {
	var sb, sx []float64
	for _, r := range rows {
		if r.Bench == "geomean" {
			continue
		}
		sb = append(sb, r.Accel/r.BOOM)
		sx = append(sx, r.Accel/r.Xeon)
	}
	return Geomean(sb), Geomean(sx)
}

// HyperWorkload converts a generated HyperProtoBench suite into a
// Workload.
func HyperWorkload(b *hyperbench.Benchmark) Workload {
	return Workload{
		Name:     b.Profile.Name,
		Type:     b.Root,
		Messages: b.Messages,
		Wire:     b.Wire,
		Bytes:    b.TotalWireBytes,
	}
}

// HyperWorkloads generates bench0…bench5 as workloads. Generation is
// deterministic per profile (each owns a seeded RNG), so the suites are
// generated in parallel and gathered by profile index.
func HyperWorkloads() ([]Workload, error) {
	profiles := hyperbench.Profiles()
	out := make([]Workload, len(profiles))
	err := forEachIndexed(len(profiles), Options{}.parallelism(), func(i int) error {
		b, err := hyperbench.Generate(profiles[i])
		if err != nil {
			return err
		}
		out[i] = HyperWorkload(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
