// Package core assembles the simulated systems the paper evaluates
// (Section 5): "riscv-boom" (a BOOM-class OoO core alone), "Xeon" (a
// server-class core), and "riscv-boom-accel" (the BOOM core with the
// protobuf accelerator attached over RoCC, sharing the L2/LLC — Figure 8).
//
// A System owns a simulated memory, a cache-hierarchy timing model, a
// layout registry, ADTs, and either a CPU software-codec model or the
// accelerator units. Workloads are loaded once (schemas, input wire
// buffers, pre-materialized objects) and then Serialize/Deserialize run
// the timed operations, returning functional results plus cycle counts
// convertible to seconds and throughput.
package core

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/adt"
	"protoacc/internal/accel/deser"
	"protoacc/internal/accel/layout"
	"protoacc/internal/accel/mops"
	"protoacc/internal/accel/ser"
	"protoacc/internal/faults"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/sim/cpu"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
	"protoacc/internal/sim/rocc"
	"protoacc/internal/telemetry"
)

// Kind selects which evaluated system a System models.
type Kind int

// The three systems of Section 5.
const (
	KindBOOM Kind = iota
	KindXeon
	KindAccel // riscv-boom-accel
)

func (k Kind) String() string {
	switch k {
	case KindBOOM:
		return "riscv-boom"
	case KindXeon:
		return "Xeon"
	case KindAccel:
		return "riscv-boom-accel"
	default:
		return fmt.Sprintf("core.Kind(%d)", int(k))
	}
}

// Config sizes and parameterizes a System.
type Config struct {
	Kind         Kind
	Mem          memmodel.Config
	CPU          cpu.Params
	Deser        deser.Config
	Ser          ser.Config
	AccelFreqGHz float64

	// SoftwareArenas makes the CPU baselines allocate from software
	// arenas (§2.3) instead of the heap during deserialization.
	SoftwareArenas bool

	// Faults selects the deterministic fault-injection schedule threaded
	// through the accelerator units (internal/faults). The zero value
	// disables injection, leaving every simulation path cycle-identical to
	// a build without the framework. All fields are comparable, so a
	// faulted Config pools like any other.
	Faults faults.Config

	StaticSize uint64 // inputs: wire buffers, materialized objects, ADTs
	HeapSize   uint64 // software allocations (reset between batches)
	ArenaSize  uint64 // accelerator arena (reset between batches)
	OutSize    uint64 // serializer output space (reset between batches)
}

// XeonMemConfig models the server part's memory system: larger caches,
// slightly longer L1, a big LLC.
func XeonMemConfig() memmodel.Config {
	return memmodel.Config{
		L1:            memmodel.CacheConfig{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, HitLatency: 4},
		L2:            memmodel.CacheConfig{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, HitLatency: 12},
		LLC:           memmodel.CacheConfig{Name: "LLC", SizeBytes: 16 << 20, Assoc: 16, HitLatency: 42},
		DRAMLatency:   230,
		TLBEntries:    128,
		PTWLatency:    60,
		StreamOverlap: 8, // aggressive hardware prefetchers
	}
}

// DefaultConfig returns the configuration for one of the three systems
// with paper-like parameters.
func DefaultConfig(k Kind) Config {
	cfg := Config{
		Kind:         k,
		Deser:        deser.DefaultConfig(),
		Ser:          ser.DefaultConfig(),
		AccelFreqGHz: 2.0,
		StaticSize:   256 << 20,
		HeapSize:     256 << 20,
		ArenaSize:    256 << 20,
		OutSize:      256 << 20,
	}
	switch k {
	case KindXeon:
		cfg.Mem = XeonMemConfig()
		cfg.CPU = cpu.XeonParams()
	default:
		cfg.Mem = memmodel.DefaultConfig()
		cfg.CPU = cpu.BOOMParams()
	}
	return cfg
}

// Result reports one timed operation.
type Result struct {
	Cycles  float64
	Seconds float64
	Bytes   uint64 // serialized bytes consumed (deser) or produced (ser)

	ObjAddr  uint64 // deserialization destination object
	WireAddr uint64 // serialization output

	// Telemetry carries a batch operation's cycle attribution when
	// attribution is enabled on the System
	// (Telemetry().EnableAttribution(true)); nil otherwise.
	Telemetry *telemetry.OpTelemetry

	// Fault records the operation's fault-recovery history (aborted
	// attempts, retries, software fallback); nil when the operation
	// completed on the accelerator without any injected fault. When
	// Fault.FellBack is set, Cycles mixes the accelerator's and the host
	// core's clock domains and Seconds is the authoritative total.
	Fault *FaultReport
}

// Throughput returns the operation's Gbit/s over its serialized bytes,
// the metric of Figures 11-13.
func (r Result) Throughput() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Seconds / 1e9
}

// System is one simulated machine.
type System struct {
	Cfg    Config
	Mem    *mem.Memory
	MemSys *memmodel.System
	Reg    *layout.Registry

	Static *mem.Allocator // never reset
	Heap   *mem.Allocator // software allocations
	Arena  *mem.Allocator // accelerator arena
	Out    *mem.Allocator // CPU serializer output

	mat         *layout.Materializer // writes inputs into Static
	adts        *adt.Set
	schemaRoots []*schema.Message

	CPU   *cpu.CPU          // nil for KindAccel's accelerated path (still present for host work)
	Accel *rocc.Accelerator // non-nil only for KindAccel

	serData *mem.Region
	serPtrs *mem.Region

	adtAlloc *mem.Allocator

	// Inj is the System's fault injector, shared by every accelerator unit
	// (internal/faults). Always non-nil; disabled unless Cfg.Faults asks
	// for injection.
	Inj *faults.Injector

	// res counts the resilient-dispatch layer's recovery actions.
	res resilienceStats

	// poisoned marks a System whose simulated state an aborted
	// mid-mutation operation left undefined; see Poisoned.
	poisoned bool

	tel telemetry.Hub
}

// New builds a System. An invalid fault configuration panics: Config is
// assembled programmatically, and the command-line front ends validate
// user-supplied fault flags with faults.Config.Validate before building.
func New(cfg Config) *System {
	inj, err := faults.New(cfg.Faults)
	if err != nil {
		panic(fmt.Sprintf("core: invalid fault config: %v", err))
	}
	m := mem.New()
	s := &System{
		Cfg:    cfg,
		Mem:    m,
		MemSys: memmodel.NewSystem(cfg.Mem),
		Reg:    layout.NewRegistry(),
		Inj:    inj,
	}
	s.adtAlloc = mem.NewAllocator(m.Map("adt", 16<<20))
	s.Static = mem.NewAllocator(m.Map("static", cfg.StaticSize))
	s.Heap = mem.NewAllocator(m.Map("heap", cfg.HeapSize))
	s.Out = mem.NewAllocator(m.Map("out", cfg.OutSize))
	s.mat = layout.NewMaterializer(m, s.Static, s.Reg)
	s.CPU = cpu.New(cfg.CPU, m, s.MemSys.NewPort("cpu"), s.Heap, s.Reg)
	s.CPU.UseArena = cfg.SoftwareArenas
	if cfg.Kind == KindAccel {
		arenaRegion := m.Map("accel-arena", cfg.ArenaSize)
		s.Arena = mem.NewAllocator(arenaRegion)
		s.serData = m.Map("ser-out", cfg.OutSize)
		s.serPtrs = m.Map("ser-ptrs", 16<<20)
		port := s.MemSys.NewPort("accel")
		// The accelerator's memory interface wrappers track more
		// outstanding requests than the core's LSU exposes for
		// streaming (§4.1).
		port.SetStreamOverlap(8)
		s.Accel = &rocc.Accelerator{
			Deser: deser.New(m, port, s.Arena, cfg.Deser),
			Ser:   ser.New(m, port, cfg.Ser),
			Mops:  mops.New(m, port, s.Arena, mops.DefaultConfig()),
			Mem:   m,
		}
		s.Accel.AssignArenas(s.Arena, s.serData, s.serPtrs)
		s.Accel.Inj = inj
		s.Accel.Deser.Inj = inj
		s.Accel.Ser.Inj = inj
		s.Accel.Mops.Inj = inj
	}
	// Register every unit's counters and hand each tracing-capable unit
	// the System's trace buffer (disabled until somebody enables it).
	s.tel.Registry.Register("mem", s.MemSys)
	s.tel.Registry.Register("cpu", s.CPU)
	if s.Accel != nil {
		s.tel.Registry.Register("rocc", s.Accel)
		s.tel.Registry.Register("deser", s.Accel.Deser)
		s.tel.Registry.Register("ser", s.Accel.Ser)
		s.tel.Registry.Register("mops", s.Accel.Mops)
		s.Accel.Tracer = &s.tel.Tracer
		s.Accel.Deser.Tracer = &s.tel.Tracer
		s.Accel.Ser.Tracer = &s.tel.Tracer
		s.Accel.Mops.Tracer = &s.tel.Tracer
	}
	// Fault and resilience counters are registered on every kind so the
	// -stats-out shape stays uniform (zero for software-only systems).
	s.tel.Registry.Register("faults", s.Inj)
	s.tel.Registry.Register("resilience", &s.res)
	return s
}

// Telemetry returns the System's telemetry hub: the counter registry
// covering every unit, the shared trace buffer, and the batch attribution
// switch. Tracing and attribution are System-local state, not Config
// state, so enabling them does not fragment the System pool.
func (s *System) Telemetry() *telemetry.Hub { return &s.tel }

// LoadSchema registers message types and builds their ADTs (program-load
// work, outside any timed region). Subsequent calls rebuild the table set
// over the union of all roots loaded so far.
func (s *System) LoadSchema(roots ...*schema.Message) error {
	s.schemaRoots = append(s.schemaRoots, roots...)
	for _, r := range s.schemaRoots {
		s.Reg.Register(r)
	}
	set, err := adt.Build(s.Mem, s.adtAlloc, s.Reg, s.schemaRoots...)
	if err != nil {
		return err
	}
	s.adts = set
	return nil
}

// holdsOnly reports whether root is the one schema root the System has
// successfully loaded.
func (s *System) holdsOnly(root *schema.Message) bool {
	return s.adts != nil && len(s.schemaRoots) == 1 && s.schemaRoots[0] == root
}

// ADTAddr exposes a type's ADT address (for tooling).
func (s *System) ADTAddr(t *schema.Message) uint64 {
	if s.adts == nil {
		return 0
	}
	return s.adts.Addr(t)
}

// WriteWire copies wire bytes into static input space.
func (s *System) WriteWire(b []byte) (uint64, error) {
	addr, err := s.Static.Alloc(uint64(len(b))+1, 8)
	if err != nil {
		return 0, err
	}
	return addr, s.Mem.WriteBytes(addr, b)
}

// ReadWire copies n bytes out of simulated memory.
func (s *System) ReadWire(addr, n uint64) ([]byte, error) {
	b := make([]byte, n)
	return b, s.Mem.ReadBytes(addr, b)
}

// MaterializeInput writes msg into static space as a C++-layout object
// (benchmark setup, untimed).
func (s *System) MaterializeInput(msg *dynamic.Message) (uint64, error) {
	return s.mat.Write(msg)
}

// ReadMessage reconstructs the object at addr as a dynamic message.
func (s *System) ReadMessage(t *schema.Message, addr uint64) (*dynamic.Message, error) {
	return s.mat.Read(t, addr)
}

// AllocTopLevel allocates a destination object from the (resettable) heap
// — the user-code allocation preceding a deserialization.
func (s *System) AllocTopLevel(t *schema.Message) (uint64, error) {
	heapMat := layout.NewMaterializer(s.Mem, s.Heap, s.Reg)
	return heapMat.AllocObject(t)
}

// Deserialize runs the timed deserialization of bufLen bytes at bufAddr
// into a fresh top-level object: a batch of one.
func (s *System) Deserialize(t *schema.Message, bufAddr, bufLen uint64) (Result, error) {
	res, objs, err := s.DeserializeBatch(t, []WireRef{{Addr: bufAddr, Len: bufLen}})
	if err != nil {
		return Result{}, err
	}
	res.ObjAddr = objs[0]
	return res, nil
}

// Serialize runs the timed serialization of the object at objAddr: a
// batch of one.
func (s *System) Serialize(t *schema.Message, objAddr uint64) (Result, error) {
	res, refs, err := s.SerializeBatch(t, []uint64{objAddr})
	if err != nil {
		return Result{}, err
	}
	res.WireAddr = refs[0].Addr
	return res, nil
}

// WireRef locates one serialized buffer in simulated memory.
type WireRef struct {
	Addr, Len uint64
}

// DeserializeBatch deserializes a batch of inputs with one completion
// barrier at the end — the §4.4.1 batching pattern the paper's benchmarks
// use, amortizing dispatch and fence costs. Returns the batch Result
// (total cycles and bytes) and the destination object addresses.
func (s *System) DeserializeBatch(t *schema.Message, refs []WireRef) (Result, []uint64, error) {
	objs := make([]uint64, len(refs))
	// A fault anywhere in the batch aborts and rolls back the whole batch
	// (the completion barrier is what commits it), then the batch retries
	// or falls back as a unit.
	var heapMark, arenaMark mem.Mark
	total, err := s.runBatch("deser", t, accelAttempt{
		attempt: func(adtAddr uint64) (Result, error) {
			heapMark, arenaMark = s.Heap.Mark(), s.Arena.Mark()
			var batch Result
			for i, r := range refs {
				obj, err := s.AllocTopLevel(t)
				if err != nil {
					return Result{}, err
				}
				objs[i] = obj
				if _, err := s.Accel.Issue(rocc.Command{Op: rocc.OpDeserInfo, RS1: adtAddr, RS2: obj}); err != nil {
					return Result{}, err
				}
				if _, err := s.Accel.Issue(rocc.Command{Op: rocc.OpDoProtoDeser, RS1: r.Addr, RS2: r.Len}); err != nil {
					return Result{}, err
				}
				batch.Bytes += r.Len
			}
			busy, err := s.Accel.Issue(rocc.Command{Op: rocc.OpBlockForDeserCompletion})
			if err != nil {
				return Result{}, err
			}
			batch.Cycles = busy
			batch.Seconds = s.accelSeconds(busy)
			return batch, nil
		},
		abort: func() (float64, error) {
			s.Heap.Truncate(heapMark)
			s.Arena.Truncate(arenaMark)
			return s.Accel.Deser.Abort(), nil
		},
		fallback: func() (Result, error) {
			var batch Result
			for i, r := range refs {
				obj, err := s.AllocTopLevel(t)
				if err != nil {
					return Result{}, err
				}
				start := s.CPU.Cycles()
				if err := s.CPU.Deserialize(t, r.Addr, r.Len, obj); err != nil {
					return Result{}, err
				}
				batch.Cycles += s.CPU.Cycles() - start
				objs[i] = obj
				batch.Bytes += r.Len
			}
			batch.Seconds = s.CPU.Seconds(batch.Cycles)
			return batch, nil
		},
	})
	if err != nil {
		return Result{}, nil, err
	}
	return total, objs, nil
}

// SerializeBatch serializes a batch of objects with one completion barrier
// at the end, returning the batch Result and per-object output locations.
func (s *System) SerializeBatch(t *schema.Message, objAddrs []uint64) (Result, []WireRef, error) {
	refs := make([]WireRef, len(objAddrs))
	// As with DeserializeBatch, a fault anywhere rolls back and retries
	// (or falls back) the whole batch as a unit.
	var outMark ser.OutMark
	total, err := s.runBatch("ser", t, accelAttempt{
		attempt: func(adtAddr uint64) (Result, error) {
			outMark = s.Accel.Ser.Mark()
			firstOut, firstOp := s.Accel.Ser.Outputs(), len(s.Accel.SerOps)
			for _, obj := range objAddrs {
				if _, err := s.Accel.Issue(rocc.Command{Op: rocc.OpSerInfo}); err != nil {
					return Result{}, err
				}
				if _, err := s.Accel.Issue(rocc.Command{Op: rocc.OpDoProtoSer, RS1: adtAddr, RS2: obj}); err != nil {
					return Result{}, err
				}
			}
			busy, err := s.Accel.Issue(rocc.Command{Op: rocc.OpBlockForSerCompletion})
			if err != nil {
				return Result{}, err
			}
			batch := Result{Cycles: busy, Seconds: s.accelSeconds(busy)}
			for i := range objAddrs {
				addr, n, err := s.Accel.Ser.Output(firstOut + uint64(i))
				if err != nil {
					return Result{}, err
				}
				// The completion record must agree with the unit's own
				// count of the bytes it wrote.
				if n != s.Accel.SerOps[firstOp+i].BytesProduced {
					return Result{}, errors.New("core: serializer length bookkeeping mismatch")
				}
				refs[i] = WireRef{Addr: addr, Len: n}
				batch.Bytes += n
			}
			return batch, nil
		},
		abort: func() (float64, error) {
			cy := s.Accel.Ser.Abort()
			return cy, s.Accel.Ser.Rewind(outMark)
		},
		fallback: func() (Result, error) {
			var batch Result
			for i, obj := range objAddrs {
				start := s.CPU.Cycles()
				addr, n, err := s.CPU.Serialize(t, obj, s.Out)
				if err != nil {
					return Result{}, err
				}
				batch.Cycles += s.CPU.Cycles() - start
				refs[i] = WireRef{Addr: addr, Len: n}
				batch.Bytes += n
			}
			batch.Seconds = s.CPU.Seconds(batch.Cycles)
			return batch, nil
		},
	})
	if err != nil {
		return Result{}, nil, err
	}
	return total, refs, nil
}

// runBatch runs one batch operation through resilient and, while
// attribution is enabled, attaches the batch's cycle attribution. The
// unit's stall cycles count only when the accelerator completed the
// batch; a batch the host core ran is all FSM cycles.
func (s *System) runBatch(op string, t *schema.Message, a accelAttempt) (Result, error) {
	before := s.stalls(op)
	res, err := s.resilient(op, t, a)
	if err != nil || !s.tel.AttributionEnabled() {
		return res, err
	}
	var d [3]float64
	if res.Fault == nil || !res.Fault.FellBack {
		after := s.stalls(op)
		for i := range d {
			d[i] = after[i] - before[i]
		}
	}
	res.Telemetry = &telemetry.OpTelemetry{Attribution: telemetry.NewAttribution(res.Cycles, d[0], d[1], d[2])}
	return res, nil
}

// stalls reads the cumulative stall counters of op's accelerator unit:
// supply-bound (deserializer only), spill and ADT-load stall cycles. A
// software System has no such unit and reads zeros.
func (s *System) stalls(op string) [3]float64 {
	switch {
	case s.Accel == nil:
		return [3]float64{}
	case op == "deser":
		st := s.Accel.Deser.Stats()
		return [3]float64{st.SupplyBoundCycles, st.SpillCycles, st.ADTStallCycles}
	default:
		st := s.Accel.Ser.Stats()
		return [3]float64{0, st.SpillCycles, st.ADTStallCycles}
	}
}

// Clear resets all presence state of the object at objAddr (the §7
// clear operator).
func (s *System) Clear(t *schema.Message, objAddr uint64) (Result, error) {
	return s.resilient("clear", t, accelAttempt{
		attempt: func(adtAddr uint64) (Result, error) {
			busy, err := s.Accel.ClearOp(adtAddr, objAddr)
			if err != nil {
				return Result{}, err
			}
			return Result{Cycles: busy, Seconds: s.accelSeconds(busy), ObjAddr: objAddr}, nil
		},
		abort: func() (float64, error) {
			// Clear is idempotent: a partially-cleared object needs no
			// rollback — the retry or the software fallback re-clears
			// from the start and converges on the same result.
			return s.Accel.Mops.Abort(), nil
		},
		fallback: func() (Result, error) {
			start := s.CPU.Cycles()
			if err := s.CPU.ClearObject(t, objAddr); err != nil {
				return Result{}, err
			}
			cy := s.CPU.Cycles() - start
			return Result{Cycles: cy, Seconds: s.CPU.Seconds(cy), ObjAddr: objAddr}, nil
		},
	})
}

// Copy deep-copies the object at srcObj, returning the new object (the §7
// copy operator).
func (s *System) Copy(t *schema.Message, srcObj uint64) (Result, error) {
	var arenaMark mem.Mark
	return s.resilient("copy", t, accelAttempt{
		attempt: func(adtAddr uint64) (Result, error) {
			arenaMark = s.Arena.Mark()
			busy, dst, err := s.Accel.CopyOp(adtAddr, srcObj)
			if err != nil {
				return Result{}, err
			}
			return Result{Cycles: busy, Seconds: s.accelSeconds(busy), ObjAddr: dst}, nil
		},
		abort: func() (float64, error) {
			// Copy writes only freshly-allocated arena memory, so
			// truncating the arena reverts it completely.
			s.Arena.Truncate(arenaMark)
			return s.Accel.Mops.Abort(), nil
		},
		fallback: func() (Result, error) {
			start := s.CPU.Cycles()
			dst, err := s.CPU.CopyObject(t, srcObj)
			if err != nil {
				return Result{}, err
			}
			cy := s.CPU.Cycles() - start
			return Result{Cycles: cy, Seconds: s.CPU.Seconds(cy), ObjAddr: dst}, nil
		},
	})
}

// Merge merges srcObj into dstObj with proto2 semantics (the §7 merge
// operator).
func (s *System) Merge(t *schema.Message, dstObj, srcObj uint64) (Result, error) {
	return s.resilient("merge", t, accelAttempt{
		attempt: func(adtAddr uint64) (Result, error) {
			busy, err := s.Accel.MergeOp(adtAddr, dstObj, srcObj)
			if err != nil {
				return Result{}, err
			}
			return Result{Cycles: busy, Seconds: s.accelSeconds(busy), ObjAddr: dstObj}, nil
		},
		abort: func() (float64, error) {
			// Merge's validation pre-pass hosts every fault trial before
			// the first mutating write (see mops.Merge), so an aborted
			// merge left the destination untouched — nothing to roll
			// back. A failure after mutation began wraps ErrPoisoned and
			// never reaches here.
			return s.Accel.Mops.Abort(), nil
		},
		fallback: func() (Result, error) {
			start := s.CPU.Cycles()
			if err := s.CPU.MergeObjects(t, dstObj, srcObj); err != nil {
				return Result{}, err
			}
			cy := s.CPU.Cycles() - start
			return Result{Cycles: cy, Seconds: s.CPU.Seconds(cy), ObjAddr: dstObj}, nil
		},
	})
}

// ResetWork rewinds the resettable allocators (heap, accelerator arena,
// serializer output) between benchmark batches, leaving static inputs and
// ADTs intact.
func (s *System) ResetWork() {
	s.Heap.Reset()
	s.Out.Reset()
	if s.Arena != nil {
		s.Arena.Reset()
	}
	if s.Accel != nil {
		s.Accel.Ser.AssignArena(s.serData, s.serPtrs)
	}
}

// ResetAll returns the System to the state New left it in: ResetBatch,
// then the loaded schema is forgotten — the ADT allocator rewinds and its
// region's dirty span is zeroed, and the layout registry restarts type-id
// assignment. After ResetAll the System is bitwise-indistinguishable —
// addresses, latencies, cycle counts — from a freshly constructed one
// with the same Config, which is what lets the Pool recycle Systems
// without perturbing measurements.
func (s *System) ResetAll() {
	s.ResetBatch()
	s.adtAlloc.Reset()
	s.adtAlloc.Region().ResetDirty()
	s.Reg.Reset()
	s.schemaRoots = nil
	s.adts = nil
}

// ResetBatch returns a System to the state a `ResetAll` followed by a
// `LoadSchema` of its already-loaded roots would produce, without paying
// for either: the schema registry, the built ADTs, and the ADT region
// contents are kept (adt.Build is deterministic, so rebuilding them would
// write back the exact same bytes at the exact same addresses), while
// everything a batch can touch is reset — work allocators rewind and
// their regions' dirty spans are zeroed, the cache/TLB hierarchy goes
// cold, the accelerator and CPU cycle accumulators clear, the fault
// schedule restarts, and the telemetry hub resets. Pool.GetLoaded uses
// this to recycle an idle System that already holds the requested schema:
// a batch on a ResetBatch-recycled System is bitwise-indistinguishable
// from one on a freshly built-and-loaded System.
func (s *System) ResetBatch() {
	s.Static.Reset()
	s.Heap.Reset()
	s.Out.Reset()
	s.Static.Region().ResetDirty()
	s.Heap.Region().ResetDirty()
	s.Out.Region().ResetDirty()
	if s.Arena != nil {
		s.Arena.Reset()
		s.Arena.Region().ResetDirty()
	}
	if s.serData != nil {
		s.serData.ResetDirty()
		s.serPtrs.ResetDirty()
	}
	s.MemSys.Reset()
	if s.CPU != nil {
		s.CPU.ResetCycles()
	}
	if s.Accel != nil {
		s.Accel.Reset()
		s.Accel.Ser.AssignArena(s.serData, s.serPtrs)
	}
	s.Inj.Reset()
	s.res = resilienceStats{}
	s.poisoned = false
	s.tel.Reset()
}

// Name returns the system's display name ("riscv-boom", "Xeon",
// "riscv-boom-accel").
func (s *System) Name() string { return s.Cfg.Kind.String() }
