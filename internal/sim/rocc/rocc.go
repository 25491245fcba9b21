// Package rocc models the RoCC custom-instruction interface between the
// application core and the protobuf accelerator (§4.1, §4.4.1, §4.5.2 of
// the paper). Each custom instruction carries two 64-bit register values
// to the accelerator with ones-of-cycles dispatch latency; setup
// instructions ({deser,ser}_info, *_assign_arena) pair with kick-off
// instructions (do_proto_{deser,ser}), and block_for_*_completion commits
// once all in-flight operations have finished — the batching middle ground
// the paper describes, with no software polling.
package rocc

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/deser"
	"protoacc/internal/accel/mops"
	"protoacc/internal/accel/ser"
	"protoacc/internal/faults"
	"protoacc/internal/sim/mem"
	"protoacc/internal/telemetry"
)

// Opcode selects one of the accelerator's custom instructions.
type Opcode uint8

// The accelerator's custom instructions.
const (
	OpDeserAssignArena Opcode = iota
	OpSerAssignArena
	OpDeserInfo
	OpDoProtoDeser
	OpSerInfo
	OpDoProtoSer
	OpBlockForDeserCompletion
	OpBlockForSerCompletion

	// §7 extension: the message-operations unit's instructions. mops_info
	// supplies the ADT (and, for merge, the destination object);
	// do_proto_{clear,copy,merge} kick off the operation.
	OpMopsInfo
	OpDoProtoClear
	OpDoProtoCopy
	OpDoProtoMerge
	OpBlockForMopsCompletion
)

func (o Opcode) String() string {
	names := [...]string{
		"deser_assign_arena", "ser_assign_arena", "deser_info",
		"do_proto_deser", "ser_info", "do_proto_ser",
		"block_for_deser_completion", "block_for_ser_completion",
		"mops_info", "do_proto_clear", "do_proto_copy", "do_proto_merge",
		"block_for_mops_completion",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("rocc.Opcode(%d)", uint8(o))
}

// Command is one RoCC instruction: an opcode plus two source registers.
type Command struct {
	Op       Opcode
	RS1, RS2 uint64
}

// Errors.
var (
	ErrNoInfo = errors.New("rocc: do_proto_* issued without preceding *_info")
	ErrState  = errors.New("rocc: protocol violation")
)

// DispatchCycles is the core-side cost of issuing one RoCC instruction
// ("low latency (ones-of-cycles)", §4.1).
const DispatchCycles = 2.0

// FenceCycles is the cost of the fence between CPU protobuf work and
// accelerator work (§4.1).
const FenceCycles = 10.0

// Accelerator couples the RoCC command router to the deserializer and
// serializer units (the CMD Router of Figures 9 and 10).
type Accelerator struct {
	Deser *deser.Unit
	Ser   *ser.Unit
	Mops  *mops.Unit // §7 extension: clear/copy/merge
	Mem   *mem.Memory

	// Pending setup state.
	deserADT, deserObj uint64
	deserInfoValid     bool
	serHasbitsOff      uint64
	serMinMax          uint64
	serInfoValid       bool
	mopsADT, mopsDst   uint64
	mopsInfoValid      bool

	// Tracer, when set and enabled, receives one event per issued
	// command on the router's cumulative-dispatch timeline (do_proto_*
	// kick-offs become spans covering the unit's busy time). Nil is
	// valid and means no tracing.
	Tracer *telemetry.Tracer

	// Inj, when non-nil and enabled, injects simulated RoCC queue
	// timeouts: a do_proto_* command that trials positive is dropped by
	// the router (the core gave up waiting on the queue) before reaching
	// its unit. Assigned by core.New; nil is valid (injection off).
	Inj *faults.Injector

	// Cycle accounting since the last block_for_*_completion.
	dispatch      float64
	deserInFlight float64
	serInFlight   float64
	mopsInFlight  float64

	// Telemetry counters (cumulative until Reset; barriers do not clear
	// them). cumDispatch is the router's own timeline for trace
	// timestamps; pending/queueHighWater track how many do_proto_*
	// operations were outstanding between barriers at the worst point.
	commands       uint64
	fences         uint64
	deserOps       uint64
	serOps         uint64
	mopsOps        uint64
	cumDispatch    float64
	pendingDeser   int
	pendingSer     int
	pendingMops    int
	queueHighWater int

	// Completed operation stats, appended per do_proto_*.
	DeserOps []deser.Stats
	SerOps   []ser.Stats
	MopsOps  []mops.Stats

	// CopyResults records the destination addresses do_proto_copy
	// produced (the value the instruction returns in rd).
	CopyResults []uint64
}

// CollectTelemetry implements telemetry.Collector.
func (a *Accelerator) CollectTelemetry(emit func(name string, value float64)) {
	emit("commands", float64(a.commands))
	emit("fences", float64(a.fences))
	emit("deser_ops", float64(a.deserOps))
	emit("ser_ops", float64(a.serOps))
	emit("mops_ops", float64(a.mopsOps))
	emit("dispatch_cycles", a.cumDispatch)
	emit("queue_high_water", float64(a.queueHighWater))
}

// traceCmd emits one command event on the router's dispatch timeline;
// dur > 0 marks a do_proto_* kick-off spanning the unit's busy time.
func (a *Accelerator) traceCmd(op Opcode, rs1 uint64, dur float64) {
	if a.Tracer.Enabled() {
		a.Tracer.Emit(telemetry.Event{
			Unit: "rocc", Name: op.String(), Cycle: a.cumDispatch, Dur: dur, Pos: rs1,
		})
	}
}

// enqueued bumps the per-class outstanding-operation count and the
// high-water mark across all classes.
func (a *Accelerator) enqueued(class *int) {
	*class++
	if q := a.pendingDeser + a.pendingSer + a.pendingMops; q > a.queueHighWater {
		a.queueHighWater = q
	}
}

// Issue executes one RoCC instruction. Operations complete "in the
// background": their cycle counts accumulate until the matching
// block_for_*_completion instruction is issued, whose return value is the
// total accelerator-busy time for the batch.
//
// Any error drops all pending *_info latches: a protocol violation or a
// faulted operation resets the command decoder, so a stale setup latch
// can never pair with a later well-formed kick-off sequence.
func (a *Accelerator) Issue(cmd Command) (float64, error) {
	busy, err := a.issue(cmd)
	if err != nil {
		a.clearInfo()
	}
	return busy, err
}

func (a *Accelerator) issue(cmd Command) (float64, error) {
	a.dispatch += DispatchCycles
	a.cumDispatch += DispatchCycles
	a.commands++
	switch cmd.Op {
	case OpDeserAssignArena, OpSerAssignArena:
		// Arena regions are assigned via AssignArenas (addresses alone
		// are not enough to recover region bounds in the model).
		a.traceCmd(cmd.Op, cmd.RS1, 0)
		return 0, nil
	case OpDeserInfo:
		a.deserADT, a.deserObj = cmd.RS1, cmd.RS2
		a.deserInfoValid = true
		a.traceCmd(cmd.Op, cmd.RS1, 0)
		return 0, nil
	case OpDoProtoDeser:
		if !a.deserInfoValid {
			return 0, ErrNoInfo
		}
		a.deserInfoValid = false
		if err := a.Inj.At(faults.SiteRoCCTimeout); err != nil {
			return 0, err
		}
		st, err := a.Deser.Deserialize(a.deserADT, a.deserObj, cmd.RS1, cmd.RS2)
		if err != nil {
			return 0, err
		}
		a.DeserOps = append(a.DeserOps, st)
		a.deserInFlight += st.Cycles
		a.deserOps++
		a.enqueued(&a.pendingDeser)
		a.traceCmd(cmd.Op, cmd.RS1, st.Cycles)
		return 0, nil
	case OpSerInfo:
		a.serHasbitsOff, a.serMinMax = cmd.RS1, cmd.RS2
		a.serInfoValid = true
		a.traceCmd(cmd.Op, cmd.RS1, 0)
		return 0, nil
	case OpDoProtoSer:
		if !a.serInfoValid {
			return 0, ErrNoInfo
		}
		a.serInfoValid = false
		if err := a.Inj.At(faults.SiteRoCCTimeout); err != nil {
			return 0, err
		}
		st, err := a.Ser.Serialize(cmd.RS1, cmd.RS2)
		if err != nil {
			return 0, err
		}
		a.SerOps = append(a.SerOps, st)
		a.serInFlight += st.Cycles
		a.serOps++
		a.enqueued(&a.pendingSer)
		a.traceCmd(cmd.Op, cmd.RS1, st.Cycles)
		return 0, nil
	case OpBlockForDeserCompletion:
		busy := a.deserInFlight + a.dispatch + FenceCycles
		a.deserInFlight, a.dispatch = 0, 0
		a.fences++
		a.pendingDeser = 0
		a.traceCmd(cmd.Op, 0, 0)
		return busy, nil
	case OpBlockForSerCompletion:
		busy := a.serInFlight + a.dispatch + FenceCycles
		a.serInFlight, a.dispatch = 0, 0
		a.fences++
		a.pendingSer = 0
		a.traceCmd(cmd.Op, 0, 0)
		return busy, nil
	case OpMopsInfo:
		a.mopsADT, a.mopsDst = cmd.RS1, cmd.RS2
		a.mopsInfoValid = true
		a.traceCmd(cmd.Op, cmd.RS1, 0)
		return 0, nil
	case OpDoProtoClear:
		if !a.mopsInfoValid {
			return 0, ErrNoInfo
		}
		a.mopsInfoValid = false
		if err := a.Inj.At(faults.SiteRoCCTimeout); err != nil {
			return 0, err
		}
		st, err := a.Mops.Clear(a.mopsADT, cmd.RS1)
		if err != nil {
			return 0, err
		}
		a.MopsOps = append(a.MopsOps, st)
		a.mopsInFlight += st.Cycles
		a.mopsOps++
		a.enqueued(&a.pendingMops)
		a.traceCmd(cmd.Op, cmd.RS1, st.Cycles)
		return 0, nil
	case OpDoProtoCopy:
		if !a.mopsInfoValid {
			return 0, ErrNoInfo
		}
		a.mopsInfoValid = false
		if err := a.Inj.At(faults.SiteRoCCTimeout); err != nil {
			return 0, err
		}
		dst, st, err := a.Mops.Copy(a.mopsADT, cmd.RS1)
		if err != nil {
			return 0, err
		}
		a.MopsOps = append(a.MopsOps, st)
		a.CopyResults = append(a.CopyResults, dst)
		a.mopsInFlight += st.Cycles
		a.mopsOps++
		a.enqueued(&a.pendingMops)
		a.traceCmd(cmd.Op, cmd.RS1, st.Cycles)
		return 0, nil
	case OpDoProtoMerge:
		if !a.mopsInfoValid {
			return 0, ErrNoInfo
		}
		a.mopsInfoValid = false
		if err := a.Inj.At(faults.SiteRoCCTimeout); err != nil {
			return 0, err
		}
		st, err := a.Mops.Merge(a.mopsADT, a.mopsDst, cmd.RS1)
		if err != nil {
			return 0, err
		}
		a.MopsOps = append(a.MopsOps, st)
		a.mopsInFlight += st.Cycles
		a.mopsOps++
		a.enqueued(&a.pendingMops)
		a.traceCmd(cmd.Op, cmd.RS1, st.Cycles)
		return 0, nil
	case OpBlockForMopsCompletion:
		busy := a.mopsInFlight + a.dispatch + FenceCycles
		a.mopsInFlight, a.dispatch = 0, 0
		a.fences++
		a.pendingMops = 0
		a.traceCmd(cmd.Op, 0, 0)
		return busy, nil
	default:
		return 0, fmt.Errorf("%w: unknown opcode %v", ErrState, cmd.Op)
	}
}

// clearInfo drops every pending *_info latch, returning the command
// decoder to its idle state.
func (a *Accelerator) clearInfo() {
	a.deserADT, a.deserObj, a.deserInfoValid = 0, 0, false
	a.serHasbitsOff, a.serMinMax, a.serInfoValid = 0, 0, false
	a.mopsADT, a.mopsDst, a.mopsInfoValid = 0, 0, false
}

// AbortInFlight drains the router after a faulted operation: completed
// in-flight operations are committed (their cycles, plus dispatch and the
// fence, are returned as busy time exactly as a barrier would), pending
// counts and setup latches are dropped. The partially-executed operation
// itself is not included — its attempt cycles come from the unit's own
// Abort method.
func (a *Accelerator) AbortInFlight() float64 {
	busy := a.deserInFlight + a.serInFlight + a.mopsInFlight + a.dispatch + FenceCycles
	a.deserInFlight, a.serInFlight, a.mopsInFlight, a.dispatch = 0, 0, 0, 0
	a.fences++
	a.pendingDeser, a.pendingSer, a.pendingMops = 0, 0, 0
	a.clearInfo()
	return busy
}

// Timeline returns the router's cumulative-dispatch timestamp, the
// timeline trace events are stamped on.
func (a *Accelerator) Timeline() float64 { return a.cumDispatch }

// Reset returns the accelerator to its post-construction state: pending
// setup, in-flight cycle accounting, the completed-operation logs, and
// the units' cumulative counters are all cleared. Required before reusing
// a pooled System so cycle deltas start from zero exactly as they would
// on a fresh accelerator.
//
// The per-operation stat logs are truncated in place rather than
// reallocated: a recycled System appends one Stats record per do_proto_*
// element, and dropping the backing arrays made every batch re-grow them
// element by element (measured while profiling the serving path).
func (a *Accelerator) Reset() {
	a.clearInfo()
	a.dispatch, a.deserInFlight, a.serInFlight, a.mopsInFlight = 0, 0, 0, 0
	a.DeserOps, a.SerOps, a.MopsOps, a.CopyResults =
		a.DeserOps[:0], a.SerOps[:0], a.MopsOps[:0], a.CopyResults[:0]
	a.commands, a.fences, a.deserOps, a.serOps, a.mopsOps = 0, 0, 0, 0, 0
	a.cumDispatch = 0
	a.pendingDeser, a.pendingSer, a.pendingMops, a.queueHighWater = 0, 0, 0, 0
	a.Deser.ResetStats()
	a.Ser.ResetStats()
	a.Mops.ResetStats()
}

// AssignArenas installs the accelerator arena regions (the model-level
// realization of the *_assign_arena instructions).
func (a *Accelerator) AssignArenas(deserArena *mem.Allocator, serData, serPtrs *mem.Region) {
	if deserArena != nil {
		a.Deser.Arena = deserArena
	}
	if serData != nil {
		a.Ser.AssignArena(serData, serPtrs)
	}
}

// ClearOp is the convenience (mops_info, do_proto_clear, barrier) triple.
func (a *Accelerator) ClearOp(adtAddr, objAddr uint64) (float64, error) {
	if _, err := a.Issue(Command{Op: OpMopsInfo, RS1: adtAddr}); err != nil {
		return 0, err
	}
	if _, err := a.Issue(Command{Op: OpDoProtoClear, RS1: objAddr}); err != nil {
		return 0, err
	}
	return a.Issue(Command{Op: OpBlockForMopsCompletion})
}

// CopyOp deep-copies srcObj into the arena, returning busy cycles and the
// new object's address.
func (a *Accelerator) CopyOp(adtAddr, srcObj uint64) (float64, uint64, error) {
	if _, err := a.Issue(Command{Op: OpMopsInfo, RS1: adtAddr}); err != nil {
		return 0, 0, err
	}
	if _, err := a.Issue(Command{Op: OpDoProtoCopy, RS1: srcObj}); err != nil {
		return 0, 0, err
	}
	busy, err := a.Issue(Command{Op: OpBlockForMopsCompletion})
	if err != nil {
		return 0, 0, err
	}
	return busy, a.CopyResults[len(a.CopyResults)-1], nil
}

// MergeOp merges srcObj into dstObj.
func (a *Accelerator) MergeOp(adtAddr, dstObj, srcObj uint64) (float64, error) {
	if _, err := a.Issue(Command{Op: OpMopsInfo, RS1: adtAddr, RS2: dstObj}); err != nil {
		return 0, err
	}
	if _, err := a.Issue(Command{Op: OpDoProtoMerge, RS1: srcObj}); err != nil {
		return 0, err
	}
	return a.Issue(Command{Op: OpBlockForMopsCompletion})
}
