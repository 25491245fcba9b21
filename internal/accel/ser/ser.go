// Package ser models the ProtoAcc serializer unit (§4.5 of the paper):
// the frontend that scans the sparse hasbits and is_submessage bit fields,
// the parallel field serializer units, and the memwriter that sequences
// output and injects sub-message keys.
//
// The critical design point is reproduced literally: fields are visited in
// reverse field-number order and the output buffer is written from high to
// low addresses, producing byte-identical output to a software serializer
// that works in increasing field order — while making sub-message lengths
// known by the time their key must be written (§4.5.1). Output therefore
// never needs a separate ByteSize pass, which is where a large share of
// the CPU's serialization cycles go (Figure 2).
//
// Cycle accounting: the frontend, the pool of field serializer units, and
// the memwriter are pipeline stages that run concurrently; the model
// accumulates per-stage cycle totals and takes their maximum as the
// operation's duration, then adds serial overheads (dispatch, sub-message
// context switches, stack spills).
package ser

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/adt"
	"protoacc/internal/accel/layout"
	"protoacc/internal/faults"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
	"protoacc/internal/telemetry"
)

// Errors surfaced by the unit.
var (
	ErrNoArena    = errors.New("ser: no output arena assigned")
	ErrArenaFull  = errors.New("ser: serializer output arena exhausted")
	ErrPtrBufFull = errors.New("ser: serialized-output pointer buffer full")
	ErrTooDeep    = errors.New("ser: context stack exceeds architectural limit")
)

// Config holds the unit's microarchitectural parameters.
type Config struct {
	// NumFieldUnits is the number of parallel field serializer units
	// (§4.5.4, parameterizable).
	NumFieldUnits int
	// MemwriterWidth is the output bytes the memwriter drains per cycle.
	MemwriterWidth uint64
	// OnChipStackDepth / SpillPenalty / MaxDepth: as in the deserializer.
	OnChipStackDepth int
	SpillPenalty     float64
	MaxDepth         int
	// HiddenLatency is absorbed by unit-internal buffering.
	HiddenLatency uint64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		NumFieldUnits:    4,
		MemwriterWidth:   16,
		OnChipStackDepth: 25,
		SpillPenalty:     12,
		MaxDepth:         100,
		HiddenLatency:    1,
	}
}

// Stats reports what a serialization did. SpillCycles and ADTStallCycles
// classify portions of the frontend's cycles by stall cause for the
// telemetry layer's attribution breakdown.
type Stats struct {
	Cycles          float64
	FrontendCycles  float64
	FieldUnitCycles float64 // summed across units before dividing
	MemwriterCycles float64
	BytesProduced   uint64
	FieldsEmitted   uint64
	Messages        uint64
	StackSpills     uint64
	MaxDepthSeen    int

	// SpillCycles is the total context-stack spill penalty paid.
	SpillCycles float64
	// ADTStallCycles is frontend time blocked on ADT header/entry loads.
	ADTStallCycles float64
}

// Unit is one serializer unit instance.
type Unit struct {
	Mem  *mem.Memory
	Port *memmodel.Port
	Cfg  Config

	// Tracer, when enabled, buffers message/field events on the
	// System-owned trace stream. Assigned by core.New; nil is valid.
	Tracer *telemetry.Tracer

	// Inj, when non-nil and enabled, injects simulated faults at the
	// unit's named sites: memloader faults on field-slot loads, memwriter
	// faults on output stores, and context-stack spill failures on
	// sub-message pushes. Injected faults are phantom (the access never
	// happens). Assigned by core.New; nil is valid (injection off).
	Inj *faults.Injector

	// Output arena state (§4.5.1): a data buffer written high-to-low and
	// a pointer buffer recording each completed output.
	outBase, outTop uint64
	ptrBase         uint64
	ptrCap, ptrLen  uint64
	// lowWater is the lowest output-arena address written since the arena
	// was assigned. The memwriter's regime is strictly high-to-low, so an
	// aborted operation's writes occupy exactly [lowWater, pre-op outTop)
	// — the span Rewind scrubs.
	lowWater uint64

	stats Stats

	// Stage-cycle marks of the in-flight Serialize, for Abort's pipeline
	// duration computation when the op dies mid-flight.
	opFrontStart, opUnitStart, opWriterStart float64

	// Per-handle-field-op work tracking: one field serializer unit owns
	// one op, so parallelism is op-granular, not element-granular. The
	// makespan over ops bounds the field-unit stage. curOp indexes the
	// op currently charging into opWork (-1: none); index-based tracking
	// keeps the hot field loop free of per-field boxing and closures.
	opWork []float64
	curOp  int

	// traced caches Tracer.Enabled() for the duration of one Serialize so
	// the per-field trace hook is a single flag test, not an interface
	// indirection per field.
	traced bool

	// scratch is the wire-encoding staging buffer reused across fields;
	// writeBack copies it into the output arena before the next use.
	scratch []byte
}

// New creates a serializer unit.
func New(m *mem.Memory, port *memmodel.Port, cfg Config) *Unit {
	return &Unit{Mem: m, Port: port, Cfg: cfg, curOp: -1}
}

// AssignArena implements ser_assign_arena: dataRegion receives serialized
// bytes (written from its end toward its base) and ptrRegion records
// {address, length} pairs of completed outputs.
func (u *Unit) AssignArena(dataRegion, ptrRegion *mem.Region) {
	u.outBase = dataRegion.Base
	u.outTop = dataRegion.End()
	u.ptrBase = ptrRegion.Base
	u.ptrCap = ptrRegion.Size() / 16
	u.ptrLen = 0
	u.lowWater = dataRegion.End()
}

// Outputs returns how many serialized outputs the arena holds.
func (u *Unit) Outputs() uint64 { return u.ptrLen }

// Output returns the address and length of the i-th serialized output
// (the software-visible completion record, §4.5.2).
func (u *Unit) Output(i uint64) (addr, length uint64, err error) {
	if i >= u.ptrLen {
		return 0, 0, fmt.Errorf("ser: output %d of %d", i, u.ptrLen)
	}
	if addr, err = u.Mem.Read64(u.ptrBase + i*16); err != nil {
		return 0, 0, err
	}
	length, err = u.Mem.Read64(u.ptrBase + i*16 + 8)
	return addr, length, err
}

// Stats returns cumulative statistics.
func (u *Unit) Stats() Stats { return u.stats }

// CollectTelemetry registers the unit's counters (telemetry.Collector).
func (u *Unit) CollectTelemetry(emit func(name string, value float64)) {
	emit("cycles", u.stats.Cycles)
	emit("frontend_cycles", u.stats.FrontendCycles)
	emit("field_unit_cycles", u.stats.FieldUnitCycles)
	emit("memwriter_cycles", u.stats.MemwriterCycles)
	emit("spill_cycles", u.stats.SpillCycles)
	emit("adt_stall_cycles", u.stats.ADTStallCycles)
	emit("bytes_produced", float64(u.stats.BytesProduced))
	emit("fields_emitted", float64(u.stats.FieldsEmitted))
	emit("messages", float64(u.stats.Messages))
	emit("stack_spills", float64(u.stats.StackSpills))
	emit("max_depth_seen", float64(u.stats.MaxDepthSeen))
	emit("outputs", float64(u.ptrLen))
}

// trace emits one event on the System-owned stream, timestamped with the
// frontend's cumulative cycle counter.
func (u *Unit) trace(name string, depth int, field int32, note string) {
	if u.traced {
		u.Tracer.Emit(telemetry.Event{
			Unit: "ser", Name: name, Cycle: u.stats.FrontendCycles,
			Depth: depth, Field: field, Note: note,
		})
	}
}

// ResetStats clears the accumulators and per-op work tracking, returning
// the unit to its post-construction state (the output arena is
// re-assigned separately via AssignArena).
func (u *Unit) ResetStats() {
	u.stats = Stats{}
	u.opWork = u.opWork[:0]
	u.curOp = -1
	u.opFrontStart, u.opUnitStart, u.opWriterStart = 0, 0, 0
}

// OutMark captures the output-arena position (completed outputs, data
// top, low-water) for transactional rollback via Rewind.
type OutMark struct {
	outputs, top, low uint64
}

// Mark returns the current output-arena position. Take it before issuing
// an operation; pass it to Rewind to abort.
func (u *Unit) Mark() OutMark {
	return OutMark{outputs: u.ptrLen, top: u.outTop, low: u.lowWater}
}

// Rewind aborts everything emitted since the Mark was taken: the data
// span written below the marked top and any completion records (including
// a partially-written one) are scrubbed to zero, and the arena cursors
// are restored. After Rewind no partial output is observable — the
// serializer is positioned exactly where it was at Mark time.
func (u *Unit) Rewind(m OutMark) error {
	if u.lowWater < m.top {
		b, err := u.Mem.Slice(u.lowWater, m.top-u.lowWater)
		if err != nil {
			return err
		}
		for i := range b {
			b[i] = 0
		}
	}
	// One extra slot covers a completion record that faulted between its
	// two word writes.
	endSlot := u.ptrLen + 1
	if endSlot > u.ptrCap {
		endSlot = u.ptrCap
	}
	if m.outputs < endSlot {
		b, err := u.Mem.Slice(u.ptrBase+m.outputs*16, (endSlot-m.outputs)*16)
		if err != nil {
			return err
		}
		for i := range b {
			b[i] = 0
		}
	}
	u.ptrLen = m.outputs
	u.outTop = m.top
	u.lowWater = m.low
	return nil
}

// Abort accounts the in-flight operation's cycles after a fault: the
// pipeline-stage work accumulated since the op began is folded into the
// cumulative cycle counter (mirroring the duration computation of a
// successful Serialize) and returned so the dispatch layer can charge it
// to the recovery episode. Output rollback is separate (Mark/Rewind).
func (u *Unit) Abort() float64 {
	front := u.stats.FrontendCycles - u.opFrontStart
	units := (u.stats.FieldUnitCycles - u.opUnitStart) / float64(u.Cfg.NumFieldUnits)
	for _, w := range u.opWork {
		if w > units {
			units = w
		}
	}
	writer := u.stats.MemwriterCycles - u.opWriterStart
	dur := front
	if units > dur {
		dur = units
	}
	if writer > dur {
		dur = writer
	}
	u.stats.Cycles += dur
	u.opWork = u.opWork[:0]
	u.curOp = -1
	u.opFrontStart = u.stats.FrontendCycles
	u.opUnitStart = u.stats.FieldUnitCycles
	u.opWriterStart = u.stats.MemwriterCycles
	return dur
}

func (u *Unit) frontend(c float64) { u.stats.FrontendCycles += c }

// fieldUnit charges work to the current handle-field-op.
func (u *Unit) fieldUnit(c float64) {
	u.stats.FieldUnitCycles += c
	if u.curOp >= 0 {
		u.opWork[u.curOp] += c
	}
}

// blockingLoad charges a frontend-blocking load.
func (u *Unit) blockingLoad(addr, size uint64) {
	lat := u.Port.Access(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.stats.FrontendCycles += float64(lat - u.Cfg.HiddenLatency)
	}
}

// adtLoad is a blockingLoad of ADT-resident metadata (headers, entries,
// is_submessage bit words); the stall is additionally attributed to the
// ADT-miss class.
func (u *Unit) adtLoad(addr, size uint64) {
	lat := u.Port.Access(addr, size)
	if lat > u.Cfg.HiddenLatency {
		stall := float64(lat - u.Cfg.HiddenLatency)
		u.stats.FrontendCycles += stall
		u.stats.ADTStallCycles += stall
	}
}

// unitLoad charges a field-serializer-unit load (overlapped across units).
func (u *Unit) unitLoad(addr, size uint64) {
	lat := u.Port.StreamAccess(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.fieldUnit(float64(lat-u.Cfg.HiddenLatency) / 2)
	}
}

// outWrite tracks memwriter output traffic (streaming, high-to-low).
func (u *Unit) outWrite(addr, size uint64) {
	lat := u.Port.StreamAccess(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.stats.MemwriterCycles += float64(lat-u.Cfg.HiddenLatency) / 4
	}
}

// Serialize implements do_proto_ser for the object at objAddr whose type's
// ADT is at adtAddr. The serialized bytes land in the output arena and a
// completion record is appended to the pointer buffer.
func (u *Unit) Serialize(adtAddr, objAddr uint64) (Stats, error) {
	if u.outTop == 0 {
		return Stats{}, ErrNoArena
	}
	before := u.stats
	u.opWork = u.opWork[:0]
	u.curOp = -1
	u.traced = u.Tracer.Enabled()
	u.frontend(8) // RoCC dispatch + context stack init

	u.opFrontStart = u.stats.FrontendCycles
	u.opUnitStart = u.stats.FieldUnitCycles
	u.opWriterStart = u.stats.MemwriterCycles

	start, err := u.serializeMessage(adtAddr, objAddr, u.outTop, 1)
	if err != nil {
		return Stats{}, err
	}
	length := u.outTop - start
	u.outTop = start
	u.stats.BytesProduced += length
	u.stats.Messages++

	// Completion record.
	if u.ptrLen >= u.ptrCap {
		return Stats{}, ErrPtrBufFull
	}
	if err := u.Mem.Write64(u.ptrBase+u.ptrLen*16, start); err != nil {
		return Stats{}, err
	}
	if err := u.Mem.Write64(u.ptrBase+u.ptrLen*16+8, length); err != nil {
		return Stats{}, err
	}
	u.ptrLen++

	// The memwriter drains MemwriterWidth bytes per cycle.
	u.stats.MemwriterCycles += float64((length + u.Cfg.MemwriterWidth - 1) / u.Cfg.MemwriterWidth)

	// Pipeline duration: the slowest stage bounds the operation. The
	// field-unit stage is bounded below by its longest single op (one op
	// cannot be split across units) and by total work over the unit
	// count.
	front := u.stats.FrontendCycles - u.opFrontStart
	units := (u.stats.FieldUnitCycles - u.opUnitStart) / float64(u.Cfg.NumFieldUnits)
	for _, w := range u.opWork {
		if w > units {
			units = w
		}
	}
	writer := u.stats.MemwriterCycles - u.opWriterStart
	dur := front
	if units > dur {
		dur = units
	}
	if writer > dur {
		dur = writer
	}
	u.stats.Cycles += dur
	// Close the op's stage window so a spurious Abort charges nothing.
	u.opFrontStart = u.stats.FrontendCycles
	u.opUnitStart = u.stats.FieldUnitCycles
	u.opWriterStart = u.stats.MemwriterCycles

	delta := u.stats
	delta.Cycles -= before.Cycles
	delta.FrontendCycles -= before.FrontendCycles
	delta.FieldUnitCycles -= before.FieldUnitCycles
	delta.MemwriterCycles -= before.MemwriterCycles
	delta.SpillCycles -= before.SpillCycles
	delta.ADTStallCycles -= before.ADTStallCycles
	delta.BytesProduced -= before.BytesProduced
	delta.FieldsEmitted -= before.FieldsEmitted
	delta.Messages -= before.Messages
	delta.StackSpills -= before.StackSpills
	return delta, nil
}

// writeBack writes b so that its last byte lands at end-1, returning the
// new (lower) end. This is the memwriter's high-to-low regime.
func (u *Unit) writeBack(end uint64, b []byte) (uint64, error) {
	if err := u.Inj.At(faults.SiteMemwriter); err != nil {
		return 0, err
	}
	n := uint64(len(b))
	if end < u.outBase+n {
		return 0, ErrArenaFull
	}
	pos := end - n
	if err := u.Mem.WriteBytes(pos, b); err != nil {
		return 0, err
	}
	if pos < u.lowWater {
		u.lowWater = pos
	}
	u.outWrite(pos, n)
	return pos, nil
}

// serializeMessage emits the message at objAddr (type ADT at adtAddr)
// ending at `end`, returning the start address of its encoding.
func (u *Unit) serializeMessage(adtAddr, objAddr, end uint64, depth int) (uint64, error) {
	if depth > u.Cfg.MaxDepth {
		return 0, ErrTooDeep
	}
	if depth > u.stats.MaxDepthSeen {
		u.stats.MaxDepthSeen = depth
	}
	header, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return 0, err
	}
	u.adtLoad(adtAddr, adt.HeaderSize)
	u.trace("message", depth, 0, "")

	rng := header.FieldRange()
	if rng == 0 {
		return end, nil // empty type: zero bytes (Figure 1)
	}
	words := (uint64(rng) + 63) / 64
	// Frontend loads hasbits and is_submessage bit fields in parallel
	// (§4.5.3): one pass of word loads each. The word values are kept in
	// a per-call buffer so the reverse field scan below tests bits without
	// re-reading simulated memory per field; the buffer is per call (not
	// unit-owned scratch) because sub-message recursion interleaves with
	// the parent's field loop.
	hbBase := objAddr + header.HasbitsOffset
	sbBase := adtAddr + adt.HeaderSize + uint64(rng)*adt.EntrySize
	var hbStack [4]uint64
	hbWords := hbStack[:0]
	if words > uint64(len(hbStack)) {
		hbWords = make([]uint64, 0, words)
	}
	for w := uint64(0); w < words; w++ {
		hw, err := u.Mem.Read64(hbBase + w*8)
		if err != nil {
			return 0, err
		}
		hbWords = append(hbWords, hw)
		u.blockingLoad(hbBase+w*8, 8)
		u.adtLoad(sbBase+w*8, 8)
		u.frontend(1) // per-word scan step
	}

	pos := end
	// Reverse field-number order (§4.5.1).
	for num := header.MaxField; num >= header.MinField; num-- {
		idx := uint64(num - header.MinField)
		if hbWords[idx/64]>>(idx%64)&1 == 0 {
			continue // absent: only the scanned bit was spent
		}
		u.frontend(2.5) // present field: issue ADT load, construct handle-field-op
		u.stats.FieldsEmitted++
		entryAddr := adtAddr + adt.HeaderSize + idx*adt.EntrySize
		entry, err := adt.ReadEntry(u.Mem, adtAddr, header, num)
		if err != nil {
			return 0, fmt.Errorf("ser: hasbit set for undefined field %d of ADT 0x%x: %w", num, adtAddr, err)
		}
		u.adtLoad(entryAddr, adt.EntrySize)
		u.trace("field", depth, num, entry.Kind.String())

		// Open a handle-field-op work window (see curOp); restore the
		// enclosing op's window when the field completes.
		prevOp := u.curOp
		u.curOp = len(u.opWork)
		u.opWork = append(u.opWork, 0)
		pos, err = u.serializeField(entry, num, objAddr, pos, depth)
		u.curOp = prevOp
		if err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// readSlot loads a field slot via a field serializer unit.
func (u *Unit) readSlot(addr, size uint64) (uint64, error) {
	if err := u.Inj.At(faults.SiteMemloader); err != nil {
		return 0, err
	}
	u.unitLoad(addr, size)
	return u.Mem.ReadUint(addr, size)
}

func (u *Unit) serializeField(e adt.Entry, num int32, objAddr, pos uint64, depth int) (uint64, error) {
	slotAddr := objAddr + uint64(e.Offset)
	switch {
	case e.Repeated:
		return u.serializeRepeated(e, num, slotAddr, pos, depth)
	case e.Kind == schema.KindMessage:
		ptr, err := u.readSlot(slotAddr, 8)
		if err != nil {
			return 0, err
		}
		if ptr == 0 {
			return pos, nil // hasbit set but null pointer: nothing to emit
		}
		return u.serializeSubMessage(e.SubADT, ptr, num, pos, depth)
	case e.Kind.Class() == schema.ClassBytesLike:
		ptr, err := u.readSlot(slotAddr, 8)
		if err != nil {
			return 0, err
		}
		n, err := u.readSlot(slotAddr+8, 8)
		if err != nil {
			return 0, err
		}
		return u.emitString(num, ptr, n, pos)
	default:
		bits, err := u.readSlot(slotAddr, layout.ScalarSlot(e.Kind))
		if err != nil {
			return 0, err
		}
		u.fieldUnit(1) // single-cycle encode
		return u.emitKV(num, e.Kind, layout.SlotBits(e.Kind, bits), pos)
	}
}

// emitKV writes one scalar key/value pair ending at pos. The key and
// value are staged together in the scratch buffer and retired by a single
// memwriter transaction — the hardware's output sequencer drains the
// whole chunk at once (§4.5.5), and charging the port once per chunk
// instead of once per component halves the hot path's port walks. Value
// encoding is single-cycle in hardware regardless of varint width
// (§5.1.2); appending into the reusable scratch buffer keeps the
// per-field path allocation-free.
func (u *Unit) emitKV(num int32, k schema.Kind, bits uint64, pos uint64) (uint64, error) {
	u.scratch = wire.AppendTag(u.scratch[:0], num, k.WireType())
	u.scratch = k.AppendValue(u.scratch, bits)
	u.fieldUnit(1) // key construction
	// Round-robin output sequencing of the chunk (§4.5.5): select + drain.
	u.stats.MemwriterCycles += 2
	return u.writeBack(pos, u.scratch)
}

// emitString writes tag + length + payload (payload copied from the
// object's string buffer at memwriter width).
func (u *Unit) emitString(num int32, ptr, n, pos uint64) (uint64, error) {
	if pos < u.outBase+n {
		return 0, ErrArenaFull
	}
	payloadPos := pos - n
	if n > 0 {
		if err := u.Inj.At(faults.SiteMemwriter); err != nil {
			return 0, err
		}
		src, err := u.Mem.View(ptr, n)
		if err != nil {
			return 0, err
		}
		if err := u.Mem.WriteBytes(payloadPos, src); err != nil {
			return 0, err
		}
		if payloadPos < u.lowWater {
			u.lowWater = payloadPos
		}
		u.unitLoad(ptr, n)
		u.outWrite(payloadPos, n)
		u.fieldUnit(float64((n + u.Cfg.MemwriterWidth - 1) / u.Cfg.MemwriterWidth))
	}
	pos = payloadPos
	u.fieldUnit(1) // length + key construction
	u.stats.MemwriterCycles += 2
	u.scratch = wire.AppendTag(u.scratch[:0], num, wire.TypeBytes)
	u.scratch = wire.AppendVarint(u.scratch, n)
	return u.writeBack(pos, u.scratch)
}

// serializeSubMessage recurses with a context-stack push/pop; the
// memwriter injects the key+length once the body is complete (§4.5.5).
func (u *Unit) serializeSubMessage(subADT, subObj uint64, num int32, pos uint64, depth int) (uint64, error) {
	if err := u.Inj.At(faults.SiteStackSpill); err != nil {
		return 0, err
	}
	u.trace("subPush", depth, num, "")
	u.frontend(5) // context save + sub-message pointer/ADT loads issued
	if depth+1 > u.Cfg.OnChipStackDepth {
		u.stats.StackSpills++
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.frontend(u.Cfg.SpillPenalty)
	}
	bodyEnd := pos
	bodyStart, err := u.serializeMessage(subADT, subObj, bodyEnd, depth+1)
	if err != nil {
		return 0, err
	}
	length := bodyEnd - bodyStart
	// End-of-message op: the memwriter injects the key with the now-known
	// length, retiring both as one chunk.
	u.stats.MemwriterCycles++
	u.scratch = wire.AppendTag(u.scratch[:0], num, wire.TypeBytes)
	u.scratch = wire.AppendVarint(u.scratch, length)
	pos, err = u.writeBack(bodyStart, u.scratch)
	if err != nil {
		return 0, err
	}
	u.trace("subPop", depth, num, "")
	u.frontend(2) // context restore
	if depth+1 > u.Cfg.OnChipStackDepth {
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.frontend(u.Cfg.SpillPenalty)
	}
	return pos, nil
}

func (u *Unit) serializeRepeated(e adt.Entry, num int32, slotAddr, pos uint64, depth int) (uint64, error) {
	buf, err := u.readSlot(slotAddr, 8)
	if err != nil {
		return 0, err
	}
	n, err := u.readSlot(slotAddr+8, 8)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return pos, nil
	}
	switch {
	case e.Kind == schema.KindMessage:
		// Elements in reverse so they land in forward order.
		for i := n; i > 0; i-- {
			ptr, err := u.readSlot(buf+(i-1)*8, 8)
			if err != nil {
				return 0, err
			}
			pos, err = u.serializeSubMessage(e.SubADT, ptr, num, pos, depth)
			if err != nil {
				return 0, err
			}
		}
		return pos, nil
	case e.Kind.Class() == schema.ClassBytesLike:
		for i := n; i > 0; i-- {
			hdr := buf + (i-1)*16
			ptr, err := u.readSlot(hdr, 8)
			if err != nil {
				return 0, err
			}
			sl, err := u.readSlot(hdr+8, 8)
			if err != nil {
				return 0, err
			}
			pos, err = u.emitString(num, ptr, sl, pos)
			if err != nil {
				return 0, err
			}
		}
		return pos, nil
	case e.Packed:
		es := layout.ScalarSlot(e.Kind)
		body := pos
		for i := n; i > 0; i-- {
			bits, err := u.readSlot(buf+(i-1)*es, es)
			if err != nil {
				return 0, err
			}
			u.fieldUnit(1)
			u.scratch = e.Kind.AppendValue(u.scratch[:0], layout.SlotBits(e.Kind, bits))
			pos, err = u.writeBack(pos, u.scratch)
			if err != nil {
				return 0, err
			}
		}
		length := body - pos
		u.fieldUnit(1)
		u.scratch = wire.AppendTag(u.scratch[:0], num, wire.TypeBytes)
		u.scratch = wire.AppendVarint(u.scratch, length)
		return u.writeBack(pos, u.scratch)
	default:
		es := layout.ScalarSlot(e.Kind)
		for i := n; i > 0; i-- {
			bits, err := u.readSlot(buf+(i-1)*es, es)
			if err != nil {
				return 0, err
			}
			u.fieldUnit(1)
			pos, err = u.emitKV(num, e.Kind, layout.SlotBits(e.Kind, bits), pos)
			if err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
}
