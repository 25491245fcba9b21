// Package deser models the ProtoAcc deserializer unit (§4.4 of the
// paper): the memloader, the combinational varint decoder, the
// field-handler state machine with its parseKey/typeInfo/write states, the
// hasbits writer, the ADT loader, the message-level metadata stacks, and
// accelerator-arena allocation.
//
// The model is functionally exact — it consumes real wire bytes from
// simulated memory and produces real C++-layout objects, driven only by
// the in-memory ADTs (never by host-side descriptors) — and cycle-counted:
// each state transition charges the costs the paper describes (single-cycle
// combinational varint decode, 16 B/cycle memloader beats, pointer-bump
// allocation), and memory accesses are charged through the accelerator's
// port into the shared L2/LLC.
//
// Cycle-accounting conventions: the field handler is an in-order FSM, so
// blocking loads (ADT entries, sub-message ADT headers) charge their full
// latency beyond the unit-buffer hit time; streaming input and
// fire-and-forget object writes go through the memory-interface wrappers,
// which support multiple outstanding requests, so they charge overlapped
// (divided) latencies. The final cycle count is the FSM total bounded
// below by the memloader's supply rate.
package deser

import (
	"errors"
	"fmt"
	"unicode/utf8"

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
	ErrMalformed = errors.New("deser: malformed wire input")
	ErrTooDeep   = errors.New("deser: metadata stack exceeds architectural limit")
	ErrBadUTF8   = errors.New("deser: invalid UTF-8 in string field")
)

// Config holds the unit's microarchitectural parameters.
type Config struct {
	// MemloaderWidth is the bytes the memloader can supply per cycle
	// (§4.4.2: 16 B).
	MemloaderWidth uint64
	// OnChipStackDepth is the metadata stack depth held on-chip; deeper
	// nesting spills (§3.8: 25 entries covers 99.999% of fleet bytes).
	OnChipStackDepth int
	// SpillPenalty is the extra cycles per push/pop beyond the on-chip
	// depth (a round trip to the spill region in DRAM).
	SpillPenalty float64
	// MaxDepth is the architectural nesting limit (paper: max observed
	// depth < 100).
	MaxDepth int
	// HiddenLatency is the access latency absorbed by unit-internal
	// buffering (the ADT cache / memloader buffers).
	HiddenLatency uint64
	// ValidateUTF8 enables UTF-8 validation of string fields — the one
	// feature the paper lists as needed for proto3 support (§7).
	ValidateUTF8 bool
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		MemloaderWidth:   16,
		OnChipStackDepth: 25,
		SpillPenalty:     12,
		MaxDepth:         100,
		HiddenLatency:    1,
	}
}

// Stats reports what a deserialization did. The cycle-attribution
// counters (SupplyBoundCycles, SpillCycles, ADTStallCycles) classify
// portions of Cycles by stall cause; the remainder is pure FSM work.
type Stats struct {
	Cycles        float64
	FSMCycles     float64
	SupplyCycles  float64
	BytesConsumed uint64
	FieldsParsed  uint64
	Allocs        uint64
	ArenaBytes    uint64
	StackSpills   uint64
	MaxDepthSeen  int

	// SupplyBoundCycles is how many cycles the supply bound added beyond
	// the FSM's own work — the deserializer was input-starved.
	SupplyBoundCycles float64
	// SpillCycles is the total metadata-stack spill penalty paid.
	SpillCycles float64
	// ADTStallCycles is the FSM time spent blocked on ADT header/entry
	// loads (the model's ADT-miss stall class).
	ADTStallCycles float64
}

// Unit is one deserializer unit instance.
type Unit struct {
	Mem   *mem.Memory
	Port  *memmodel.Port
	Arena *mem.Allocator
	Cfg   Config

	// Tracer, when enabled, buffers one telemetry.Event per field-handler
	// state transition on the System-owned trace stream. Assigned by
	// core.New; nil is valid (tracing off).
	Tracer *telemetry.Tracer

	// Inj, when non-nil and enabled, injects simulated faults at the
	// unit's named sites: memloader access faults in the varint window
	// fetch, memwriter faults on object-slot stores, metadata-stack spill
	// failures on sub-message pushes, arena exhaustion on allocation, and
	// wire-byte corruption per parsed key. Injected faults are phantom —
	// the access never happens, so memory holds only what the operation
	// legitimately wrote before the fault. Assigned by core.New; nil is
	// valid (injection off).
	Inj *faults.Injector

	stats Stats

	// regions buffers unpacked-repeated open-allocation regions
	// (§4.4.8) until close-out, and regionOf indexes them by (object,
	// field). Each operation truncates regions rather than freeing it, so
	// the records and their elems capacity serve the next operation.
	regions  []openRegion
	regionOf map[regionKey]int
	// current open region key, valid while isOpen (hardware tracks
	// exactly one open tag).
	open   regionKey
	isOpen bool
}

type regionKey struct {
	obj uint64
	num int32
}

type openRegion struct {
	elemSize uint64
	slot     uint64 // address of the repeated-field header in the parent
	// elems holds raw element images (scalars or string headers) or
	// sub-object addresses, written to the arena at close-out.
	elems []uint64
}

// New creates a deserializer unit.
func New(m *mem.Memory, port *memmodel.Port, arena *mem.Allocator, cfg Config) *Unit {
	return &Unit{Mem: m, Port: port, Arena: arena, Cfg: cfg, regionOf: make(map[regionKey]int)}
}

// dropRegions forgets every buffered region, keeping the storage.
func (u *Unit) dropRegions() {
	clear(u.regionOf)
	u.regions = u.regions[:0]
	u.isOpen = false
}

// Stats returns cumulative statistics.
func (u *Unit) Stats() Stats { return u.stats }

// CollectTelemetry registers the unit's counters (telemetry.Collector).
func (u *Unit) CollectTelemetry(emit func(name string, value float64)) {
	emit("cycles", u.stats.Cycles)
	emit("fsm_cycles", u.stats.FSMCycles)
	emit("supply_cycles", u.stats.SupplyCycles)
	emit("supply_bound_cycles", u.stats.SupplyBoundCycles)
	emit("spill_cycles", u.stats.SpillCycles)
	emit("adt_stall_cycles", u.stats.ADTStallCycles)
	emit("bytes_consumed", float64(u.stats.BytesConsumed))
	emit("fields_parsed", float64(u.stats.FieldsParsed))
	emit("allocs", float64(u.stats.Allocs))
	emit("arena_bytes", float64(u.stats.ArenaBytes))
	emit("stack_spills", float64(u.stats.StackSpills))
	emit("max_depth_seen", float64(u.stats.MaxDepthSeen))
}

// ResetStats clears the accumulators and any residual parse state,
// returning the unit to its post-construction state.
func (u *Unit) ResetStats() {
	u.stats = Stats{}
	u.dropRegions()
}

// Abort discards the in-progress operation's parse state after a fault
// and absorbs the aborted attempt's FSM cycles into the cumulative cycle
// counter (a successful Deserialize syncs Cycles to FSMCycles on
// completion, so the unsynced delta is exactly the attempt's work).
// Returns the attempt's cycles so the dispatch layer can charge them to
// the recovery episode. Arena rollback is the caller's job (the unit does
// not own allocator marks).
func (u *Unit) Abort() float64 {
	attempt := u.stats.FSMCycles - u.stats.Cycles
	u.stats.Cycles = u.stats.FSMCycles
	u.dropRegions()
	return attempt
}

// fsm charges FSM cycles.
func (u *Unit) fsm(c float64) { u.stats.FSMCycles += c }

// trace emits a state-transition event (parseKey, typeInfo, scalarWrite,
// string, packedRun, subPush, subPop, closeOut, skip) to the System-owned
// telemetry stream when tracing is enabled, timestamped with the unit's
// cumulative FSM cycle counter. Emit sites whose arguments allocate
// (formatted notes) check u.Tracer.Enabled() first.
func (u *Unit) trace(state string, depth int, field int32, pos uint64, note string) {
	if u.Tracer.Enabled() {
		u.Tracer.Emit(telemetry.Event{
			Unit: "deser", Name: state, Cycle: u.stats.FSMCycles,
			Depth: depth, Field: field, Pos: pos, Note: note,
		})
	}
}

// blockingLoad charges a load the FSM waits on (typeInfo state, ADT
// headers): full latency beyond the hidden buffer time. Every blocking
// load in this unit is an ADT header or entry fetch, so the charged
// cycles are also attributed to the ADT-stall class.
func (u *Unit) blockingLoad(addr, size uint64) {
	lat := u.Port.Access(addr, size)
	if lat > u.Cfg.HiddenLatency {
		stall := float64(lat - u.Cfg.HiddenLatency)
		u.stats.FSMCycles += stall
		u.stats.ADTStallCycles += stall
	}
}

// overlapped charges a streaming/fire-and-forget access through the memory
// interface wrappers (outstanding-request tracking): overlapped latency
// only.
func (u *Unit) overlapped(addr, size uint64) {
	lat := u.Port.StreamAccess(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.stats.FSMCycles += float64(lat-u.Cfg.HiddenLatency) / 4
	}
}

// Deserialize decodes bufLen wire bytes at bufAddr into the caller
// allocated object at objAddr, whose type is described by the ADT at
// adtAddr. It implements the do_proto_deser operation; the returned Stats
// delta reflects this call.
func (u *Unit) Deserialize(adtAddr, objAddr, bufAddr, bufLen uint64) (Stats, error) {
	before := u.stats
	u.dropRegions()

	// Command dispatch and frontend setup.
	u.fsm(8)
	supplyStart := u.stats.FSMCycles

	if err := u.parseMessage(adtAddr, objAddr, bufAddr, bufLen, 1); err != nil {
		return Stats{}, err
	}

	u.stats.BytesConsumed += bufLen
	// The memloader supplies at most MemloaderWidth bytes per cycle; the
	// FSM cannot run faster than its input arrives.
	supply := float64((bufLen + u.Cfg.MemloaderWidth - 1) / u.Cfg.MemloaderWidth)
	u.stats.SupplyCycles += supply
	if fsmDelta := u.stats.FSMCycles - supplyStart; fsmDelta < supply {
		u.stats.SupplyBoundCycles += supply - fsmDelta
		u.stats.FSMCycles = supplyStart + supply
	}
	u.stats.Cycles = u.stats.FSMCycles

	delta := u.stats
	delta.Cycles -= before.Cycles
	delta.FSMCycles -= before.FSMCycles
	delta.SupplyCycles -= before.SupplyCycles
	delta.SupplyBoundCycles -= before.SupplyBoundCycles
	delta.SpillCycles -= before.SpillCycles
	delta.ADTStallCycles -= before.ADTStallCycles
	delta.BytesConsumed -= before.BytesConsumed
	delta.FieldsParsed -= before.FieldsParsed
	delta.Allocs -= before.Allocs
	delta.ArenaBytes -= before.ArenaBytes
	delta.StackSpills -= before.StackSpills
	return delta, nil
}

// readVarint peeks the next 10 bytes of the stream (the combinational
// decoder's window) and decodes in a single cycle. The window is a
// zero-copy view of the memloader stream — decoding reads simulated
// memory in place, with no staging copy per access.
func (u *Unit) readVarint(pos, end uint64) (uint64, uint64, error) {
	if err := u.Inj.At(faults.SiteMemloader); err != nil {
		return 0, 0, err
	}
	window := end - pos
	if window > wire.MaxVarintLen {
		window = wire.MaxVarintLen
	}
	if window == 0 {
		return 0, 0, ErrMalformed
	}
	s, err := u.Mem.View(pos, window)
	if err != nil {
		return 0, 0, err
	}
	v, n, err := wire.ReadVarint(s)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	u.overlapped(pos, uint64(n))
	return v, uint64(n), nil
}

func (u *Unit) parseMessage(adtAddr, objAddr, bufAddr, bufLen uint64, depth int) error {
	if depth > u.Cfg.MaxDepth {
		return ErrTooDeep
	}
	if depth > u.stats.MaxDepthSeen {
		u.stats.MaxDepthSeen = depth
	}
	header, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return err
	}
	u.blockingLoad(adtAddr, adt.HeaderSize)

	pos, end := bufAddr, bufAddr+bufLen
	lastNum := int32(-1)
	var lastEntry adt.Entry
	for pos < end {
		// Wire-corruption detection point: one trial per parsed key.
		if err := u.Inj.At(faults.SiteWireCorrupt); err != nil {
			return err
		}
		// parseKey state: single-cycle combinational varint decode of
		// the key.
		u.fsm(1)
		tag, n, err := u.readVarint(pos, end)
		if err != nil {
			return err
		}
		pos += n
		num, wt := wire.SplitTag(tag)
		if num <= 0 || num > wire.MaxFieldNumber || !wt.Valid() {
			return fmt.Errorf("%w: bad tag %d", ErrMalformed, tag)
		}
		u.trace("parseKey", depth, num, pos, wt.String())

		// typeInfo state: block on the ADT entry load (entry alignment
		// and decode). Consecutive occurrences of the same key — the
		// common shape of unpacked repeated fields — reuse the latched
		// entry and skip the state. The hasbits writer runs in parallel
		// (its write is fire-and-forget).
		var entry adt.Entry
		var entryErr error
		if num == lastNum {
			entry = lastEntry
		} else {
			u.trace("typeInfo", depth, num, pos, "")
			u.fsm(1.5)
			entryAddr := adtAddr + adt.HeaderSize + uint64(num-header.MinField)*adt.EntrySize
			entry, entryErr = adt.ReadEntry(u.Mem, adtAddr, header, num)
			if entryErr == nil {
				u.blockingLoad(entryAddr, adt.EntrySize)
				lastNum, lastEntry = num, entry
			} else {
				lastNum = -1
			}
		}
		if entryErr != nil || !entry.Kind.AcceptsWireType(wt, entry.Repeated) {
			// Unknown field: skip its value.
			if !errors.Is(entryErr, adt.ErrNoEntry) && entryErr != nil {
				return entryErr
			}
			u.trace("skip", depth, num, pos, "unknown field")
			pos, err = u.skipValue(pos, end, wt)
			if err != nil {
				return err
			}
			continue
		}
		u.stats.FieldsParsed++

		// Hasbits writer (parallel unit): RMW of the sparse hasbits word.
		idx := uint64(num - header.MinField)
		hbAddr := objAddr + header.HasbitsOffset + (idx/64)*8
		w, err := u.Mem.Read64(hbAddr)
		if err != nil {
			return err
		}
		if err := u.Mem.Write64(hbAddr, w|1<<(idx%64)); err != nil {
			return err
		}
		u.overlapped(hbAddr, 8)

		// Close the open unpacked-repeated region if this field differs.
		if u.isOpen && u.open != (regionKey{objAddr, num}) {
			if err := u.closeOpenRegion(); err != nil {
				return err
			}
		}

		pos, err = u.parseFieldValue(entry, num, wt, pos, end, objAddr, depth)
		if err != nil {
			return err
		}
	}
	if pos != end {
		return fmt.Errorf("%w: field overruns message bounds", ErrMalformed)
	}
	// End of message closes any open region (§4.4.8).
	if u.isOpen && u.open.obj == objAddr {
		if err := u.closeOpenRegion(); err != nil {
			return err
		}
	}
	return nil
}

func (u *Unit) skipValue(pos, end uint64, wt wire.Type) (uint64, error) {
	u.fsm(1)
	switch wt {
	case wire.TypeVarint:
		_, n, err := u.readVarint(pos, end)
		return pos + n, err
	case wire.TypeFixed32:
		if pos+4 > end {
			return 0, ErrMalformed
		}
		return pos + 4, nil
	case wire.TypeFixed64:
		if pos+8 > end {
			return 0, ErrMalformed
		}
		return pos + 8, nil
	case wire.TypeBytes:
		n, vn, err := u.readVarint(pos, end)
		if err != nil {
			return 0, err
		}
		if pos+vn+n > end {
			return 0, ErrMalformed
		}
		u.fsm(float64((n + u.Cfg.MemloaderWidth - 1) / u.Cfg.MemloaderWidth))
		return pos + vn + n, nil
	default:
		return 0, fmt.Errorf("%w: deprecated group wire type", ErrMalformed)
	}
}

// decodeScalar decodes one scalar value at pos, returning its stored bit
// pattern.
func (u *Unit) decodeScalar(e adt.Entry, pos, end uint64) (uint64, uint64, error) {
	if n := uint64(e.Kind.FixedWireSize()); n > 0 {
		if pos+n > end {
			return 0, 0, ErrMalformed
		}
		v, err := u.Mem.ReadUint(pos, n)
		if err != nil {
			return 0, 0, err
		}
		u.overlapped(pos, n)
		return e.Kind.Stored(v), n, nil
	}
	v, n, err := u.readVarint(pos, end)
	if err != nil {
		return 0, 0, err
	}
	// Zig-zag decode is an additional combinational stage (§4.4.6), not
	// an extra cycle.
	return e.Kind.Stored(v), n, nil
}

// writeSlot is a fire-and-forget store by the field data writer.
func (u *Unit) writeSlot(addr, size, bits uint64) error {
	if err := u.Inj.At(faults.SiteMemwriter); err != nil {
		return err
	}
	u.overlapped(addr, size)
	return u.Mem.WriteUint(addr, size, bits)
}

// arenaAlloc is a single-cycle pointer bump (§4.3).
func (u *Unit) arenaAlloc(n uint64) (uint64, error) {
	if err := u.Inj.At(faults.SiteArena); err != nil {
		return 0, err
	}
	u.fsm(1)
	addr, err := u.Arena.Alloc(n, 8)
	if err != nil {
		return 0, fmt.Errorf("deser: accelerator arena exhausted: %w", err)
	}
	u.stats.Allocs++
	u.stats.ArenaBytes += n
	return addr, nil
}

// copyStream copies n payload bytes from the memloader stream into an
// arena buffer at width bytes/cycle.
func (u *Unit) copyStream(dst, src, n uint64) error {
	if err := u.Inj.At(faults.SiteMemwriter); err != nil {
		return err
	}
	u.fsm(float64((n + u.Cfg.MemloaderWidth - 1) / u.Cfg.MemloaderWidth))
	u.overlapped(src, n)
	u.overlapped(dst, n)
	if n == 0 {
		return nil
	}
	s, err := u.Mem.View(src, n)
	if err != nil {
		return err
	}
	return u.Mem.WriteBytes(dst, s)
}

func (u *Unit) parseFieldValue(e adt.Entry, num int32, wt wire.Type, pos, end, objAddr uint64, depth int) (uint64, error) {
	slotAddr := objAddr + uint64(e.Offset)
	switch {
	case e.Kind == schema.KindMessage:
		return u.parseSubMessage(e, num, pos, end, objAddr, slotAddr, depth)
	case e.Kind.Class() == schema.ClassBytesLike:
		return u.parseString(e, num, pos, end, objAddr, slotAddr)
	case e.Repeated && wt == wire.TypeBytes:
		return u.parsePackedRun(e, num, objAddr, pos, end, slotAddr)
	case e.Repeated:
		// Unpacked repeated element: append to the open region.
		bits, n, err := u.decodeScalar(e, pos, end)
		if err != nil {
			return 0, err
		}
		u.fsm(1)
		u.appendOpen(objAddr, num, slotAddr, layout.ScalarSlot(e.Kind), bits)
		return pos + n, nil
	default:
		// Final write state for scalars (§4.4.6): single cycle; the
		// write itself is handled by the field data writer.
		bits, n, err := u.decodeScalar(e, pos, end)
		if err != nil {
			return 0, err
		}
		u.trace("scalarWrite", depth, num, pos, e.Kind.String())
		u.fsm(1)
		if err := u.writeSlot(slotAddr, layout.ScalarSlot(e.Kind), bits); err != nil {
			return 0, err
		}
		return pos + n, nil
	}
}

// parseString implements the string allocation and copy states (§4.4.7).
func (u *Unit) parseString(e adt.Entry, num int32, pos, end, objAddr, slotAddr uint64) (uint64, error) {
	u.trace("string", 0, num, pos, e.Kind.String())
	u.fsm(1) // length decode
	n, vn, err := u.readVarint(pos, end)
	if err != nil {
		return 0, err
	}
	pos += vn
	if pos+n > end {
		return 0, ErrMalformed
	}
	var dataAddr uint64
	if n > 0 {
		dataAddr, err = u.arenaAlloc(n)
		if err != nil {
			return 0, err
		}
		if err := u.copyStream(dataAddr, pos, n); err != nil {
			return 0, err
		}
		if u.Cfg.ValidateUTF8 && e.Kind == schema.KindString {
			// Validation is inline with the copy datapath: no extra
			// cycles, but invalid sequences fault the operation.
			s, err := u.Mem.View(pos, n)
			if err != nil {
				return 0, err
			}
			if !utf8.Valid(s) {
				return 0, ErrBadUTF8
			}
		}
	}
	if e.Repeated {
		// Element is a 16-byte string header appended to the open region.
		u.fsm(1)
		u.appendOpen2(objAddr, num, slotAddr, dataAddr, n)
	} else {
		// Header write is fire-and-forget via the field data writer.
		if err := u.writeSlot(slotAddr, 8, dataAddr); err != nil {
			return 0, err
		}
		if err := u.writeSlot(slotAddr+8, 8, n); err != nil {
			return 0, err
		}
	}
	return pos + n, nil
}

// parsePackedRun handles a packed repeated scalar run (§4.4.8): the
// elements are decoded into the field's open allocation region, so
// multiple packed runs of the same field (legal proto2: runs concatenate)
// and mixed packed/unpacked encodings accumulate into one vector. The
// region closes out like any other (next differing field or end of
// message).
func (u *Unit) parsePackedRun(e adt.Entry, num int32, objAddr, pos, end, slotAddr uint64) (uint64, error) {
	u.trace("packedRun", 0, num, pos, e.Kind.String())
	u.fsm(1)
	n, vn, err := u.readVarint(pos, end)
	if err != nil {
		return 0, err
	}
	pos += vn
	if pos+n > end {
		return 0, ErrMalformed
	}
	runEnd := pos + n
	es := layout.ScalarSlot(e.Kind)
	for pos < runEnd {
		bits, sn, err := u.decodeScalar(e, pos, runEnd)
		if err != nil {
			return 0, err
		}
		pos += sn
		u.appendOpen(objAddr, num, slotAddr, es, bits)
		if e.Kind.IsVarint() {
			// One combinational varint decode per cycle.
			u.fsm(1)
		}
	}
	if !e.Kind.IsVarint() {
		// Fixed-width packed data is format-converted at stream rate.
		u.fsm(float64((n + u.Cfg.MemloaderWidth - 1) / u.Cfg.MemloaderWidth))
	}
	if n == 0 {
		// An empty packed run still marks the field present with an
		// empty vector; open the region so close-out writes the header.
		u.openRegion(objAddr, num, slotAddr, es)
	}
	return pos, nil
}

// parseSubMessage implements the sub-message handling states (§4.4.9).
func (u *Unit) parseSubMessage(e adt.Entry, num int32, pos, end, objAddr, slotAddr uint64, depth int) (uint64, error) {
	u.fsm(1) // header (length) decode
	n, vn, err := u.readVarint(pos, end)
	if err != nil {
		return 0, err
	}
	pos += vn
	if pos+n > end {
		return 0, ErrMalformed
	}
	// Fetch the sub-message type's ADT header for default instance info.
	// (The recursive parse charges the header load once on entry.)
	subHeader, err := adt.ReadHeader(u.Mem, e.SubADT)
	if err != nil {
		return 0, err
	}

	// Allocate and initialize the sub-object: pointer bump plus
	// streaming out the default-instance image.
	var subAddr uint64
	adopt := false
	if !e.Repeated {
		// Repeated occurrences of a singular sub-message merge: reuse an
		// already-allocated object.
		existing, err := u.Mem.Read64(slotAddr)
		if err != nil {
			return 0, err
		}
		if existing != 0 {
			subAddr = existing
			adopt = true
		}
	}
	if !adopt {
		subAddr, err = u.arenaAlloc(subHeader.ObjectSize)
		if err != nil {
			return 0, err
		}
		buf, err := u.Mem.Slice(subAddr, subHeader.ObjectSize)
		if err != nil {
			return 0, err
		}
		for i := range buf {
			buf[i] = 0
		}
		// Default-instance initialization streams out through the field
		// data writer in the background; the FSM only spends the setup
		// cycle charged by arenaAlloc plus the vptr store below.
		u.fsm(1)
		u.overlapped(subAddr, subHeader.ObjectSize)
		if err := u.Mem.Write64(subAddr, subHeader.TypeID); err != nil {
			return 0, err
		}
		// Write the pointer into the parent.
		if e.Repeated {
			u.fsm(1)
			u.appendOpen(objAddr, num, slotAddr, 8, subAddr)
		} else {
			if err := u.writeSlot(slotAddr, 8, subAddr); err != nil {
				return 0, err
			}
		}
	}

	// Push the metadata stack and switch parsing context: update stack
	// entries, rebase the length tracking (§4.4.9).
	if err := u.Inj.At(faults.SiteStackSpill); err != nil {
		return 0, err
	}
	u.trace("subPush", depth, num, pos, "")
	u.fsm(4)
	if depth+1 > u.Cfg.OnChipStackDepth {
		u.stats.StackSpills++
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.fsm(u.Cfg.SpillPenalty)
	}
	// A sub-message parse must not leave the parent's open region
	// dangling across its own fields; hardware closes it on the next
	// differing field, which the recursive call's first field triggers.
	if err := u.parseMessage(e.SubADT, subAddr, pos, n, depth+1); err != nil {
		return 0, err
	}
	// Pop and restore the parent's context.
	u.trace("subPop", depth, num, pos, "")
	u.fsm(2)
	if depth+1 > u.Cfg.OnChipStackDepth {
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.fsm(u.Cfg.SpillPenalty)
	}
	return pos + n, nil
}

// appendOpen appends a scalar or pointer element to the open region for
// (obj, num), opening it if needed. The region survives a close-out so a
// reopened field (interleaved encoding) re-emits the complete vector,
// preserving proto2 concatenation semantics at the cost of a dead arena
// buffer — the same trade hardware would make.
func (u *Unit) appendOpen(obj uint64, num int32, slot, elemSize, value uint64) {
	r := u.openRegion(obj, num, slot, elemSize)
	r.elems = append(r.elems, value)
}

// appendOpen2 appends a two-word element (a string header).
func (u *Unit) appendOpen2(obj uint64, num int32, slot, w0, w1 uint64) {
	r := u.openRegion(obj, num, slot, 16)
	r.elems = append(r.elems, w0, w1)
}

// openRegion makes (obj, num)'s region the open one. A field with no
// region yet starts one, reusing the record and elems capacity an
// earlier operation left past len(regions). The pointer is valid until
// the next openRegion call.
func (u *Unit) openRegion(obj uint64, num int32, slot, elemSize uint64) *openRegion {
	key := regionKey{obj, num}
	i, ok := u.regionOf[key]
	if !ok {
		i = len(u.regions)
		if i < cap(u.regions) {
			u.regions = u.regions[:i+1]
			u.regions[i] = openRegion{elemSize: elemSize, slot: slot, elems: u.regions[i].elems[:0]}
		} else {
			u.regions = append(u.regions, openRegion{elemSize: elemSize, slot: slot})
		}
		u.regionOf[key] = i
	}
	u.open, u.isOpen = key, true
	return &u.regions[i]
}

// closeOpenRegion writes out the current open allocation region: the
// element data into a fresh arena buffer and the final header into the
// repeated-field slot (§4.4.8).
func (u *Unit) closeOpenRegion() error {
	key := u.open
	u.isOpen = false
	r := &u.regions[u.regionOf[key]]
	if u.Tracer.Enabled() {
		u.trace("closeOut", 0, key.num, 0, fmt.Sprintf("%d elems", len(r.elems)))
	}

	words := uint64(len(r.elems))
	count := words
	if r.elemSize == 16 {
		count = words / 2
	}
	var bufAddr uint64
	var err error
	if count > 0 {
		bufAddr, err = u.arenaAlloc(count * r.elemSize)
		if err != nil {
			return err
		}
		switch r.elemSize {
		case 16:
			for i := uint64(0); i < count; i++ {
				if err := u.writeSlot(bufAddr+i*16, 8, r.elems[2*i]); err != nil {
					return err
				}
				if err := u.writeSlot(bufAddr+i*16+8, 8, r.elems[2*i+1]); err != nil {
					return err
				}
			}
		default:
			for i := uint64(0); i < count; i++ {
				if err := u.writeSlot(bufAddr+i*r.elemSize, r.elemSize, r.elems[i]); err != nil {
					return err
				}
			}
		}
	}
	// Close-out cycle: write the final header (§4.4.8).
	u.fsm(1)
	if err := u.writeSlot(r.slot, 8, bufAddr); err != nil {
		return err
	}
	if err := u.writeSlot(r.slot+8, 8, count); err != nil {
		return err
	}
	return u.writeSlot(r.slot+16, 8, count)
}
