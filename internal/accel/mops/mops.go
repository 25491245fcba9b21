// Package mops models the message-operations extension the paper sketches
// in §7 ("Accelerating other protobuf operations"): re-using the
// serializer/deserializer building blocks — ADT walks, hasbits scanning,
// arena allocation, streaming copies — behind new custom instructions for
// the clear, copy, and merge operators, which together account for another
// 17.1% of fleet-wide C++ protobuf cycles (Figure 2).
//
// Like the other units, the model is functionally exact (it transforms
// real objects in simulated memory, driven only by ADTs) and
// cycle-counted with the same conventions: blocking ADT loads, streaming
// fire-and-forget writes, single-cycle pointer-bump allocation.
package mops

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/adt"
	"protoacc/internal/accel/layout"
	"protoacc/internal/faults"
	"protoacc/internal/pb/schema"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
	"protoacc/internal/telemetry"
)

// Errors surfaced by the unit.
var (
	ErrTooDeep = errors.New("mops: nesting exceeds architectural limit")
	// ErrArenaShort is returned by Merge's validation pre-pass when the
	// arena cannot hold the merge's allocations. Because the pre-pass runs
	// before any mutation, the destination object is untouched.
	ErrArenaShort = errors.New("mops: arena too small for merge")
	// ErrPoisoned is returned when an operation fails after it has begun
	// mutating the destination object in ways arena rollback cannot
	// revert. The destination's state is undefined; the owning System must
	// not be reused without a full reset.
	ErrPoisoned = errors.New("mops: operation aborted mid-mutation; destination state undefined")
)

// Config holds the unit's parameters (shared with the deserializer's
// conventions).
type Config struct {
	CopyWidth        uint64 // streaming copy bytes per cycle
	OnChipStackDepth int
	SpillPenalty     float64
	MaxDepth         int
	HiddenLatency    uint64
}

// DefaultConfig returns parameters matching the other units.
func DefaultConfig() Config {
	return Config{
		CopyWidth:        16,
		OnChipStackDepth: 25,
		SpillPenalty:     12,
		MaxDepth:         100,
		HiddenLatency:    1,
	}
}

// Stats reports the unit's work. SpillCycles and ADTStallCycles are
// attribution trackers: they classify cycles already included in Cycles
// (metadata-stack spill penalties and blocking ADT-load stalls) without
// changing the charged totals.
type Stats struct {
	Cycles         float64
	SpillCycles    float64
	ADTStallCycles float64
	Clears         uint64
	Copies         uint64
	Merges         uint64
	Allocs         uint64
	BytesCopied    uint64
}

// Unit is the message-operations unit.
type Unit struct {
	Mem   *mem.Memory
	Port  *memmodel.Port
	Arena *mem.Allocator
	Cfg   Config

	// Tracer, when set and enabled, receives one span event per
	// operation (clear/copy/merge) on the unit's cumulative-cycle
	// timeline. Nil is valid and means no tracing.
	Tracer *telemetry.Tracer

	// Inj, when non-nil and enabled, injects simulated faults at the
	// unit's named sites: memloader faults on hasbits-scan loads,
	// memwriter faults on streaming copies, and arena exhaustion on
	// allocation. Clear and Copy trial freely (Clear is idempotent; Copy
	// writes only fresh arena memory, so arena rollback reverts it).
	// Merge trials only during its read-only validation pre-pass —
	// injection is suspended during the mutating phase, which validation
	// has guaranteed cannot fail (see Merge). Assigned by core.New; nil
	// is valid (injection off).
	Inj *faults.Injector

	// suspendInj masks injection during Merge's mutating phase.
	suspendInj bool

	// opStart is the cumulative cycle count when the current (or most
	// recent) operation began; Abort uses it to charge a failed attempt.
	opStart float64

	stats Stats
}

// inject is the unit's injection trial, masked during Merge's mutating
// phase.
func (u *Unit) inject(site faults.Site) error {
	if u.suspendInj {
		return nil
	}
	return u.Inj.At(site)
}

// New creates a message-operations unit.
func New(m *mem.Memory, port *memmodel.Port, arena *mem.Allocator, cfg Config) *Unit {
	return &Unit{Mem: m, Port: port, Arena: arena, Cfg: cfg}
}

// Stats returns cumulative statistics.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats clears the accumulators.
func (u *Unit) ResetStats() {
	u.stats = Stats{}
	u.suspendInj = false
	u.opStart = 0
}

// Abort closes out a failed operation's cycle accounting: it returns the
// cycles the aborted attempt consumed (already included in the cumulative
// Stats) and resynchronizes the op-start marker, so a spurious Abort —
// one not paired with a failed operation — charges nothing.
func (u *Unit) Abort() float64 {
	d := u.stats.Cycles - u.opStart
	u.opStart = u.stats.Cycles
	return d
}

// CollectTelemetry implements telemetry.Collector.
func (u *Unit) CollectTelemetry(emit func(name string, value float64)) {
	emit("cycles", u.stats.Cycles)
	emit("spill_cycles", u.stats.SpillCycles)
	emit("adt_stall_cycles", u.stats.ADTStallCycles)
	emit("clears", float64(u.stats.Clears))
	emit("copies", float64(u.stats.Copies))
	emit("merges", float64(u.stats.Merges))
	emit("allocs", float64(u.stats.Allocs))
	emit("bytes_copied", float64(u.stats.BytesCopied))
}

// traceOp emits one span event covering a whole operation: start is the
// unit's cumulative cycle count when the op was issued, and the duration
// is the op's cycle delta.
func (u *Unit) traceOp(name string, start float64) {
	if u.Tracer.Enabled() {
		u.Tracer.Emit(telemetry.Event{
			Unit: "mops", Name: name, Cycle: start, Dur: u.stats.Cycles - start,
		})
	}
}

func (u *Unit) fsm(c float64) { u.stats.Cycles += c }

func (u *Unit) blockingLoad(addr, size uint64) {
	lat := u.Port.Access(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.stats.Cycles += float64(lat - u.Cfg.HiddenLatency)
	}
}

// adtLoad is a blockingLoad of ADT-resident metadata (headers, entries);
// the stall is additionally attributed to the ADT-miss class.
func (u *Unit) adtLoad(addr, size uint64) {
	lat := u.Port.Access(addr, size)
	if lat > u.Cfg.HiddenLatency {
		stall := float64(lat - u.Cfg.HiddenLatency)
		u.stats.Cycles += stall
		u.stats.ADTStallCycles += stall
	}
}

func (u *Unit) overlapped(addr, size uint64) {
	lat := u.Port.StreamAccess(addr, size)
	if lat > u.Cfg.HiddenLatency {
		u.stats.Cycles += float64(lat-u.Cfg.HiddenLatency) / 4
	}
}

func (u *Unit) arenaAlloc(n uint64) (uint64, error) {
	if err := u.inject(faults.SiteArena); err != nil {
		return 0, err
	}
	u.fsm(1)
	addr, err := u.Arena.Alloc(n, 8)
	if err != nil {
		return 0, fmt.Errorf("mops: accelerator arena exhausted: %w", err)
	}
	u.stats.Allocs++
	return addr, nil
}

// streamCopy copies n bytes at CopyWidth per cycle.
func (u *Unit) streamCopy(dst, src, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := u.inject(faults.SiteMemwriter); err != nil {
		return err
	}
	u.fsm(float64((n + u.Cfg.CopyWidth - 1) / u.Cfg.CopyWidth))
	u.overlapped(src, n)
	u.overlapped(dst, n)
	s, err := u.Mem.View(src, n)
	if err != nil {
		return err
	}
	return u.Mem.WriteBytes(dst, s)
}

// Clear implements do_proto_clear: reset all presence state of the object
// at objAddr (type ADT at adtAddr). The C++ Clear also resets cached
// sizes and lengths; presence is the architecturally visible part — a
// cleared field reads as absent.
func (u *Unit) Clear(adtAddr, objAddr uint64) (Stats, error) {
	before := u.stats
	u.opStart = before.Cycles
	defer u.traceOp("clear", before.Cycles)
	u.fsm(4) // dispatch
	h, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return Stats{}, err
	}
	u.adtLoad(adtAddr, adt.HeaderSize)
	words := (uint64(h.FieldRange()) + 63) / 64
	for w := uint64(0); w < words; w++ {
		a := objAddr + h.HasbitsOffset + w*8
		u.fsm(1)
		u.overlapped(a, 8)
		if err := u.Mem.Write64(a, 0); err != nil {
			return Stats{}, err
		}
	}
	u.stats.Clears++
	return u.delta(before), nil
}

// Copy implements do_proto_copy: allocate a deep copy of the object at
// srcObj in the accelerator arena and return its address. The object
// image is stream-copied, then pointer-bearing present fields are fixed
// up by recursing through the ADT — the §7 re-use of the deserializer's
// allocation path and the serializer's hasbits scan.
func (u *Unit) Copy(adtAddr, srcObj uint64) (uint64, Stats, error) {
	before := u.stats
	u.opStart = before.Cycles
	defer u.traceOp("copy", before.Cycles)
	u.fsm(4)
	dst, err := u.copyTree(adtAddr, srcObj, 1)
	if err != nil {
		return 0, Stats{}, err
	}
	u.stats.Copies++
	return dst, u.delta(before), nil
}

func (u *Unit) copyTree(adtAddr, srcObj uint64, depth int) (uint64, error) {
	if depth > u.Cfg.MaxDepth {
		return 0, ErrTooDeep
	}
	if depth > u.Cfg.OnChipStackDepth {
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.fsm(u.Cfg.SpillPenalty)
	}
	h, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return 0, err
	}
	u.adtLoad(adtAddr, adt.HeaderSize)
	dstObj, err := u.arenaAlloc(h.ObjectSize)
	if err != nil {
		return 0, err
	}
	if err := u.streamCopy(dstObj, srcObj, h.ObjectSize); err != nil {
		return 0, err
	}
	u.stats.BytesCopied += h.ObjectSize

	// Fix up pointer-bearing fields, scanning hasbits like the
	// serializer frontend.
	return dstObj, u.scanPresent(h, adtAddr, srcObj, func(num int32, e adt.Entry) error {
		return u.fixupField(h, e, srcObj, dstObj, depth)
	})
}

// scanPresent walks the sparse hasbits and invokes fn for each present
// field, charging frontend-style scan cycles.
func (u *Unit) scanPresent(h adt.Header, adtAddr, objAddr uint64, fn func(int32, adt.Entry) error) error {
	rng := h.FieldRange()
	if rng == 0 {
		return nil
	}
	words := (uint64(rng) + 63) / 64
	hbBase := objAddr + h.HasbitsOffset
	for w := uint64(0); w < words; w++ {
		if err := u.inject(faults.SiteMemloader); err != nil {
			return err
		}
		u.fsm(1)
		u.blockingLoad(hbBase+w*8, 8)
	}
	for num := h.MinField; num <= h.MaxField; num++ {
		idx := uint64(num - h.MinField)
		word, err := u.Mem.Read64(hbBase + (idx/64)*8)
		if err != nil {
			return err
		}
		if word>>(idx%64)&1 == 0 {
			continue
		}
		u.fsm(1)
		entry, err := adt.ReadEntry(u.Mem, adtAddr, h, num)
		if err != nil {
			return fmt.Errorf("mops: hasbit set for undefined field %d: %w", num, err)
		}
		u.adtLoad(adtAddr+adt.HeaderSize+idx*adt.EntrySize, adt.EntrySize)
		if err := fn(num, entry); err != nil {
			return err
		}
	}
	return nil
}

// fixupField deep-copies the payload behind a pointer-bearing field of
// dstObj (whose inline image was already copied from srcObj).
func (u *Unit) fixupField(h adt.Header, e adt.Entry, srcObj, dstObj uint64, depth int) error {
	srcSlot := srcObj + uint64(e.Offset)
	dstSlot := dstObj + uint64(e.Offset)
	switch {
	case e.Repeated:
		return u.fixupRepeated(e, srcSlot, dstSlot, depth)
	case e.Kind == schema.KindMessage:
		ptr, err := u.Mem.Read64(srcSlot)
		if err != nil {
			return err
		}
		if ptr == 0 {
			return nil
		}
		sub, err := u.copyTree(e.SubADT, ptr, depth+1)
		if err != nil {
			return err
		}
		u.overlapped(dstSlot, 8)
		return u.Mem.Write64(dstSlot, sub)
	case e.Kind.Class() == schema.ClassBytesLike:
		return u.copyString(srcSlot, dstSlot)
	default:
		return nil // scalar: the image copy already handled it
	}
}

// copyString duplicates a {ptr, len} header's payload into the arena.
func (u *Unit) copyString(srcHdr, dstHdr uint64) error {
	ptr, err := u.Mem.Read64(srcHdr)
	if err != nil {
		return err
	}
	n, err := u.Mem.Read64(srcHdr + 8)
	if err != nil {
		return err
	}
	var dataAddr uint64
	if n > 0 {
		dataAddr, err = u.arenaAlloc(n)
		if err != nil {
			return err
		}
		if err := u.streamCopy(dataAddr, ptr, n); err != nil {
			return err
		}
		u.stats.BytesCopied += n
	}
	u.overlapped(dstHdr, 16)
	if err := u.Mem.Write64(dstHdr, dataAddr); err != nil {
		return err
	}
	return u.Mem.Write64(dstHdr+8, n)
}

// fixupRepeated duplicates a repeated field's buffer (and, for pointer
// element types, the elements behind it).
func (u *Unit) fixupRepeated(e adt.Entry, srcSlot, dstSlot uint64, depth int) error {
	buf, err := u.Mem.Read64(srcSlot)
	if err != nil {
		return err
	}
	n, err := u.Mem.Read64(srcSlot + 8)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	es := layout.ElemSize(e.Kind)
	newBuf, err := u.arenaAlloc(n * es)
	if err != nil {
		return err
	}
	if err := u.streamCopy(newBuf, buf, n*es); err != nil {
		return err
	}
	u.stats.BytesCopied += n * es
	switch {
	case e.Kind == schema.KindMessage:
		for i := uint64(0); i < n; i++ {
			ptr, err := u.Mem.Read64(buf + i*8)
			if err != nil {
				return err
			}
			sub, err := u.copyTree(e.SubADT, ptr, depth+1)
			if err != nil {
				return err
			}
			if err := u.Mem.Write64(newBuf+i*8, sub); err != nil {
				return err
			}
		}
	case e.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < n; i++ {
			if err := u.copyString(buf+i*es, newBuf+i*es); err != nil {
				return err
			}
		}
	}
	u.overlapped(dstSlot, 24)
	if err := u.Mem.Write64(dstSlot, newBuf); err != nil {
		return err
	}
	if err := u.Mem.Write64(dstSlot+8, n); err != nil {
		return err
	}
	return u.Mem.Write64(dstSlot+16, n)
}

// Merge implements do_proto_merge: merge the object at srcObj into dstObj
// with proto2 semantics — singular scalars and strings overwrite,
// singular sub-messages merge recursively, repeated fields concatenate
// (source elements deep-copied into the arena).
//
// Merge mutates live destination state in place, which arena rollback
// cannot revert, so it validates the whole operation with a zero-cycle
// read-only dry walk first (see validate.go): nesting depth, arena
// capacity, and every fault-injection trial happen before the first
// mutating write. A merge that starts mutating is therefore guaranteed to
// finish; if it nevertheless fails (a model invariant violation), the
// error wraps ErrPoisoned and the destination's state is undefined.
func (u *Unit) Merge(adtAddr, dstObj, srcObj uint64) (Stats, error) {
	before := u.stats
	u.opStart = before.Cycles
	defer u.traceOp("merge", before.Cycles)
	need, err := u.validateMerge(adtAddr, dstObj, srcObj, 1)
	if err != nil {
		return Stats{}, err
	}
	// +8 covers worst-case misalignment of the arena's current offset.
	if rem := u.Arena.Remaining(); need+8 > rem {
		return Stats{}, fmt.Errorf("%w: need ≤%d bytes, %d remaining", ErrArenaShort, need+8, rem)
	}
	u.fsm(4)
	u.suspendInj = true
	err = u.mergeTree(adtAddr, dstObj, srcObj, 1)
	u.suspendInj = false
	if err != nil {
		return Stats{}, fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	u.stats.Merges++
	return u.delta(before), nil
}

func (u *Unit) mergeTree(adtAddr, dstObj, srcObj uint64, depth int) error {
	if depth > u.Cfg.MaxDepth {
		return ErrTooDeep
	}
	if depth > u.Cfg.OnChipStackDepth {
		u.stats.SpillCycles += u.Cfg.SpillPenalty
		u.fsm(u.Cfg.SpillPenalty)
	}
	h, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return err
	}
	u.adtLoad(adtAddr, adt.HeaderSize)
	return u.scanPresent(h, adtAddr, srcObj, func(num int32, e adt.Entry) error {
		// Set the destination hasbit (the hasbits writer path).
		idx := uint64(num - h.MinField)
		hbAddr := dstObj + h.HasbitsOffset + (idx/64)*8
		w, err := u.Mem.Read64(hbAddr)
		if err != nil {
			return err
		}
		dstHad := w>>(idx%64)&1 == 1
		if err := u.Mem.Write64(hbAddr, w|1<<(idx%64)); err != nil {
			return err
		}
		u.overlapped(hbAddr, 8)

		srcSlot := srcObj + uint64(e.Offset)
		dstSlot := dstObj + uint64(e.Offset)
		switch {
		case e.Repeated:
			return u.mergeRepeated(e, dstSlot, srcSlot, dstHad, depth)
		case e.Kind == schema.KindMessage:
			srcPtr, err := u.Mem.Read64(srcSlot)
			if err != nil {
				return err
			}
			if srcPtr == 0 {
				return nil
			}
			dstPtr := uint64(0)
			if dstHad {
				if dstPtr, err = u.Mem.Read64(dstSlot); err != nil {
					return err
				}
			}
			if dstPtr == 0 {
				sub, err := u.copyTree(e.SubADT, srcPtr, depth+1)
				if err != nil {
					return err
				}
				u.overlapped(dstSlot, 8)
				return u.Mem.Write64(dstSlot, sub)
			}
			return u.mergeTree(e.SubADT, dstPtr, srcPtr, depth+1)
		case e.Kind.Class() == schema.ClassBytesLike:
			return u.copyString(srcSlot, dstSlot)
		default:
			// Scalar overwrite: copy the slot image.
			u.fsm(1)
			return u.streamCopy(dstSlot, srcSlot, layout.ScalarSlot(e.Kind))
		}
	})
}

// mergeRepeated concatenates src's elements after dst's.
func (u *Unit) mergeRepeated(e adt.Entry, dstSlot, srcSlot uint64, dstHad bool, depth int) error {
	srcBuf, err := u.Mem.Read64(srcSlot)
	if err != nil {
		return err
	}
	srcN, err := u.Mem.Read64(srcSlot + 8)
	if err != nil {
		return err
	}
	if srcN == 0 {
		return nil
	}
	var dstBuf, dstN uint64
	if dstHad {
		if dstBuf, err = u.Mem.Read64(dstSlot); err != nil {
			return err
		}
		if dstN, err = u.Mem.Read64(dstSlot + 8); err != nil {
			return err
		}
	}
	es := layout.ElemSize(e.Kind)
	newBuf, err := u.arenaAlloc((dstN + srcN) * es)
	if err != nil {
		return err
	}
	if err := u.streamCopy(newBuf, dstBuf, dstN*es); err != nil {
		return err
	}
	if err := u.streamCopy(newBuf+dstN*es, srcBuf, srcN*es); err != nil {
		return err
	}
	u.stats.BytesCopied += (dstN + srcN) * es
	// Deep-copy the appended pointer elements.
	switch {
	case e.Kind == schema.KindMessage:
		for i := uint64(0); i < srcN; i++ {
			ptr, err := u.Mem.Read64(srcBuf + i*8)
			if err != nil {
				return err
			}
			sub, err := u.copyTree(e.SubADT, ptr, depth+1)
			if err != nil {
				return err
			}
			if err := u.Mem.Write64(newBuf+(dstN+i)*8, sub); err != nil {
				return err
			}
		}
	case e.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < srcN; i++ {
			if err := u.copyString(srcBuf+i*es, newBuf+(dstN+i)*es); err != nil {
				return err
			}
		}
	}
	u.overlapped(dstSlot, 24)
	if err := u.Mem.Write64(dstSlot, newBuf); err != nil {
		return err
	}
	if err := u.Mem.Write64(dstSlot+8, dstN+srcN); err != nil {
		return err
	}
	return u.Mem.Write64(dstSlot+16, dstN+srcN)
}

func (u *Unit) delta(before Stats) Stats {
	u.opStart = u.stats.Cycles // close the op window; a spurious Abort charges nothing
	d := u.stats
	d.Cycles -= before.Cycles
	d.SpillCycles -= before.SpillCycles
	d.ADTStallCycles -= before.ADTStallCycles
	d.Clears -= before.Clears
	d.Copies -= before.Copies
	d.Merges -= before.Merges
	d.Allocs -= before.Allocs
	d.BytesCopied -= before.BytesCopied
	return d
}
