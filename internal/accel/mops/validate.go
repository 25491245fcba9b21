package mops

import (
	"fmt"

	"protoacc/internal/accel/adt"
	"protoacc/internal/accel/layout"
	"protoacc/internal/faults"
	"protoacc/internal/pb/schema"
)

// Merge's validation pre-pass.
//
// Unlike Clear (idempotent) and Copy (writes only fresh arena memory, so
// an arena rollback reverts it completely), Merge rewrites live
// destination state in place: hasbits are set before field payloads land
// and repeated-field slots are redirected to newly-allocated buffers. A
// mid-merge abort therefore cannot be undone by arena truncation alone —
// the destination would be left pointing into scrubbed memory. Instead of
// attempting an unwindable mutation log, the unit validates the whole
// merge up front with a zero-cycle, read-only dry walk that mirrors every
// read the mutating phase will perform: it checks the nesting limit,
// accumulates an upper bound on the arena bytes the merge will allocate,
// and hosts all fault-injection trials for the operation. Any fault —
// injected, too-deep, arena shortfall, unmapped access — surfaces here,
// before the destination is touched, so an aborted merge is always clean.
//
// The walk charges no cycles and issues no memory-system accesses, so a
// fault-free merge's timing is bit-identical with or without validation.

// align8 rounds n up to the arena's 8-byte allocation alignment.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// validateMerge dry-walks mergeTree, returning the arena bytes the
// mutating phase will allocate (an upper bound, alignment included).
func (u *Unit) validateMerge(adtAddr, dstObj, srcObj uint64, depth int) (uint64, error) {
	if depth > u.Cfg.MaxDepth {
		return 0, ErrTooDeep
	}
	h, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return 0, err
	}
	var need uint64
	err = u.validateScan(h, adtAddr, srcObj, func(num int32, e adt.Entry) error {
		idx := uint64(num - h.MinField)
		dhw, err := u.Mem.Read64(dstObj + h.HasbitsOffset + (idx/64)*8)
		if err != nil {
			return err
		}
		dstHad := dhw>>(idx%64)&1 == 1
		srcSlot := srcObj + uint64(e.Offset)
		dstSlot := dstObj + uint64(e.Offset)
		switch {
		case e.Repeated:
			n, err := u.validateMergeRepeated(e, dstSlot, srcSlot, dstHad, depth)
			if err != nil {
				return err
			}
			need += n
			return nil
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
			var n uint64
			if dstPtr == 0 {
				n, err = u.validateCopy(e.SubADT, srcPtr, depth+1)
			} else {
				n, err = u.validateMerge(e.SubADT, dstPtr, srcPtr, depth+1)
			}
			if err != nil {
				return err
			}
			need += n
			return nil
		case e.Kind.Class() == schema.ClassBytesLike:
			n, err := u.validateString(srcSlot)
			if err != nil {
				return err
			}
			need += n
			return nil
		default:
			// Scalar overwrite: one memwriter store, no allocation.
			return u.inject(faults.SiteMemwriter)
		}
	})
	return need, err
}

// validateScan mirrors scanPresent's reads (hasbits words, ADT entries)
// without charging cycles or touching the memory system.
func (u *Unit) validateScan(h adt.Header, adtAddr, objAddr uint64, fn func(int32, adt.Entry) error) error {
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
		entry, err := adt.ReadEntry(u.Mem, adtAddr, h, num)
		if err != nil {
			return fmt.Errorf("mops: hasbit set for undefined field %d: %w", num, err)
		}
		if err := fn(num, entry); err != nil {
			return err
		}
	}
	return nil
}

// validateString mirrors copyString's allocation: one arena buffer when
// the source string is non-empty.
func (u *Unit) validateString(srcHdr uint64) (uint64, error) {
	n, err := u.Mem.Read64(srcHdr + 8)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if err := u.inject(faults.SiteArena); err != nil {
		return 0, err
	}
	if err := u.inject(faults.SiteMemwriter); err != nil {
		return 0, err
	}
	return align8(n), nil
}

// validateCopy dry-walks copyTree, returning its arena consumption.
func (u *Unit) validateCopy(adtAddr, srcObj uint64, depth int) (uint64, error) {
	if depth > u.Cfg.MaxDepth {
		return 0, ErrTooDeep
	}
	h, err := adt.ReadHeader(u.Mem, adtAddr)
	if err != nil {
		return 0, err
	}
	if err := u.inject(faults.SiteArena); err != nil {
		return 0, err
	}
	if err := u.inject(faults.SiteMemwriter); err != nil {
		return 0, err
	}
	need := align8(h.ObjectSize)
	err = u.validateScan(h, adtAddr, srcObj, func(num int32, e adt.Entry) error {
		srcSlot := srcObj + uint64(e.Offset)
		switch {
		case e.Repeated:
			n, err := u.validateCopyRepeated(e, srcSlot, depth)
			if err != nil {
				return err
			}
			need += n
			return nil
		case e.Kind == schema.KindMessage:
			ptr, err := u.Mem.Read64(srcSlot)
			if err != nil {
				return err
			}
			if ptr == 0 {
				return nil
			}
			n, err := u.validateCopy(e.SubADT, ptr, depth+1)
			if err != nil {
				return err
			}
			need += n
			return nil
		case e.Kind.Class() == schema.ClassBytesLike:
			n, err := u.validateString(srcSlot)
			if err != nil {
				return err
			}
			need += n
			return nil
		default:
			return nil
		}
	})
	return need, err
}

// validateCopyRepeated mirrors fixupRepeated's allocations.
func (u *Unit) validateCopyRepeated(e adt.Entry, srcSlot uint64, depth int) (uint64, error) {
	buf, err := u.Mem.Read64(srcSlot)
	if err != nil {
		return 0, err
	}
	n, err := u.Mem.Read64(srcSlot + 8)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	es := layout.ElemSize(e.Kind)
	if err := u.inject(faults.SiteArena); err != nil {
		return 0, err
	}
	if err := u.inject(faults.SiteMemwriter); err != nil {
		return 0, err
	}
	need := align8(n * es)
	switch {
	case e.Kind == schema.KindMessage:
		for i := uint64(0); i < n; i++ {
			ptr, err := u.Mem.Read64(buf + i*8)
			if err != nil {
				return 0, err
			}
			sub, err := u.validateCopy(e.SubADT, ptr, depth+1)
			if err != nil {
				return 0, err
			}
			need += sub
		}
	case e.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < n; i++ {
			sub, err := u.validateString(buf + i*es)
			if err != nil {
				return 0, err
			}
			need += sub
		}
	}
	return need, nil
}

// validateMergeRepeated mirrors mergeRepeated's allocations.
func (u *Unit) validateMergeRepeated(e adt.Entry, dstSlot, srcSlot uint64, dstHad bool, depth int) (uint64, error) {
	srcBuf, err := u.Mem.Read64(srcSlot)
	if err != nil {
		return 0, err
	}
	srcN, err := u.Mem.Read64(srcSlot + 8)
	if err != nil {
		return 0, err
	}
	if srcN == 0 {
		return 0, nil
	}
	var dstN uint64
	if dstHad {
		if dstN, err = u.Mem.Read64(dstSlot + 8); err != nil {
			return 0, err
		}
	}
	es := layout.ElemSize(e.Kind)
	if err := u.inject(faults.SiteArena); err != nil {
		return 0, err
	}
	if err := u.inject(faults.SiteMemwriter); err != nil {
		return 0, err
	}
	need := align8((dstN + srcN) * es)
	switch {
	case e.Kind == schema.KindMessage:
		for i := uint64(0); i < srcN; i++ {
			ptr, err := u.Mem.Read64(srcBuf + i*8)
			if err != nil {
				return 0, err
			}
			sub, err := u.validateCopy(e.SubADT, ptr, depth+1)
			if err != nil {
				return 0, err
			}
			need += sub
		}
	case e.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < srcN; i++ {
			sub, err := u.validateString(srcBuf + i*es)
			if err != nil {
				return 0, err
			}
			need += sub
		}
	}
	return need, nil
}
