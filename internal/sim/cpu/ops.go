package cpu

import (
	"protoacc/internal/accel/layout"
	"protoacc/internal/pb/schema"
)

// This file models the software versions of the other protobuf operators
// of Figure 2 — clear, copy (CopyFrom), and merge (MergeFrom) — which the
// paper's §7 proposes offloading next. They execute over simulated memory
// with the same cost table as parse/serialize, so the §7 bench can compare
// like against like.

// ClearObject resets all presence state of the object at objAddr. The
// C++ Clear walks present fields to release/reset them before clearing
// the bits, so the walk is charged first.
func (c *CPU) ClearObject(t *schema.Message, objAddr uint64) error {
	c.clears++
	l := c.Reg.Layout(t)
	c.charge(c.P.MessageSetup / 2)
	for _, fl := range l.Fields {
		present, err := c.hasbit(objAddr, l, fl.Field.Number)
		if err != nil {
			return err
		}
		if present {
			c.charge(c.P.FieldDispatch / 2)
		}
	}
	for w := 0; w < l.HasbitsWords; w++ {
		a := objAddr + layout.HasbitsOffset + uint64(w)*8
		c.access(a, 8)
		if err := c.Mem.Write64(a, 0); err != nil {
			return err
		}
	}
	return nil
}

// CopyObject deep-copies the object at srcObj into a freshly allocated
// object and returns its address (C++ CopyFrom onto a new message).
func (c *CPU) CopyObject(t *schema.Message, srcObj uint64) (uint64, error) {
	c.copies++
	dst, err := c.allocObject(t)
	if err != nil {
		return 0, err
	}
	return dst, c.MergeObjects(t, dst, srcObj)
}

// MergeObjects merges src into dst with proto2 semantics, charging
// per-field software costs.
func (c *CPU) MergeObjects(t *schema.Message, dstObj, srcObj uint64) error {
	c.merges++
	return c.mergeObjects(t, dstObj, srcObj, maxDepth)
}

func (c *CPU) mergeObjects(t *schema.Message, dstObj, srcObj uint64, depth int) error {
	if depth <= 0 {
		return ErrTooDeep
	}
	l := c.Reg.Layout(t)
	c.charge(c.P.MessageSetup)
	for w := 0; w < l.HasbitsWords; w++ {
		c.access(srcObj+layout.HasbitsOffset+uint64(w)*8, 8)
	}
	for _, fl := range l.Fields {
		f := fl.Field
		present, err := c.hasbit(srcObj, l, f.Number)
		if err != nil {
			return err
		}
		if !present {
			continue
		}
		c.charge(c.P.FieldDispatch)
		dstHad, err := c.hasbit(dstObj, l, f.Number)
		if err != nil {
			return err
		}
		// Set the destination hasbit.
		idx := uint64(f.Number - l.MinField)
		hbAddr := dstObj + layout.HasbitsOffset + (idx/64)*8
		c.access(hbAddr, 8)
		w, err := c.Mem.Read64(hbAddr)
		if err != nil {
			return err
		}
		if err := c.Mem.Write64(hbAddr, w|1<<(idx%64)); err != nil {
			return err
		}

		srcSlot := srcObj + fl.Offset
		dstSlot := dstObj + fl.Offset
		switch {
		case f.Repeated():
			if err := c.mergeRepeated(f, dstSlot, srcSlot, dstHad, depth); err != nil {
				return err
			}
		case f.Kind == schema.KindMessage:
			c.access(srcSlot, 8)
			srcPtr, err := c.Mem.Read64(srcSlot)
			if err != nil {
				return err
			}
			if srcPtr == 0 {
				continue
			}
			var dstPtr uint64
			if dstHad {
				c.access(dstSlot, 8)
				if dstPtr, err = c.Mem.Read64(dstSlot); err != nil {
					return err
				}
			}
			if dstPtr == 0 {
				if dstPtr, err = c.allocObject(f.Message); err != nil {
					return err
				}
				if err := c.writeSlot(dstSlot, 8, dstPtr); err != nil {
					return err
				}
			}
			if err := c.mergeObjects(f.Message, dstPtr, srcPtr, depth-1); err != nil {
				return err
			}
		case f.Kind.Class() == schema.ClassBytesLike:
			if err := c.copyStringHeader(srcSlot, dstSlot); err != nil {
				return err
			}
		default:
			bits, err := c.readSlot(srcSlot, fl.Slot, f.Kind)
			if err != nil {
				return err
			}
			if err := c.writeSlot(dstSlot, fl.Slot, bits); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyStringHeader duplicates a string's payload and writes a fresh
// header at dstHdr.
func (c *CPU) copyStringHeader(srcHdr, dstHdr uint64) error {
	c.access(srcHdr, 16)
	ptr, err := c.Mem.Read64(srcHdr)
	if err != nil {
		return err
	}
	n, err := c.Mem.Read64(srcHdr + 8)
	if err != nil {
		return err
	}
	dataAddr, err := c.allocString(n)
	if err != nil {
		return err
	}
	if n > 0 {
		if err := c.copyBytes(dataAddr, ptr, n); err != nil {
			return err
		}
	}
	c.access(dstHdr, 16)
	if err := c.Mem.Write64(dstHdr, dataAddr); err != nil {
		return err
	}
	return c.Mem.Write64(dstHdr+8, n)
}

// mergeRepeated concatenates src's elements after dst's, reallocating the
// destination buffer.
func (c *CPU) mergeRepeated(f *schema.Field, dstSlot, srcSlot uint64, dstHad bool, depth int) error {
	c.access(srcSlot, 16)
	srcBuf, err := c.Mem.Read64(srcSlot)
	if err != nil {
		return err
	}
	srcN, err := c.Mem.Read64(srcSlot + 8)
	if err != nil {
		return err
	}
	if srcN == 0 {
		return nil
	}
	var dstBuf, dstN uint64
	if dstHad {
		c.access(dstSlot, 16)
		if dstBuf, err = c.Mem.Read64(dstSlot); err != nil {
			return err
		}
		if dstN, err = c.Mem.Read64(dstSlot + 8); err != nil {
			return err
		}
	}
	es := layout.ElemSize(f.Kind)
	c.charge(c.P.ReallocSetup)
	newBuf, err := c.Heap.Alloc((dstN+srcN)*es, 8)
	if err != nil {
		return err
	}
	if dstN > 0 {
		if err := c.copyBytes(newBuf, dstBuf, dstN*es); err != nil {
			return err
		}
	}
	if err := c.copyBytes(newBuf+dstN*es, srcBuf, srcN*es); err != nil {
		return err
	}
	c.charge(c.P.RepeatedAppend * float64(srcN))
	switch {
	case f.Kind == schema.KindMessage:
		for i := uint64(0); i < srcN; i++ {
			ptr, err := c.Mem.Read64(srcBuf + i*8)
			if err != nil {
				return err
			}
			sub, err := c.allocObject(f.Message)
			if err != nil {
				return err
			}
			if err := c.mergeObjects(f.Message, sub, ptr, depth-1); err != nil {
				return err
			}
			if err := c.Mem.Write64(newBuf+(dstN+i)*8, sub); err != nil {
				return err
			}
		}
	case f.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < srcN; i++ {
			if err := c.copyStringHeader(srcBuf+i*es, newBuf+(dstN+i)*es); err != nil {
				return err
			}
		}
	}
	if err := c.Mem.Write64(dstSlot, newBuf); err != nil {
		return err
	}
	if err := c.Mem.Write64(dstSlot+8, dstN+srcN); err != nil {
		return err
	}
	return c.Mem.Write64(dstSlot+16, dstN+srcN)
}
