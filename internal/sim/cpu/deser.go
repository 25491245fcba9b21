package cpu

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/layout"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// Deserialization errors.
var (
	ErrMalformed = errors.New("cpu: malformed wire input")
	ErrTooDeep   = errors.New("cpu: message nesting exceeds limit")
)

// maxDepth matches codec.MaxNestingDepth.
const maxDepth = 100

// initialRepeatedCap is the initial capacity of a repeated field's buffer,
// mirroring RepeatedField's first growth step.
const initialRepeatedCap = 4

// repKey identifies one repeated field instance during a parse.
type repKey struct {
	obj uint64
	num int32
}

// repState tracks a repeated field's buffer during a parse (the state
// RepeatedField keeps in its header).
type repState struct {
	buf uint64
	len uint64
	cap uint64
}

// deserCtx is per-Deserialize parse state.
type deserCtx struct {
	reps map[repKey]*repState
}

// Deserialize parses bufLen wire bytes at bufAddr into the (caller
// allocated) object at objAddr, allocating sub-objects and payloads from
// the CPU's heap. Unknown fields are skipped (charged but not preserved).
func (c *CPU) Deserialize(t *schema.Message, bufAddr, bufLen, objAddr uint64) error {
	c.deserializes++
	c.charge(c.P.FrontendPressure)
	ctx := &deserCtx{reps: make(map[repKey]*repState)}
	return c.parseMessage(ctx, t, bufAddr, bufLen, objAddr, maxDepth)
}

// readVarintAt decodes a varint from simulated memory at pos (bounded by
// end), charging decode costs.
func (c *CPU) readVarintAt(pos, end uint64) (v uint64, n uint64, err error) {
	window := end - pos
	if window > wire.MaxVarintLen {
		window = wire.MaxVarintLen
	}
	if window == 0 {
		return 0, 0, ErrMalformed
	}
	s, err := c.Mem.View(pos, window)
	if err != nil {
		return 0, 0, err
	}
	val, vn, err := wire.ReadVarint(s)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	c.stream(pos, uint64(vn))
	c.charge(float64(vn)*c.P.VarintDecPerByte + c.P.BranchMispLoop)
	return val, uint64(vn), nil
}

func (c *CPU) parseMessage(ctx *deserCtx, t *schema.Message, bufAddr, bufLen, objAddr uint64, depth int) error {
	if depth <= 0 {
		return ErrTooDeep
	}
	l := c.Reg.Layout(t)
	c.charge(c.P.MessageSetup)
	pos, end := bufAddr, bufAddr+bufLen
	for pos < end {
		c.charge(c.P.TagDecode)
		tag, n, err := c.readVarintAt(pos, end)
		if err != nil {
			return err
		}
		pos += n
		num, wt := wire.SplitTag(tag)
		if num <= 0 || num > wire.MaxFieldNumber || !wt.Valid() {
			return fmt.Errorf("%w: bad tag %d", ErrMalformed, tag)
		}
		fi := t.FieldIndex(num)
		c.charge(c.P.FieldDispatch)
		if fi < 0 || !t.Fields[fi].Kind.AcceptsWireType(wt, t.Fields[fi].Repeated()) {
			pos, err = c.skipValue(pos, end, num, wt)
			if err != nil {
				return err
			}
			continue
		}
		// Set the hasbit (read-modify-write of the sparse word).
		idx := uint64(num - l.MinField)
		hbAddr := objAddr + layout.HasbitsOffset + (idx/64)*8
		c.access(hbAddr, 8)
		w, err := c.Mem.Read64(hbAddr)
		if err != nil {
			return err
		}
		if err := c.Mem.Write64(hbAddr, w|1<<(idx%64)); err != nil {
			return err
		}
		c.charge(1)

		f := t.Fields[fi]
		pos, err = c.parseField(ctx, f, &l.Fields[fi], wt, pos, end, objAddr, depth)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name, f.Name, err)
		}
	}
	if pos != end {
		return fmt.Errorf("%w: field overruns message bounds", ErrMalformed)
	}
	return nil
}

func (c *CPU) skipValue(pos, end uint64, num int32, wt wire.Type) (uint64, error) {
	switch wt {
	case wire.TypeVarint:
		_, n, err := c.readVarintAt(pos, end)
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
		n, vn, err := c.readVarintAt(pos, end)
		if err != nil {
			return 0, err
		}
		if pos+vn+n > end {
			return 0, ErrMalformed
		}
		return pos + vn + n, nil
	default:
		return 0, fmt.Errorf("%w: group wire type %v", ErrMalformed, wt)
	}
}

// decodeScalarAt decodes one scalar value of field f at pos, returning
// its stored bit pattern.
func (c *CPU) decodeScalarAt(f *schema.Field, pos, end uint64) (bits uint64, n uint64, err error) {
	if n := uint64(f.Kind.FixedWireSize()); n > 0 {
		if pos+n > end {
			return 0, 0, ErrMalformed
		}
		c.stream(pos, n)
		c.charge(c.P.FixedLoadStore)
		v, err := c.Mem.ReadUint(pos, n)
		if err != nil {
			return 0, 0, err
		}
		return f.Kind.Stored(v), n, nil
	}
	v, vn, err := c.readVarintAt(pos, end)
	if err != nil {
		return 0, 0, err
	}
	if f.Kind.IsZigZag() {
		c.charge(c.P.ZigZag)
	}
	return f.Kind.Stored(v), vn, nil
}

// writeSlot stores bits into a slot of the given width, charging the
// store.
func (c *CPU) writeSlot(addr, slot, bits uint64) error {
	c.access(addr, slot)
	return c.Mem.WriteUint(addr, slot, bits)
}

// allocString allocates a payload of n bytes, charging string
// construction cost plus the first-touch cost of the fresh pages — the
// software-side expense the accelerator's pre-assigned arena avoids
// (§4.4.7) — and returns the address (0 for empty).
func (c *CPU) allocString(n uint64) (uint64, error) {
	if c.UseArena {
		c.charge(c.P.StringAlloc * c.P.ArenaDiscount)
	} else {
		c.charge(c.P.StringAlloc + c.P.FirstTouchPerB*float64(n))
	}
	if n == 0 {
		return 0, nil
	}
	return c.Heap.Alloc(n, 8)
}

// allocObject allocates and default-initializes an object of type sub,
// charging construction costs, and returns its address.
func (c *CPU) allocObject(sub *schema.Message) (uint64, error) {
	l := c.Reg.Layout(sub)
	alloc := c.P.ObjectAlloc
	if c.UseArena {
		alloc *= c.P.ArenaDiscount
	}
	c.charge(alloc + c.P.ObjectInitPer8B*float64(l.Size/8))
	addr, err := c.Heap.Alloc(l.Size, 8)
	if err != nil {
		return 0, err
	}
	buf, err := c.Mem.Slice(addr, l.Size)
	if err != nil {
		return 0, err
	}
	for i := range buf {
		buf[i] = 0
	}
	c.stream(addr, l.Size)
	if err := c.Mem.Write64(addr, c.Reg.TypeID(sub)); err != nil {
		return 0, err
	}
	return addr, nil
}

// appendRepeated returns the element address for the next element of a
// repeated field, growing the buffer as RepeatedField would.
func (c *CPU) appendRepeated(ctx *deserCtx, objAddr, slotAddr uint64, f *schema.Field) (uint64, error) {
	key := repKey{objAddr, f.Number}
	rs, ok := ctx.reps[key]
	es := layout.ElemSize(f.Kind)
	if !ok {
		// Adopt any existing buffer (merge-into semantics).
		c.access(slotAddr, 24)
		buf, err := c.Mem.Read64(slotAddr)
		if err != nil {
			return 0, err
		}
		ln, err := c.Mem.Read64(slotAddr + 8)
		if err != nil {
			return 0, err
		}
		cp, err := c.Mem.Read64(slotAddr + 16)
		if err != nil {
			return 0, err
		}
		rs = &repState{buf: buf, len: ln, cap: cp}
		ctx.reps[key] = rs
	}
	c.charge(c.P.RepeatedAppend)
	if rs.len == rs.cap {
		newCap := rs.cap * 2
		if newCap == 0 {
			newCap = initialRepeatedCap
		}
		newBuf, err := c.Heap.Alloc(newCap*es, 8)
		if err != nil {
			return 0, err
		}
		c.charge(c.P.ReallocSetup)
		if rs.len > 0 {
			// Copy existing elements.
			if err := c.copyBytes(newBuf, rs.buf, rs.len*es); err != nil {
				return 0, err
			}
		}
		rs.buf, rs.cap = newBuf, newCap
		if err := c.Mem.Write64(slotAddr, rs.buf); err != nil {
			return 0, err
		}
		if err := c.Mem.Write64(slotAddr+16, rs.cap); err != nil {
			return 0, err
		}
	}
	elemAddr := rs.buf + rs.len*es
	rs.len++
	c.access(slotAddr+8, 8)
	if err := c.Mem.Write64(slotAddr+8, rs.len); err != nil {
		return 0, err
	}
	return elemAddr, nil
}

func (c *CPU) parseField(ctx *deserCtx, f *schema.Field, fl *layout.FieldLayout, wt wire.Type, pos, end, objAddr uint64, depth int) (uint64, error) {
	slotAddr := objAddr + fl.Offset
	switch {
	case f.Kind == schema.KindMessage:
		n, vn, err := c.readVarintAt(pos, end)
		if err != nil {
			return 0, err
		}
		pos += vn
		if pos+n > end {
			return 0, ErrMalformed
		}
		var subAddr uint64
		if f.Repeated() {
			elemAddr, err := c.appendRepeated(ctx, objAddr, slotAddr, f)
			if err != nil {
				return 0, err
			}
			subAddr, err = c.allocObject(f.Message)
			if err != nil {
				return 0, err
			}
			if err := c.writeSlot(elemAddr, 8, subAddr); err != nil {
				return 0, err
			}
		} else {
			c.access(slotAddr, 8)
			subAddr, err = c.Mem.Read64(slotAddr)
			if err != nil {
				return 0, err
			}
			if subAddr == 0 {
				subAddr, err = c.allocObject(f.Message)
				if err != nil {
					return 0, err
				}
				if err := c.writeSlot(slotAddr, 8, subAddr); err != nil {
					return 0, err
				}
			}
		}
		if err := c.parseMessage(ctx, f.Message, pos, n, subAddr, depth-1); err != nil {
			return 0, err
		}
		return pos + n, nil

	case f.Kind.Class() == schema.ClassBytesLike:
		n, vn, err := c.readVarintAt(pos, end)
		if err != nil {
			return 0, err
		}
		pos += vn
		if pos+n > end {
			return 0, ErrMalformed
		}
		dataAddr, err := c.allocString(n)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			if err := c.copyBytes(dataAddr, pos, n); err != nil {
				return 0, err
			}
		}
		headerAddr := slotAddr
		if f.Repeated() {
			headerAddr, err = c.appendRepeated(ctx, objAddr, slotAddr, f)
			if err != nil {
				return 0, err
			}
		}
		c.access(headerAddr, 16)
		if err := c.Mem.Write64(headerAddr, dataAddr); err != nil {
			return 0, err
		}
		if err := c.Mem.Write64(headerAddr+8, n); err != nil {
			return 0, err
		}
		return pos + n, nil

	case f.Repeated() && wt == wire.TypeBytes:
		// Packed run.
		n, vn, err := c.readVarintAt(pos, end)
		if err != nil {
			return 0, err
		}
		pos += vn
		if pos+n > end {
			return 0, ErrMalformed
		}
		runEnd := pos + n
		for pos < runEnd {
			bits, sn, err := c.decodeScalarAt(f, pos, runEnd)
			if err != nil {
				return 0, err
			}
			pos += sn
			elemAddr, err := c.appendRepeated(ctx, objAddr, slotAddr, f)
			if err != nil {
				return 0, err
			}
			if err := c.writeSlot(elemAddr, layout.ElemSize(f.Kind), bits); err != nil {
				return 0, err
			}
		}
		return pos, nil

	case f.Repeated():
		bits, sn, err := c.decodeScalarAt(f, pos, end)
		if err != nil {
			return 0, err
		}
		elemAddr, err := c.appendRepeated(ctx, objAddr, slotAddr, f)
		if err != nil {
			return 0, err
		}
		if err := c.writeSlot(elemAddr, layout.ElemSize(f.Kind), bits); err != nil {
			return 0, err
		}
		return pos + sn, nil

	default:
		bits, sn, err := c.decodeScalarAt(f, pos, end)
		if err != nil {
			return 0, err
		}
		if err := c.writeSlot(slotAddr, fl.Slot, bits); err != nil {
			return 0, err
		}
		return pos + sn, nil
	}
}

// AllocTopLevel allocates a zeroed top-level object for deserialization
// (user code allocates the top-level message; the library allocates the
// rest — §4.4).
func (c *CPU) AllocTopLevel(t *schema.Message) (uint64, error) {
	return c.allocObject(t)
}
