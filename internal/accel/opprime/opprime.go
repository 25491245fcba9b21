// Package opprime implements the prior-work baseline the paper compares
// against (§3.7, §6): an Optimus-Prime-style serialization accelerator
// programmed by per-message-instance tables. Where ProtoAcc uses one
// fixed Accelerator Descriptor Table per message *type* plus the object's
// own sparse hasbits, this design requires software to construct a fresh
// programming table for every message *instance* — one entry per present
// field, with sub-message fields pointing at recursively built
// sub-tables.
//
// The paper's quantitative framing: the per-instance design writes an
// extra 64 bits per present field (table construction, on the CPU's
// critical path), while the ADT design reads an extra bit per defined
// field number (the sparse hasbits scan). This package makes that
// trade-off empirical: BuildTable charges CPU cycles for construction,
// and Serializer.Serialize charges accelerator cycles for the table-driven
// walk, producing byte-identical wire output to the ProtoAcc serializer.
package opprime

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/layout"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
	"protoacc/internal/sim/cpu"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
)

// Entry layout: 24 bytes per present field.
//
//	+0  uint32: kind (low byte) | repeated<<8 | packed<<9
//	+4  uint32: field number
//	+8  uint64: slot address in the object
//	+16 uint64: sub-table pointer | count<<48 (message fields), else 0
const entrySize = 24

// Errors.
var (
	ErrTooDeep  = errors.New("opprime: nesting exceeds limit")
	ErrBadTable = errors.New("opprime: malformed instance table")
)

const maxDepth = 100

// Table locates one instance's programming table.
type Table struct {
	Addr  uint64
	Count uint64
}

// Builder constructs per-instance tables on the CPU, charging the
// software cost the paper's §3.7 identifies (the work Optimus Prime moves
// into setters and clear methods; charged here at serialization time,
// which is conservative in the baseline's favour since it skips absent
// setter overhead entirely).
type Builder struct {
	CPU   *cpu.CPU
	Mem   *mem.Memory
	Reg   *layout.Registry
	Alloc *mem.Allocator // table storage (software-managed)
}

// BuildTable walks the object at objAddr (type t) and writes its
// programming table, returning the table and charging CPU cycles.
func (b *Builder) BuildTable(t *schema.Message, objAddr uint64) (Table, error) {
	return b.build(t, objAddr, maxDepth)
}

func (b *Builder) build(t *schema.Message, objAddr uint64, depth int) (Table, error) {
	if depth <= 0 {
		return Table{}, ErrTooDeep
	}
	l := b.Reg.Layout(t)
	// Collect present fields (hasbits reads).
	type pending struct {
		fl  layout.FieldLayout
		sub Table
	}
	var entries []pending
	for _, fl := range l.Fields {
		present, err := b.hasbit(objAddr, l, fl.Field.Number)
		if err != nil {
			return Table{}, err
		}
		if !present {
			continue
		}
		p := pending{fl: fl}
		if fl.Field.Kind == schema.KindMessage && !fl.Field.Repeated() {
			ptr, err := b.Mem.Read64(objAddr + fl.Offset)
			if err != nil {
				return Table{}, err
			}
			if ptr == 0 {
				continue
			}
			p.sub, err = b.build(fl.Field.Message, ptr, depth-1)
			if err != nil {
				return Table{}, err
			}
		}
		entries = append(entries, p)
	}
	addr, err := b.Alloc.Alloc(uint64(len(entries))*entrySize, 8)
	if err != nil {
		return Table{}, err
	}
	// Charge construction: per-entry bookkeeping plus the stores.
	b.CPU.ChargeTableWrites(len(entries))
	b.CPU.ChargeAccess(addr, uint64(len(entries))*entrySize)
	for i, p := range entries {
		f := p.fl.Field
		ea := addr + uint64(i)*entrySize
		flags := uint32(f.Kind)
		if f.Repeated() {
			flags |= 1 << 8
		}
		if f.Packed {
			flags |= 1 << 9
		}
		if err := b.Mem.Write32(ea, flags); err != nil {
			return Table{}, err
		}
		if err := b.Mem.Write32(ea+4, uint32(f.Number)); err != nil {
			return Table{}, err
		}
		if err := b.Mem.Write64(ea+8, objAddr+p.fl.Offset); err != nil {
			return Table{}, err
		}
		var w2 uint64
		if f.Kind == schema.KindMessage && !f.Repeated() {
			w2 = p.sub.Addr | p.sub.Count<<48
		}
		if err := b.Mem.Write64(ea+16, w2); err != nil {
			return Table{}, err
		}
	}
	return Table{Addr: addr, Count: uint64(len(entries))}, nil
}

func (b *Builder) hasbit(objAddr uint64, l *layout.Layout, num int32) (bool, error) {
	idx := uint64(num - l.MinField)
	w, err := b.Mem.Read64(objAddr + layout.HasbitsOffset + (idx/64)*8)
	if err != nil {
		return false, err
	}
	return w>>(idx%64)&1 == 1, nil
}

// Serializer is the table-driven accelerator model. It shares the
// ProtoAcc serializer's output regime (reverse order, high-to-low) and
// cycle conventions, but is programmed by instance tables instead of ADTs
// and hasbits — so it spends no frontend bit-scanning cycles and no ADT
// entry loads, the advantage the per-instance design buys with its
// construction cost.
type Serializer struct {
	Mem  *mem.Memory
	Port *memmodel.Port

	// Output arena, high-to-low like the ProtoAcc serializer.
	outBase, outTop uint64

	Cycles float64
	hidden uint64
}

// NewSerializer creates the baseline serializer writing into out.
func NewSerializer(m *mem.Memory, port *memmodel.Port, out *mem.Region) *Serializer {
	return &Serializer{Mem: m, Port: port, outBase: out.Base, outTop: out.End(), hidden: 1}
}

func (s *Serializer) fsm(c float64) { s.Cycles += c }

func (s *Serializer) load(addr, size uint64) {
	lat := s.Port.Access(addr, size)
	if lat > s.hidden {
		s.Cycles += float64(lat - s.hidden)
	}
}

func (s *Serializer) streamOut(addr, size uint64) {
	lat := s.Port.StreamAccess(addr, size)
	if lat > s.hidden {
		s.Cycles += float64(lat-s.hidden) / 4
	}
}

// Serialize emits the message programmed by tab, returning the output's
// address and length.
func (s *Serializer) Serialize(tab Table) (uint64, uint64, error) {
	s.fsm(8) // dispatch
	start, err := s.serializeTable(tab, s.outTop, maxDepth)
	if err != nil {
		return 0, 0, err
	}
	length := s.outTop - start
	s.outTop = start
	// Memwriter drain.
	s.fsm(float64((length + 15) / 16))
	return start, length, nil
}

func (s *Serializer) writeBack(end uint64, b []byte) (uint64, error) {
	n := uint64(len(b))
	if end < s.outBase+n {
		return 0, fmt.Errorf("opprime: output arena exhausted")
	}
	pos := end - n
	if err := s.Mem.WriteBytes(pos, b); err != nil {
		return 0, err
	}
	s.streamOut(pos, n)
	return pos, nil
}

func (s *Serializer) serializeTable(tab Table, end uint64, depth int) (uint64, error) {
	if depth <= 0 {
		return 0, ErrTooDeep
	}
	pos := end
	for i := tab.Count; i > 0; i-- {
		ea := tab.Addr + (i-1)*entrySize
		s.fsm(1) // entry fetch + op issue (no bit scan, no ADT load)
		s.load(ea, entrySize)
		flags, err := s.Mem.Read32(ea)
		if err != nil {
			return 0, err
		}
		numWord, err := s.Mem.Read32(ea + 4)
		if err != nil {
			return 0, err
		}
		slotAddr, err := s.Mem.Read64(ea + 8)
		if err != nil {
			return 0, err
		}
		w2, err := s.Mem.Read64(ea + 16)
		if err != nil {
			return 0, err
		}
		kind := schema.Kind(flags & 0xff)
		repeated := flags>>8&1 == 1
		packed := flags>>9&1 == 1
		num := int32(numWord)
		if num <= 0 {
			return 0, ErrBadTable
		}
		pos, err = s.serializeField(kind, repeated, packed, num, slotAddr, w2, pos, depth)
		if err != nil {
			return 0, err
		}
	}
	return pos, nil
}

func (s *Serializer) readSlot(addr, size uint64) (uint64, error) {
	s.load(addr, size)
	return s.Mem.ReadUint(addr, size)
}

func (s *Serializer) serializeField(kind schema.Kind, repeated, packed bool, num int32, slotAddr, w2, pos uint64, depth int) (uint64, error) {
	switch {
	case kind == schema.KindMessage && !repeated:
		subTab := Table{Addr: w2 & (1<<48 - 1), Count: w2 >> 48}
		bodyEnd := pos
		bodyStart, err := s.serializeTable(subTab, bodyEnd, depth-1)
		if err != nil {
			return 0, err
		}
		length := bodyEnd - bodyStart
		s.fsm(1)
		pos, err = s.writeBack(bodyStart, wire.AppendVarint(nil, length))
		if err != nil {
			return 0, err
		}
		return s.writeBack(pos, wire.AppendTag(nil, num, wire.TypeBytes))
	case repeated:
		return s.serializeRepeated(kind, packed, num, slotAddr, pos, depth)
	case kind.Class() == schema.ClassBytesLike:
		ptr, err := s.readSlot(slotAddr, 8)
		if err != nil {
			return 0, err
		}
		n, err := s.readSlot(slotAddr+8, 8)
		if err != nil {
			return 0, err
		}
		return s.emitString(num, ptr, n, pos)
	default:
		bits, err := s.readSlot(slotAddr, layout.ScalarSlot(kind))
		if err != nil {
			return 0, err
		}
		s.fsm(1)
		return s.emitKV(num, kind, layout.SlotBits(kind, bits), pos)
	}
}

func (s *Serializer) emitKV(num int32, k schema.Kind, bits, pos uint64) (uint64, error) {
	pos, err := s.writeBack(pos, k.AppendValue(nil, bits))
	if err != nil {
		return 0, err
	}
	s.fsm(2) // key construction + output sequencing (same as ProtoAcc)
	return s.writeBack(pos, wire.AppendTag(nil, num, k.WireType()))
}

func (s *Serializer) emitString(num int32, ptr, n, pos uint64) (uint64, error) {
	if pos < s.outBase+n {
		return 0, fmt.Errorf("opprime: output arena exhausted")
	}
	payload := pos - n
	if n > 0 {
		src, err := s.Mem.View(ptr, n)
		if err != nil {
			return 0, err
		}
		if err := s.Mem.WriteBytes(payload, src); err != nil {
			return 0, err
		}
		s.load(ptr, n)
		s.streamOut(payload, n)
		s.fsm(float64((n + 15) / 16))
	}
	pos = payload
	s.fsm(2)
	pos, err := s.writeBack(pos, wire.AppendVarint(nil, n))
	if err != nil {
		return 0, err
	}
	return s.writeBack(pos, wire.AppendTag(nil, num, wire.TypeBytes))
}

func (s *Serializer) serializeRepeated(kind schema.Kind, packed bool, num int32, slotAddr, pos uint64, depth int) (uint64, error) {
	// Repeated message fields are not supported by this baseline model
	// (Optimus Prime's evaluation covers flat and singly-nested types);
	// the comparison workloads avoid them.
	if kind == schema.KindMessage {
		return 0, fmt.Errorf("opprime: repeated sub-message fields unsupported by the baseline")
	}
	buf, err := s.readSlot(slotAddr, 8)
	if err != nil {
		return 0, err
	}
	n, err := s.readSlot(slotAddr+8, 8)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return pos, nil
	}
	es := layout.ScalarSlot(kind)
	if kind.Class() == schema.ClassBytesLike {
		for i := n; i > 0; i-- {
			hdr := buf + (i-1)*layout.StringHeaderSize
			ptr, err := s.readSlot(hdr, 8)
			if err != nil {
				return 0, err
			}
			sl, err := s.readSlot(hdr+8, 8)
			if err != nil {
				return 0, err
			}
			pos, err = s.emitString(num, ptr, sl, pos)
			if err != nil {
				return 0, err
			}
		}
		return pos, nil
	}
	if packed {
		body := pos
		for i := n; i > 0; i-- {
			bits, err := s.readSlot(buf+(i-1)*es, es)
			if err != nil {
				return 0, err
			}
			s.fsm(1)
			pos, err = s.writeBack(pos, kind.AppendValue(nil, layout.SlotBits(kind, bits)))
			if err != nil {
				return 0, err
			}
		}
		s.fsm(1)
		pos, err = s.writeBack(pos, wire.AppendVarint(nil, body-pos))
		if err != nil {
			return 0, err
		}
		return s.writeBack(pos, wire.AppendTag(nil, num, wire.TypeBytes))
	}
	for i := n; i > 0; i-- {
		bits, err := s.readSlot(buf+(i-1)*es, es)
		if err != nil {
			return 0, err
		}
		s.fsm(1)
		pos, err = s.emitKV(num, kind, layout.SlotBits(kind, bits), pos)
		if err != nil {
			return 0, err
		}
	}
	return pos, nil
}
