// Package cpu models the software protobuf baselines: the same parse and
// serialize algorithms the C++ protobuf library runs, executed over the
// simulated memory's C++-layout objects, with every operation charged
// cycles from a calibrated per-operation cost table. Two parameter sets
// are provided, modelling the paper's two baseline hosts: the BOOM-class
// OoO RISC-V core at 2 GHz ("riscv-boom") and a Xeon E5-2686v4-class core
// at 2.7 GHz ("Xeon").
//
// The models are functionally exact — the serializer produces the same
// bytes as codec.Marshal, the deserializer produces the same object bytes
// as the materializer — so the cycle accounting is attached to real work,
// not to an abstract formula.
package cpu

import (
	"fmt"

	"protoacc/internal/accel/layout"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
	"protoacc/internal/sim/mem"
	"protoacc/internal/sim/memmodel"
)

// Params is the per-operation cycle cost table for one CPU.
type Params struct {
	Name         string
	FrequencyGHz float64

	// Front-end / dispatch costs.
	FieldDispatch  float64 // per-field switch + call overhead in parse/serialize loops
	TagDecode      float64 // decode a field key (excl. per-byte varint work)
	TagEncode      float64 // encode a field key
	SizePassField  float64 // ByteSize visit cost per present field
	MessageSetup   float64 // per (sub-)message call overhead (stack frame, limits)
	BranchMispLoop float64 // charged once per variable-length loop exit (varint)

	// Value handling.
	VarintDecPerByte float64 // per encoded byte in the decode loop
	VarintEncPerByte float64 // per encoded byte in the encode loop
	ZigZag           float64 // zig-zag transform
	FixedLoadStore   float64 // fixed-width value handle cost

	// Memory movement.
	MemcpySetup      float64 // per-memcpy call overhead
	MemcpyBytesPerCy float64 // sustained copy bandwidth, bytes/cycle

	// Allocation and object management.
	StringAlloc     float64 // operator new for a string + header bookkeeping
	FirstTouchPerB  float64 // first-touch cost per byte of freshly allocated payload
	ObjectAlloc     float64 // allocate a sub-message object (arena bump + bookkeeping)
	ObjectInitPer8B float64 // zero/construct cost per 8 bytes of object
	RepeatedAppend  float64 // Add() bookkeeping per element
	ReallocSetup    float64 // growth realloc overhead (plus memcpy of old data)

	// FrontendPressure is charged once per top-level serialize or
	// deserialize call, modelling the I-cache and branch-predictor
	// refill cost of the large branch-heavy generated code the paper's
	// §7 discussion highlights ("a call to serialize or deserialize can
	// even effectively act like an I$ and branch predictor flush").
	// Zero by default: the headline calibration excludes it; ablation A7
	// sweeps it.
	FrontendPressure float64

	// ArenaDiscount scales StringAlloc/ObjectAlloc when the workload
	// uses software arena allocation (§2.3): allocation becomes a
	// pointer bump plus light bookkeeping, and first-touch costs vanish
	// because arena memory is recycled.
	ArenaDiscount float64

	// Memory-system interaction: L1 hits are assumed hidden by the OoO
	// window; only latency beyond HiddenLatency cycles is charged.
	HiddenLatency uint64
}

// BOOMParams models the SonicBOOM-class core (comparable to an ARM A72,
// per the paper) at 2 GHz.
func BOOMParams() Params {
	return Params{
		Name:             "riscv-boom",
		FrequencyGHz:     2.0,
		FieldDispatch:    14,
		TagDecode:        4,
		TagEncode:        4,
		SizePassField:    7,
		MessageSetup:     22,
		BranchMispLoop:   9,
		VarintDecPerByte: 4,
		VarintEncPerByte: 4.5,
		ZigZag:           1,
		FixedLoadStore:   3,
		MemcpySetup:      16,
		MemcpyBytesPerCy: 16, // 128-bit TileLink datapath copies
		StringAlloc:      300,
		FirstTouchPerB:   0.7,
		ObjectAlloc:      180,
		ObjectInitPer8B:  2,
		RepeatedAppend:   14,
		ReallocSetup:     40,
		ArenaDiscount:    0.15,
		HiddenLatency:    2,
	}
}

// XeonParams models one core (2 HT) of a Xeon E5-2686 v4 at 2.7 GHz
// turbo: wider issue, better branch prediction, AVX memcpy, tcmalloc.
func XeonParams() Params {
	return Params{
		Name:             "Xeon",
		FrequencyGHz:     2.7,
		FieldDispatch:    4.5,
		TagDecode:        1.5,
		TagEncode:        1.0,
		SizePassField:    2.0,
		MessageSetup:     16,
		BranchMispLoop:   8,
		VarintDecPerByte: 1.2,
		VarintEncPerByte: 0.8,
		ZigZag:           0.5,
		FixedLoadStore:   1,
		MemcpySetup:      14,
		MemcpyBytesPerCy: 20, // AVX2 copies, DRAM-limited sustained
		StringAlloc:      210,
		FirstTouchPerB:   0.5,
		ObjectAlloc:      130,
		ObjectInitPer8B:  0.6,
		RepeatedAppend:   9,
		ReallocSetup:     15,
		ArenaDiscount:    0.35,
		HiddenLatency:    4,
	}
}

// CPU executes protobuf operations over simulated memory with cycle
// accounting.
type CPU struct {
	P    Params
	Mem  *mem.Memory
	Port *memmodel.Port
	Heap *mem.Allocator // deserialization allocations
	Reg  *layout.Registry

	// UseArena switches deserialization allocation to software arena
	// costs (§2.3): production services at scale commonly construct
	// messages on arenas, and the paper notes the accelerator's arena
	// support pairs with software arena migration (§7).
	UseArena bool

	cycles float64

	// Operation counters (telemetry only; no cycle effect).
	serializes   uint64
	deserializes uint64
	clears       uint64
	copies       uint64
	merges       uint64
}

// New creates a CPU model.
func New(p Params, m *mem.Memory, port *memmodel.Port, heap *mem.Allocator, reg *layout.Registry) *CPU {
	return &CPU{P: p, Mem: m, Port: port, Heap: heap, Reg: reg}
}

// Cycles returns the cycles accumulated so far.
func (c *CPU) Cycles() float64 { return c.cycles }

// ResetCycles zeroes the accumulator and the operation counters.
func (c *CPU) ResetCycles() {
	c.cycles = 0
	c.serializes, c.deserializes, c.clears, c.copies, c.merges = 0, 0, 0, 0, 0
}

// CollectTelemetry implements the telemetry Collector contract.
func (c *CPU) CollectTelemetry(emit func(name string, value float64)) {
	emit("cycles", c.cycles)
	emit("serializes", float64(c.serializes))
	emit("deserializes", float64(c.deserializes))
	emit("clears", float64(c.clears))
	emit("copies", float64(c.copies))
	emit("merges", float64(c.merges))
}

// Seconds converts a cycle count to seconds at this CPU's frequency.
func (c *CPU) Seconds(cycles float64) float64 {
	return cycles / (c.P.FrequencyGHz * 1e9)
}

// charge adds op cycles.
func (c *CPU) charge(cy float64) { c.cycles += cy }

// access charges a demand memory access, hiding latency up to
// HiddenLatency (an OoO core overlaps L1 hits with computation).
func (c *CPU) access(addr, size uint64) {
	lat := c.Port.Access(addr, size)
	if lat > c.P.HiddenLatency {
		c.cycles += float64(lat - c.P.HiddenLatency)
	}
}

// stream charges a streaming access (sequential buffer traffic).
func (c *CPU) stream(addr, size uint64) {
	lat := c.Port.StreamAccess(addr, size)
	if lat > c.P.HiddenLatency {
		c.cycles += float64(lat - c.P.HiddenLatency)
	}
}

// memcpyCost charges the compute cost of copying n bytes (memory traffic
// charged separately by the caller).
func (c *CPU) memcpyCost(n uint64) {
	c.charge(c.P.MemcpySetup + float64(n)/c.P.MemcpyBytesPerCy)
}

// --- serialization ---

// Serialize performs ByteSize + serialize of the object at objAddr (type
// t), writing the wire bytes into space allocated from out. Returns the
// output address and length.
func (c *CPU) Serialize(t *schema.Message, objAddr uint64, out *mem.Allocator) (uint64, uint64, error) {
	c.serializes++
	c.charge(c.P.FrontendPressure)
	sizes := make(map[uint64]uint64) // the C++ cached_size fields
	n, err := c.sizePass(t, objAddr, sizes)
	if err != nil {
		return 0, 0, err
	}
	outAddr, err := out.Alloc(n, 8)
	if err != nil {
		return 0, 0, err
	}
	end, err := c.serializeTo(t, objAddr, outAddr, sizes)
	if err != nil {
		return 0, 0, err
	}
	if end != outAddr+n {
		return 0, 0, fmt.Errorf("cpu: serialize wrote %d bytes, ByteSize said %d", end-outAddr, n)
	}
	return outAddr, n, nil
}

// sizePass computes the serialized size, charging ByteSize costs and
// caching per-object sizes (cached_size).
func (c *CPU) sizePass(t *schema.Message, objAddr uint64, sizes map[uint64]uint64) (uint64, error) {
	l := c.Reg.Layout(t)
	c.charge(c.P.MessageSetup)
	// Read the hasbits words once per message.
	for w := 0; w < l.HasbitsWords; w++ {
		c.access(objAddr+layout.HasbitsOffset+uint64(w)*8, 8)
	}
	var total uint64
	for _, fl := range l.Fields {
		present, err := c.hasbit(objAddr, l, fl.Field.Number)
		if err != nil {
			return 0, err
		}
		if !present {
			continue
		}
		c.charge(c.P.SizePassField)
		n, err := c.fieldSize(objAddr, l, fl, sizes)
		if err != nil {
			return 0, err
		}
		total += n
	}
	sizes[objAddr] = total
	return total, nil
}

func (c *CPU) hasbit(objAddr uint64, l *layout.Layout, num int32) (bool, error) {
	idx := uint64(num - l.MinField)
	// Word assumed register-cached after the per-message read; the bit
	// test itself is free (folded into FieldDispatch).
	w, err := c.Mem.Read64(objAddr + layout.HasbitsOffset + (idx/64)*8)
	if err != nil {
		return false, err
	}
	return w>>(idx%64)&1 == 1, nil
}

// readSlot loads a scalar of kind k from its slot of the given width.
func (c *CPU) readSlot(addr, slot uint64, k schema.Kind) (uint64, error) {
	c.access(addr, slot)
	v, err := c.Mem.ReadUint(addr, slot)
	if err != nil {
		return 0, err
	}
	return layout.SlotBits(k, v), nil
}

func (c *CPU) fieldSize(objAddr uint64, l *layout.Layout, fl layout.FieldLayout, sizes map[uint64]uint64) (uint64, error) {
	f := fl.Field
	slotAddr := objAddr + fl.Offset
	tag := uint64(wire.SizeTag(f.Number))
	switch {
	case f.Repeated():
		return c.repeatedSize(slotAddr, f, tag, sizes)
	case f.Kind == schema.KindMessage:
		c.access(slotAddr, 8)
		ptr, err := c.Mem.Read64(slotAddr)
		if err != nil {
			return 0, err
		}
		if ptr == 0 {
			return 0, nil
		}
		n, err := c.sizePass(f.Message, ptr, sizes)
		if err != nil {
			return 0, err
		}
		return tag + uint64(wire.SizeVarint(n)) + n, nil
	case f.Kind.Class() == schema.ClassBytesLike:
		c.access(slotAddr+8, 8) // length load
		n, err := c.Mem.Read64(slotAddr + 8)
		if err != nil {
			return 0, err
		}
		return tag + uint64(wire.SizeVarint(n)) + n, nil
	default:
		bits, err := c.readSlot(slotAddr, fl.Slot, f.Kind)
		if err != nil {
			return 0, err
		}
		return tag + uint64(f.Kind.ValueSize(bits)), nil
	}
}

func (c *CPU) repeatedSize(slotAddr uint64, f *schema.Field, tag uint64, sizes map[uint64]uint64) (uint64, error) {
	c.access(slotAddr, 16)
	buf, err := c.Mem.Read64(slotAddr)
	if err != nil {
		return 0, err
	}
	n, err := c.Mem.Read64(slotAddr + 8)
	if err != nil {
		return 0, err
	}
	es := layout.ElemSize(f.Kind)
	var body uint64
	switch {
	case f.Kind == schema.KindMessage:
		for i := uint64(0); i < n; i++ {
			c.access(buf+i*es, 8)
			ptr, err := c.Mem.Read64(buf + i*es)
			if err != nil {
				return 0, err
			}
			sub, err := c.sizePass(f.Message, ptr, sizes)
			if err != nil {
				return 0, err
			}
			body += tag + uint64(wire.SizeVarint(sub)) + sub
		}
		return body, nil
	case f.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < n; i++ {
			c.access(buf+i*es+8, 8)
			sl, err := c.Mem.Read64(buf + i*es + 8)
			if err != nil {
				return 0, err
			}
			c.charge(c.P.SizePassField / 2)
			body += tag + uint64(wire.SizeVarint(sl)) + sl
		}
		return body, nil
	default:
		for i := uint64(0); i < n; i++ {
			bits, err := c.readSlot(buf+i*es, es, f.Kind)
			if err != nil {
				return 0, err
			}
			c.charge(1) // per-element size loop
			body += uint64(f.Kind.ValueSize(bits))
		}
		if f.Packed {
			return tag + uint64(wire.SizeVarint(body)) + body, nil
		}
		return tag*n + body, nil
	}
}

// writeVarint writes a varint to out, charging encode costs, and returns
// the next output address.
func (c *CPU) writeVarint(out uint64, v uint64) (uint64, error) {
	enc := wire.AppendVarint(nil, v)
	c.charge(float64(len(enc))*c.P.VarintEncPerByte + c.P.BranchMispLoop)
	c.stream(out, uint64(len(enc)))
	if err := c.Mem.WriteBytes(out, enc); err != nil {
		return 0, err
	}
	return out + uint64(len(enc)), nil
}

func (c *CPU) serializeTo(t *schema.Message, objAddr, out uint64, sizes map[uint64]uint64) (uint64, error) {
	l := c.Reg.Layout(t)
	c.charge(c.P.MessageSetup)
	for _, fl := range l.Fields {
		present, err := c.hasbit(objAddr, l, fl.Field.Number)
		if err != nil {
			return 0, err
		}
		c.charge(c.P.FieldDispatch / 4) // absent-field skip cost
		if !present {
			continue
		}
		c.charge(c.P.FieldDispatch)
		out, err = c.serializeField(objAddr, out, l, fl, sizes)
		if err != nil {
			return 0, err
		}
	}
	return out, nil
}

func (c *CPU) writeTag(out uint64, num int32, wt wire.Type) (uint64, error) {
	c.charge(c.P.TagEncode)
	return c.writeVarint(out, wire.MakeTag(num, wt))
}

// writeTagLoop writes a tag inside a repeated-element loop: the tag is
// loop-invariant, so its encode branch is perfectly predicted and the
// bytes are usually pre-rendered (no BranchMispLoop charge).
func (c *CPU) writeTagLoop(out uint64, num int32, wt wire.Type) (uint64, error) {
	enc := wire.AppendVarint(nil, wire.MakeTag(num, wt))
	c.charge(c.P.TagEncode/2 + float64(len(enc))*c.P.VarintEncPerByte)
	c.stream(out, uint64(len(enc)))
	if err := c.Mem.WriteBytes(out, enc); err != nil {
		return 0, err
	}
	return out + uint64(len(enc)), nil
}

func (c *CPU) serializeScalarValue(out uint64, f *schema.Field, bits uint64) (uint64, error) {
	k := f.Kind
	if n := uint64(k.FixedWireSize()); n > 0 {
		c.charge(c.P.FixedLoadStore)
		c.stream(out, n)
		if err := c.Mem.WriteUint(out, n, bits); err != nil {
			return 0, err
		}
		return out + n, nil
	}
	switch k {
	case schema.KindBool:
		c.charge(1)
		c.stream(out, 1)
		if err := c.Mem.Write8(out, byte(k.VarintValue(bits))); err != nil {
			return 0, err
		}
		return out + 1, nil
	case schema.KindSint32, schema.KindSint64:
		c.charge(c.P.ZigZag)
	}
	return c.writeVarint(out, k.VarintValue(bits))
}

// copyBytes copies n bytes of payload from src to dst, charging both the
// memcpy compute cost and the streaming memory traffic.
func (c *CPU) copyBytes(dst, src, n uint64) error {
	c.memcpyCost(n)
	c.stream(src, n)
	c.stream(dst, n)
	if n == 0 {
		return nil
	}
	s, err := c.Mem.View(src, n)
	if err != nil {
		return err
	}
	return c.Mem.WriteBytes(dst, s)
}

func (c *CPU) serializeField(objAddr, out uint64, l *layout.Layout, fl layout.FieldLayout, sizes map[uint64]uint64) (uint64, error) {
	f := fl.Field
	slotAddr := objAddr + fl.Offset
	switch {
	case f.Repeated():
		return c.serializeRepeated(slotAddr, out, f, sizes)
	case f.Kind == schema.KindMessage:
		ptr, err := c.Mem.Read64(slotAddr) // already charged during size pass; charge light reload
		if err != nil {
			return 0, err
		}
		c.access(slotAddr, 8)
		if ptr == 0 {
			return out, nil
		}
		out, err = c.writeTag(out, f.Number, wire.TypeBytes)
		if err != nil {
			return 0, err
		}
		out, err = c.writeVarint(out, sizes[ptr])
		if err != nil {
			return 0, err
		}
		return c.serializeTo(f.Message, ptr, out, sizes)
	case f.Kind.Class() == schema.ClassBytesLike:
		c.access(slotAddr, 16)
		ptr, err := c.Mem.Read64(slotAddr)
		if err != nil {
			return 0, err
		}
		n, err := c.Mem.Read64(slotAddr + 8)
		if err != nil {
			return 0, err
		}
		out, err = c.writeTag(out, f.Number, wire.TypeBytes)
		if err != nil {
			return 0, err
		}
		out, err = c.writeVarint(out, n)
		if err != nil {
			return 0, err
		}
		if err := c.copyBytes(out, ptr, n); err != nil {
			return 0, err
		}
		return out + n, nil
	default:
		bits, err := c.readSlot(slotAddr, fl.Slot, f.Kind)
		if err != nil {
			return 0, err
		}
		out, err = c.writeTag(out, f.Number, f.Kind.WireType())
		if err != nil {
			return 0, err
		}
		return c.serializeScalarValue(out, f, bits)
	}
}

func (c *CPU) serializeRepeated(slotAddr, out uint64, f *schema.Field, sizes map[uint64]uint64) (uint64, error) {
	c.access(slotAddr, 16)
	buf, err := c.Mem.Read64(slotAddr)
	if err != nil {
		return 0, err
	}
	n, err := c.Mem.Read64(slotAddr + 8)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return out, nil
	}
	es := layout.ElemSize(f.Kind)
	switch {
	case f.Kind == schema.KindMessage:
		for i := uint64(0); i < n; i++ {
			c.charge(c.P.FieldDispatch / 2)
			c.access(buf+i*es, 8)
			ptr, err := c.Mem.Read64(buf + i*es)
			if err != nil {
				return 0, err
			}
			out, err = c.writeTag(out, f.Number, wire.TypeBytes)
			if err != nil {
				return 0, err
			}
			out, err = c.writeVarint(out, sizes[ptr])
			if err != nil {
				return 0, err
			}
			out, err = c.serializeTo(f.Message, ptr, out, sizes)
			if err != nil {
				return 0, err
			}
		}
		return out, nil
	case f.Kind.Class() == schema.ClassBytesLike:
		for i := uint64(0); i < n; i++ {
			c.charge(c.P.FieldDispatch / 2)
			c.access(buf+i*es, 16)
			ptr, err := c.Mem.Read64(buf + i*es)
			if err != nil {
				return 0, err
			}
			sl, err := c.Mem.Read64(buf + i*es + 8)
			if err != nil {
				return 0, err
			}
			out, err = c.writeTagLoop(out, f.Number, wire.TypeBytes)
			if err != nil {
				return 0, err
			}
			out, err = c.writeVarint(out, sl)
			if err != nil {
				return 0, err
			}
			if err := c.copyBytes(out, ptr, sl); err != nil {
				return 0, err
			}
			out += sl
		}
		return out, nil
	case f.Packed:
		var body uint64
		for i := uint64(0); i < n; i++ {
			bits, err := c.readSlot(buf+i*es, es, f.Kind)
			if err != nil {
				return 0, err
			}
			body += uint64(f.Kind.ValueSize(bits))
		}
		out, err = c.writeTag(out, f.Number, wire.TypeBytes)
		if err != nil {
			return 0, err
		}
		out, err = c.writeVarint(out, body)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < n; i++ {
			bits, err := c.readSlot(buf+i*es, es, f.Kind)
			if err != nil {
				return 0, err
			}
			c.charge(1)
			out, err = c.serializeScalarValue(out, f, bits)
			if err != nil {
				return 0, err
			}
		}
		return out, nil
	default:
		for i := uint64(0); i < n; i++ {
			bits, err := c.readSlot(buf+i*es, es, f.Kind)
			if err != nil {
				return 0, err
			}
			c.charge(1)
			out, err = c.writeTagLoop(out, f.Number, f.Kind.WireType())
			if err != nil {
				return 0, err
			}
			out, err = c.serializeScalarValue(out, f, bits)
			if err != nil {
				return 0, err
			}
		}
		return out, nil
	}
}

// ChargeTableWrites charges the per-present-field programming-table
// construction cost of the Optimus-Prime-style baseline (§3.7): entry
// rendering and bookkeeping per present field (the stores themselves are
// charged via ChargeAccess by the builder).
func (c *CPU) ChargeTableWrites(n int) {
	c.charge(float64(n) * (c.P.FieldDispatch/2 + 3))
}

// ChargeAccess charges one demand memory access performed by host-side
// helper code modelled outside this package.
func (c *CPU) ChargeAccess(addr, size uint64) {
	c.access(addr, size)
}
