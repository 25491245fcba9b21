// Package layout computes the C++-equivalent in-memory object layout of
// proto2 message types and materializes dynamic messages into (and out of)
// simulated memory. It models what protoc's generated C++ classes look like
// at the byte level (§2.1.3 of the paper), with the paper's accelerator
// modifications applied (§4.2):
//
//   - word 0 holds the vptr (modelled as a registry-assigned type id),
//   - the hasbits bit field is stored in the accelerator's sparse
//     representation — one bit per field number in [min, max], directly
//     indexable by (fieldNumber - min) — rather than protoc's dense packing,
//   - scalar fields occupy naturally-aligned slots of their C++ width,
//   - string/bytes fields are a 16-byte {data pointer, length} header
//     (std::string with its small-string optimization modelled in timing,
//     not layout),
//   - sub-message fields are 8-byte pointers,
//   - repeated fields are a 24-byte {data pointer, length, capacity} header
//     (RepeatedField/RepeatedPtrField).
//
// Repeated fields set their hasbit when non-empty so the accelerator's
// serializer frontend (which scans hasbits) can discover them; the C++
// library tracks repeated presence via size instead, a bookkeeping
// difference with no wire-format effect.
package layout

import (
	"fmt"

	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/sim/mem"
)

// Slot and header sizes, in bytes.
const (
	PtrSize            = 8
	VptrOffset         = 0
	HasbitsOffset      = 8 // hasbits always follow the vptr
	StringHeaderSize   = 16
	RepeatedHeaderSize = 24
)

// FieldLayout describes one field's inline slot within the object.
type FieldLayout struct {
	Field  *schema.Field
	Offset uint64 // byte offset within the object
	Slot   uint64 // inline slot size in bytes
}

// Layout describes the complete object layout of one message type.
type Layout struct {
	Type         *schema.Message
	Size         uint64 // total object size, 8-byte aligned
	HasbitsWords int    // 64-bit words of sparse hasbits
	MinField     int32
	MaxField     int32
	Fields       []FieldLayout // parallel to Type.Fields
}

// FieldByNumber returns the layout of field num, or nil.
func (l *Layout) FieldByNumber(num int32) *FieldLayout {
	if i := l.Type.FieldIndex(num); i >= 0 {
		return &l.Fields[i]
	}
	return nil
}

// HasbitsBytes returns the size of the hasbits array in bytes.
func (l *Layout) HasbitsBytes() uint64 { return uint64(l.HasbitsWords) * 8 }

// FieldsOffset returns the offset of the first field slot.
func (l *Layout) FieldsOffset() uint64 { return HasbitsOffset + l.HasbitsBytes() }

// slotFor returns (size, alignment) of a field's inline slot.
func slotFor(f *schema.Field) (uint64, uint64) {
	if f.Repeated() {
		return RepeatedHeaderSize, PtrSize
	}
	size := ElemSize(f.Kind) // naturally aligned, at most to a pointer
	return size, min(size, PtrSize)
}

// ScalarSlot returns the width of a scalar slot of kind k, the C++ type's
// size: 1 byte for bool, 4 for the 32-bit kinds (float and enum
// included), 8 for the rest.
func ScalarSlot(k schema.Kind) uint64 {
	switch k {
	case schema.KindBool:
		return 1
	case schema.KindInt32, schema.KindUint32, schema.KindSint32,
		schema.KindFixed32, schema.KindSfixed32, schema.KindFloat, schema.KindEnum:
		return 4
	default:
		return 8
	}
}

// ElemSize returns the width of one element of a repeated field of kind
// k, which is also the inline slot of a singular field of that kind: a
// pointer for sub-messages, a string header for string and bytes, else
// the scalar slot.
func ElemSize(k schema.Kind) uint64 {
	switch k {
	case schema.KindMessage:
		return PtrSize
	case schema.KindString, schema.KindBytes:
		return StringHeaderSize
	default:
		return ScalarSlot(k)
	}
}

// SlotBits returns the stored bits of a scalar of kind k from its slot as
// loaded, zero-extended: the 4-byte slots of the signed 32-bit kinds
// (int32, sint32, sfixed32, enum) hold them sign-extended.
func SlotBits(k schema.Kind, v uint64) uint64 {
	switch k {
	case schema.KindInt32, schema.KindSint32, schema.KindSfixed32, schema.KindEnum:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

// Compute builds the layout for one message type.
func Compute(t *schema.Message) *Layout {
	l := &Layout{
		Type:     t,
		MinField: t.MinFieldNumber(),
		MaxField: t.MaxFieldNumber(),
	}
	if r := t.FieldNumberRange(); r > 0 {
		l.HasbitsWords = int((r + 63) / 64)
	}
	off := l.FieldsOffset()
	for _, f := range t.Fields {
		size, align := slotFor(f)
		off = (off + align - 1) &^ (align - 1)
		l.Fields = append(l.Fields, FieldLayout{Field: f, Offset: off, Slot: size})
		off += size
	}
	l.Size = (off + 7) &^ 7
	return l
}

// Registry caches layouts and assigns type ids (the simulated vptr values)
// for every message type reachable from the registered roots.
type Registry struct {
	layouts map[*schema.Message]*Layout
	ids     map[*schema.Message]uint64
	byID    map[uint64]*schema.Message
	nextID  uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		layouts: make(map[*schema.Message]*Layout),
		ids:     make(map[*schema.Message]uint64),
		byID:    make(map[uint64]*schema.Message),
		nextID:  1,
	}
}

// Reset empties the registry and restarts type-id assignment from 1, as
// if freshly constructed. Used when recycling a System so a re-registered
// schema receives the same ids (and therefore identical simulated vptr
// values) as on a fresh System.
func (r *Registry) Reset() {
	clear(r.layouts)
	clear(r.ids)
	clear(r.byID)
	r.nextID = 1
}

// Register computes layouts for t and everything reachable from it.
func (r *Registry) Register(t *schema.Message) {
	t.Walk(func(m *schema.Message) {
		if _, ok := r.layouts[m]; ok {
			return
		}
		r.layouts[m] = Compute(m)
		id := r.nextID
		r.nextID++
		r.ids[m] = id
		r.byID[id] = m
	})
}

// Layout returns the layout for t, registering it if needed.
func (r *Registry) Layout(t *schema.Message) *Layout {
	if l, ok := r.layouts[t]; ok {
		return l
	}
	r.Register(t)
	return r.layouts[t]
}

// TypeID returns the simulated vptr value for t.
func (r *Registry) TypeID(t *schema.Message) uint64 {
	if id, ok := r.ids[t]; ok {
		return id
	}
	r.Register(t)
	return r.ids[t]
}

// TypeByID returns the type with the given id, or nil.
func (r *Registry) TypeByID(id uint64) *schema.Message { return r.byID[id] }

// Materializer writes dynamic messages into simulated memory using a
// registry's layouts and reads them back. The CPU baseline models and the
// accelerator models both operate on objects it produces.
type Materializer struct {
	Mem  *mem.Memory
	Heap *mem.Allocator
	Reg  *Registry
}

// NewMaterializer creates a materializer allocating from heap.
func NewMaterializer(m *mem.Memory, heap *mem.Allocator, reg *Registry) *Materializer {
	return &Materializer{Mem: m, Heap: heap, Reg: reg}
}

// AllocObject allocates a zeroed object of type t with its vptr set and
// returns its address: the simulated `new T()` against a default instance.
func (ma *Materializer) AllocObject(t *schema.Message) (uint64, error) {
	l := ma.Reg.Layout(t)
	addr, err := ma.Heap.Alloc(l.Size, 8)
	if err != nil {
		return 0, err
	}
	// Freshly mapped memory is zero, but the heap may recycle after
	// Reset; clear explicitly.
	buf, err := ma.Mem.Slice(addr, l.Size)
	if err != nil {
		return 0, err
	}
	for i := range buf {
		buf[i] = 0
	}
	if err := ma.Mem.Write64(addr+VptrOffset, ma.Reg.TypeID(t)); err != nil {
		return 0, err
	}
	return addr, nil
}

// setHasbit sets the sparse hasbit for field num in the object at addr.
func (ma *Materializer) setHasbit(addr uint64, l *Layout, num int32) error {
	idx := uint64(num - l.MinField)
	wordAddr := addr + HasbitsOffset + (idx/64)*8
	w, err := ma.Mem.Read64(wordAddr)
	if err != nil {
		return err
	}
	return ma.Mem.Write64(wordAddr, w|1<<(idx%64))
}

// Hasbit reads the sparse hasbit for field num of the object at addr.
func (ma *Materializer) Hasbit(addr uint64, l *Layout, num int32) (bool, error) {
	idx := uint64(num - l.MinField)
	w, err := ma.Mem.Read64(addr + HasbitsOffset + (idx/64)*8)
	if err != nil {
		return false, err
	}
	return w>>(idx%64)&1 == 1, nil
}

// Write materializes m into simulated memory and returns the object's
// address.
func (ma *Materializer) Write(m *dynamic.Message) (uint64, error) {
	addr, err := ma.AllocObject(m.Type())
	if err != nil {
		return 0, err
	}
	return addr, ma.WriteInto(m, addr)
}

// WriteInto materializes m into an already-allocated object at addr.
func (ma *Materializer) WriteInto(m *dynamic.Message, addr uint64) error {
	l := ma.Reg.Layout(m.Type())
	for _, fl := range l.Fields {
		f := fl.Field
		if !m.Has(f.Number) {
			continue
		}
		if err := ma.setHasbit(addr, l, f.Number); err != nil {
			return err
		}
		slotAddr := addr + fl.Offset
		var err error
		switch {
		case f.Repeated():
			err = ma.writeRepeated(m, f, slotAddr)
		case f.Kind == schema.KindMessage:
			sub := m.GetMessage(f.Number)
			var subAddr uint64
			if sub != nil {
				subAddr, err = ma.Write(sub)
				if err != nil {
					return err
				}
			}
			err = ma.Mem.Write64(slotAddr, subAddr)
		case f.Kind.Class() == schema.ClassBytesLike:
			err = ma.writeString(slotAddr, m.GetBytes(f.Number))
		default:
			err = ma.Mem.WriteUint(slotAddr, fl.Slot, m.ScalarBits(f.Number))
		}
		if err != nil {
			return fmt.Errorf("layout: %s.%s: %w", m.Type().Name, f.Name, err)
		}
	}
	return nil
}

// writeString allocates the payload and fills a {ptr, len} header.
func (ma *Materializer) writeString(headerAddr uint64, data []byte) error {
	var dataAddr uint64
	if len(data) > 0 {
		var err error
		dataAddr, err = ma.Heap.Alloc(uint64(len(data)), 8)
		if err != nil {
			return err
		}
		if err := ma.Mem.WriteBytes(dataAddr, data); err != nil {
			return err
		}
	}
	if err := ma.Mem.Write64(headerAddr, dataAddr); err != nil {
		return err
	}
	return ma.Mem.Write64(headerAddr+8, uint64(len(data)))
}

// readString reads a {ptr, len} header and its payload.
func (ma *Materializer) readString(headerAddr uint64) ([]byte, error) {
	ptr, err := ma.Mem.Read64(headerAddr)
	if err != nil {
		return nil, err
	}
	n, err := ma.Mem.Read64(headerAddr + 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	data := make([]byte, n)
	return data, ma.Mem.ReadBytes(ptr, data)
}

func (ma *Materializer) writeRepeated(m *dynamic.Message, f *schema.Field, slotAddr uint64) error {
	n := uint64(m.Len(f.Number))
	es := ElemSize(f.Kind)
	var bufAddr uint64
	if n > 0 {
		var err error
		bufAddr, err = ma.Heap.Alloc(n*es, 8)
		if err != nil {
			return err
		}
		switch {
		case f.Kind == schema.KindMessage:
			for i, sub := range m.RepeatedMessages(f.Number) {
				subAddr, err := ma.Write(sub)
				if err != nil {
					return err
				}
				if err := ma.Mem.Write64(bufAddr+uint64(i)*es, subAddr); err != nil {
					return err
				}
			}
		case f.Kind.Class() == schema.ClassBytesLike:
			for i, b := range m.RepeatedBytes(f.Number) {
				if err := ma.writeString(bufAddr+uint64(i)*es, b); err != nil {
					return err
				}
			}
		default:
			for i, bits := range m.RepeatedScalarBits(f.Number) {
				if err := ma.Mem.WriteUint(bufAddr+uint64(i)*es, es, bits); err != nil {
					return err
				}
			}
		}
	}
	if err := ma.Mem.Write64(slotAddr, bufAddr); err != nil {
		return err
	}
	if err := ma.Mem.Write64(slotAddr+8, n); err != nil {
		return err
	}
	return ma.Mem.Write64(slotAddr+16, n) // capacity == length after materialization
}

// Read reconstructs a dynamic message of type t from the object at addr,
// validating the object's vptr against t.
func (ma *Materializer) Read(t *schema.Message, addr uint64) (*dynamic.Message, error) {
	l := ma.Reg.Layout(t)
	vptr, err := ma.Mem.Read64(addr + VptrOffset)
	if err != nil {
		return nil, err
	}
	if vptr != ma.Reg.TypeID(t) {
		return nil, fmt.Errorf("layout: object at 0x%x has vptr %d, want %d (%s)", addr, vptr, ma.Reg.TypeID(t), t.Name)
	}
	m := dynamic.New(t)
	for _, fl := range l.Fields {
		f := fl.Field
		present, err := ma.Hasbit(addr, l, f.Number)
		if err != nil {
			return nil, err
		}
		if !present {
			continue
		}
		slotAddr := addr + fl.Offset
		switch {
		case f.Repeated():
			if err := ma.readRepeated(m, f, slotAddr); err != nil {
				return nil, err
			}
		case f.Kind == schema.KindMessage:
			ptr, err := ma.Mem.Read64(slotAddr)
			if err != nil {
				return nil, err
			}
			if ptr == 0 {
				m.SetMessage(f.Number, nil)
				continue
			}
			sub, err := ma.Read(f.Message, ptr)
			if err != nil {
				return nil, err
			}
			m.SetMessage(f.Number, sub)
		case f.Kind.Class() == schema.ClassBytesLike:
			b, err := ma.readString(slotAddr)
			if err != nil {
				return nil, err
			}
			m.SetBytes(f.Number, b)
		default:
			v, err := ma.Mem.ReadUint(slotAddr, fl.Slot)
			if err != nil {
				return nil, err
			}
			m.SetScalarBits(f.Number, SlotBits(f.Kind, v))
		}
	}
	return m, nil
}

func (ma *Materializer) readRepeated(m *dynamic.Message, f *schema.Field, slotAddr uint64) error {
	bufAddr, err := ma.Mem.Read64(slotAddr)
	if err != nil {
		return err
	}
	n, err := ma.Mem.Read64(slotAddr + 8)
	if err != nil {
		return err
	}
	es := ElemSize(f.Kind)
	for i := uint64(0); i < n; i++ {
		elemAddr := bufAddr + i*es
		switch {
		case f.Kind == schema.KindMessage:
			ptr, err := ma.Mem.Read64(elemAddr)
			if err != nil {
				return err
			}
			sub, err := ma.Read(f.Message, ptr)
			if err != nil {
				return err
			}
			m.AddMessage(f.Number).Merge(sub)
		case f.Kind.Class() == schema.ClassBytesLike:
			b, err := ma.readString(elemAddr)
			if err != nil {
				return err
			}
			m.AddBytes(f.Number, b)
		default:
			v, err := ma.Mem.ReadUint(elemAddr, es)
			if err != nil {
				return err
			}
			m.AddScalarBits(f.Number, SlotBits(f.Kind, v))
		}
	}
	return nil
}
