// Package mem implements the simulated physical memory of the SoC: a
// 64-bit byte-addressable space organized as named regions. The software
// CPU models and the accelerator models operate on the same Memory, so
// serialized buffers, C++-layout message objects, ADTs, and arenas all
// coexist exactly as they would in the unified memory space of the paper's
// SoC (Figure 8).
//
// Out-of-bounds accesses return errors (a simulated fault), never corrupt
// neighbouring regions, and never panic: the accelerator model surfaces
// them as device errors.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the VM page size assumed by the TLB model.
const PageSize = 4096

// Fault errors.
var (
	ErrUnmapped    = errors.New("mem: access to unmapped address")
	ErrSpansRegion = errors.New("mem: access spans region boundary")
	ErrOutOfSpace  = errors.New("mem: allocator out of space")
)

// Region is a contiguous mapped range of simulated memory.
//
// Each region tracks a dirty span [dirtyLo, dirtyHi): the tightest
// offset range covering every byte handed out through a mutable path
// (Slice and the Write* helpers). ResetDirty restores the region to its
// freshly-mapped all-zero state by zeroing only that span, so the cost
// of recycling a System is proportional to the bytes a run actually
// touched, not to region size. A span (rather than a prefix high-water
// mark) matters because the serializer's memwriter emits its output
// high-to-low from the top of a large arena (§4.5.1): a prefix mark
// would condemn the whole region on the first write.
type Region struct {
	Name    string
	Base    uint64
	data    []byte
	dirtyLo uint64 // start offset of the lowest possibly-written byte
	dirtyHi uint64 // end offset of the highest possibly-written byte
}

// Size returns the region's size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.data)) }

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size() }

// Contains reports whether [addr, addr+n) lies within the region.
func (r *Region) Contains(addr, n uint64) bool {
	return addr >= r.Base && n <= r.Size() && addr-r.Base <= r.Size()-n
}

// DirtyBytes returns the size of the dirty span: the tightest range that
// may differ from the region's initial all-zero state.
func (r *Region) DirtyBytes() uint64 { return r.dirtyHi - r.dirtyLo }

// DirtySpan returns the dirty span as region-relative offsets [lo, hi).
// A clean region returns (0, 0).
func (r *Region) DirtySpan() (lo, hi uint64) { return r.dirtyLo, r.dirtyHi }

// markDirty widens the dirty span to cover [off, off+n).
func (r *Region) markDirty(off, n uint64) {
	if r.dirtyHi == r.dirtyLo { // clean: adopt the write as the span
		r.dirtyLo, r.dirtyHi = off, off+n
		return
	}
	if off < r.dirtyLo {
		r.dirtyLo = off
	}
	if off+n > r.dirtyHi {
		r.dirtyHi = off + n
	}
}

// ResetDirty restores the region to its freshly-mapped all-zero state,
// zeroing only the dirty span. Slices previously obtained via Slice keep
// aliasing the same backing bytes and observe the zeroing.
func (r *Region) ResetDirty() {
	b := r.data[r.dirtyLo:r.dirtyHi]
	for i := range b {
		b[i] = 0
	}
	r.dirtyLo, r.dirtyHi = 0, 0
}

// Memory is the simulated physical memory.
type Memory struct {
	regions []*Region // sorted by Base
	next    uint64    // next allocation base
}

// baseAddr is where the first region is placed; low addresses stay
// unmapped so nil-pointer dereferences in the models fault.
const baseAddr = 0x10000

// guardGap is left unmapped between regions to catch overruns.
const guardGap = PageSize

// New creates an empty memory.
func New() *Memory {
	return &Memory{next: baseAddr}
}

// Map allocates a new zeroed region of the given size and returns it.
// Regions are page-aligned with an unmapped guard page between them.
func (m *Memory) Map(name string, size uint64) *Region {
	if size == 0 {
		size = 1 // keep every region addressable
	}
	r := &Region{Name: name, Base: m.next, data: make([]byte, size)}
	m.regions = append(m.regions, r)
	m.next = (r.End() + guardGap + PageSize - 1) &^ (PageSize - 1)
	return r
}

// MappedBytes returns the total mapped size.
func (m *Memory) MappedBytes() uint64 {
	var n uint64
	for _, r := range m.regions {
		n += r.Size()
	}
	return n
}

// find returns the region containing [addr, addr+n), or an error. It
// scans the regions in address order: a System maps four to seven, too
// few for a binary search to pay. The scan stops at the first region
// ending past addr, which holds addr or lies beyond it, so the errors
// are those of a search over sorted bases.
func (m *Memory) find(addr, n uint64) (*Region, error) {
	for _, r := range m.regions {
		if addr >= r.End() {
			continue
		}
		if addr < r.Base {
			break
		}
		if !r.Contains(addr, n) {
			return nil, fmt.Errorf("%w: 0x%x (+%d) in %s", ErrSpansRegion, addr, n, r.Name)
		}
		return r, nil
	}
	return nil, fmt.Errorf("%w: 0x%x (+%d)", ErrUnmapped, addr, n)
}

// Slice returns a slice aliasing simulated memory at [addr, addr+n). The
// fast path for streaming units (memloader, memwriter, memcpy).
// Zero-length slices succeed at any address (including one past a region's
// end, where an empty high-to-low output lands). The caller may write
// through the slice, so the region's dirty span is widened; read-only
// paths should use View instead.
func (m *Memory) Slice(addr, n uint64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	r, err := m.find(addr, n)
	if err != nil {
		return nil, err
	}
	off := addr - r.Base
	r.markDirty(off, n)
	return r.data[off : off+n : off+n], nil
}

// View returns a read-only alias of [addr, addr+n) without advancing the
// dirty mark: the zero-copy fetch path of the memloader/memwriter models.
// Callers must not write through the returned slice.
func (m *Memory) View(addr, n uint64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	r, err := m.find(addr, n)
	if err != nil {
		return nil, err
	}
	off := addr - r.Base
	return r.data[off : off+n : off+n], nil
}

// ResetDirty restores every region to its freshly-mapped all-zero state,
// zeroing only dirty spans (see Region.ResetDirty).
func (m *Memory) ResetDirty() {
	for _, r := range m.regions {
		r.ResetDirty()
	}
}

// ReadBytes copies len(dst) bytes from addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) error {
	src, err := m.View(addr, uint64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// WriteBytes copies src into simulated memory at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) error {
	dst, err := m.Slice(addr, uint64(len(src)))
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint64) (byte, error) {
	s, err := m.View(addr, 1)
	if err != nil {
		return 0, err
	}
	return s[0], nil
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint64, v byte) error {
	s, err := m.Slice(addr, 1)
	if err != nil {
		return err
	}
	s[0] = v
	return nil
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	s, err := m.View(addr, 4)
	if err != nil {
		return 0, err
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24, nil
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) error {
	s, err := m.Slice(addr, 4)
	if err != nil {
		return err
	}
	s[0], s[1], s[2], s[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// Read64 reads a little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	s, err := m.View(addr, 8)
	if err != nil {
		return 0, err
	}
	lo := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
	hi := uint64(s[4]) | uint64(s[5])<<8 | uint64(s[6])<<16 | uint64(s[7])<<24
	return lo | hi<<32, nil
}

// Write64 writes a little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) error {
	s, err := m.Slice(addr, 8)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		s[i] = byte(v >> (8 * i))
	}
	return nil
}

// Allocator is a bump allocator over a region: the mechanism behind both
// accelerator arenas (§4.3) and the simulated program heap. Allocation is
// a pointer increment, exactly as the paper describes.
type Allocator struct {
	region *Region
	off    uint64
	allocs int64
}

// NewAllocator creates a bump allocator over r.
func NewAllocator(r *Region) *Allocator {
	return &Allocator{region: r}
}

// Alloc reserves n bytes aligned to align (a power of two; 0/1 mean no
// alignment) and returns the address.
func (a *Allocator) Alloc(n, align uint64) (uint64, error) {
	off := a.off
	if align > 1 {
		off = (off + align - 1) &^ (align - 1)
	}
	if off+n > a.region.Size() || off+n < off {
		return 0, fmt.Errorf("%w: %s (%d of %d used)", ErrOutOfSpace, a.region.Name, a.off, a.region.Size())
	}
	a.off = off + n
	a.allocs++
	return a.region.Base + off, nil
}

// Used returns the bytes consumed so far.
func (a *Allocator) Used() uint64 { return a.off }

// Mark captures an allocator position for transactional rollback
// (Truncate). The zero Mark refers to an empty allocator.
type Mark struct {
	off    uint64
	allocs int64
}

// Mark returns the allocator's current position.
func (a *Allocator) Mark() Mark { return Mark{off: a.off, allocs: a.allocs} }

// Truncate rewinds the allocator to a previously captured Mark and
// scrubs (zeroes) the released span, restoring the backing memory to its
// never-allocated all-zero state. This is the abort path of a
// transactional operation: after Truncate, no partially-written object
// allocated past the mark is observable. The mark must come from this
// allocator and must not be newer than the current position.
func (a *Allocator) Truncate(m Mark) {
	if m.off >= a.off {
		return
	}
	b := a.region.data[m.off:a.off]
	for i := range b {
		b[i] = 0
	}
	a.off = m.off
	a.allocs = m.allocs
}

// Allocs returns the number of allocations performed.
func (a *Allocator) Allocs() int64 { return a.allocs }

// Remaining returns the bytes still available.
func (a *Allocator) Remaining() uint64 { return a.region.Size() - a.off }

// Reset rewinds the allocator, freeing everything at once (arena reset).
func (a *Allocator) Reset() {
	a.off = 0
	a.allocs = 0
}

// Region returns the backing region.
func (a *Allocator) Region() *Region { return a.region }
