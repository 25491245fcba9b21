package mem

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestMapAndAccess(t *testing.T) {
	m := New()
	r := m.Map("heap", 4096)
	if r.Base == 0 {
		t.Error("region should not start at 0")
	}
	if err := m.Write64(r.Base, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(r.Base)
	if err != nil || v != 0x0102030405060708 {
		t.Fatalf("Read64 = %x, %v", v, err)
	}
	b, err := m.Read8(r.Base)
	if err != nil || b != 0x08 {
		t.Fatalf("Read8 = %x (little-endian expected)", b)
	}
	if err := m.Write32(r.Base+8, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v32, err := m.Read32(r.Base + 8)
	if err != nil || v32 != 0xdeadbeef {
		t.Fatalf("Read32 = %x", v32)
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := New()
	r := m.Map("a", 100)
	cases := []uint64{0, 8, r.Base - 1, r.End(), r.End() + 100}
	for _, addr := range cases {
		if _, err := m.Read8(addr); !errors.Is(err, ErrUnmapped) && !errors.Is(err, ErrSpansRegion) {
			t.Errorf("Read8(0x%x) err = %v, want fault", addr, err)
		}
	}
	// Access straddling the region end.
	if _, err := m.Read64(r.End() - 4); err == nil {
		t.Error("straddling read should fault")
	}
}

func TestGuardGapBetweenRegions(t *testing.T) {
	m := New()
	a := m.Map("a", 100)
	b := m.Map("b", 100)
	if b.Base < a.End()+guardGap {
		t.Errorf("no guard gap: a ends 0x%x, b starts 0x%x", a.End(), b.Base)
	}
	// Writing into the gap faults.
	if err := m.Write8(a.End()+1, 1); err == nil {
		t.Error("guard gap write should fault")
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	r := m.Map("buf", 1024)
	src := []byte("the quick brown fox")
	if err := m.WriteBytes(r.Base+10, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.ReadBytes(r.Base+10, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Errorf("round trip = %q", dst)
	}
}

func TestSliceAliases(t *testing.T) {
	m := New()
	r := m.Map("buf", 64)
	s, err := m.Slice(r.Base, 8)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 0x7f
	v, _ := m.Read8(r.Base)
	if v != 0x7f {
		t.Error("Slice should alias memory")
	}
	if cap(s) != 8 {
		t.Error("Slice cap should be clamped")
	}
}

func TestZeroSizeRegionAddressable(t *testing.T) {
	m := New()
	r := m.Map("z", 0)
	if r.Size() != 1 {
		t.Errorf("zero-size region size = %d", r.Size())
	}
}

func TestRead64Write64RoundTrip(t *testing.T) {
	m := New()
	r := m.Map("x", 16)
	f := func(v uint64) bool {
		if err := m.Write64(r.Base, v); err != nil {
			return false
		}
		got, err := m.Read64(r.Base)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocator(t *testing.T) {
	m := New()
	r := m.Map("arena", 256)
	a := NewAllocator(r)
	p1, err := a.Alloc(10, 8)
	if err != nil || p1 != r.Base {
		t.Fatalf("first alloc = 0x%x, %v", p1, err)
	}
	p2, err := a.Alloc(8, 8)
	if err != nil || p2 != r.Base+16 { // 10 rounded up to 16
		t.Fatalf("second alloc = 0x%x (want +16)", p2)
	}
	p3, err := a.Alloc(1, 0)
	if err != nil || p3 != r.Base+24 {
		t.Fatalf("unaligned alloc = 0x%x", p3)
	}
	if a.Allocs() != 3 || a.Used() != 25 {
		t.Errorf("allocs=%d used=%d", a.Allocs(), a.Used())
	}
	if _, err := a.Alloc(1000, 8); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("overflow err = %v", err)
	}
	a.Reset()
	if a.Used() != 0 || a.Remaining() != 256 {
		t.Error("Reset incomplete")
	}
	p4, _ := a.Alloc(4, 4)
	if p4 != r.Base {
		t.Error("post-reset alloc should restart at base")
	}
}

func TestAllocatorExactFit(t *testing.T) {
	m := New()
	r := m.Map("arena", 64)
	a := NewAllocator(r)
	if _, err := a.Alloc(64, 1); err != nil {
		t.Fatalf("exact fit should succeed: %v", err)
	}
	if _, err := a.Alloc(1, 1); err == nil {
		t.Error("full arena should fail")
	}
}

func TestMappedBytes(t *testing.T) {
	m := New()
	m.Map("a", 100)
	m.Map("b", 200)
	if m.MappedBytes() != 300 {
		t.Errorf("MappedBytes = %d", m.MappedBytes())
	}
}

func TestDirtySpanTracking(t *testing.T) {
	m := New()
	r := m.Map("buf", 4096)
	if r.DirtyBytes() != 0 {
		t.Fatalf("fresh region dirty = %d", r.DirtyBytes())
	}
	// The first write seeds the span with exactly the accessed range.
	if err := m.Write64(r.Base+100, 1); err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.DirtySpan(); lo != 100 || hi != 108 {
		t.Errorf("span after Write64@100 = [%d, %d), want [100, 108)", lo, hi)
	}
	if r.DirtyBytes() != 8 {
		t.Errorf("dirty after Write64@100 = %d, want 8", r.DirtyBytes())
	}
	// A write below the span extends it downward.
	if err := m.Write8(r.Base+10, 2); err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.DirtySpan(); lo != 10 || hi != 108 {
		t.Errorf("span after low write = [%d, %d), want [10, 108)", lo, hi)
	}
	// A write above the span extends it upward.
	if err := m.WriteBytes(r.Base+200, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.DirtySpan(); lo != 10 || hi != 203 {
		t.Errorf("span after high write = [%d, %d), want [10, 203)", lo, hi)
	}
	// Reads do not widen the span.
	if _, err := m.Read64(r.Base + 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.View(r.Base+2000, 64); err != nil {
		t.Fatal(err)
	}
	if r.DirtyBytes() != 193 {
		t.Errorf("dirty after reads = %d, want 193", r.DirtyBytes())
	}
	// Slice conservatively dirties its whole range (callers may write).
	if _, err := m.Slice(r.Base+300, 8); err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.DirtySpan(); lo != 10 || hi != 308 {
		t.Errorf("span after Slice = [%d, %d), want [10, 308)", lo, hi)
	}
}

func TestDirtySpanHighToLowWrites(t *testing.T) {
	// The serializer writes its output arena from the top end downward; a
	// span must stay proportional to the touched bytes, not region size.
	m := New()
	r := m.Map("out", 1<<20)
	end := r.End()
	if err := m.WriteBytes(end-64, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(end-128, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if r.DirtyBytes() != 128 {
		t.Errorf("dirty after two top-end writes = %d, want 128", r.DirtyBytes())
	}
	if lo, hi := r.DirtySpan(); lo != r.Size()-128 || hi != r.Size() {
		t.Errorf("span = [%d, %d), want [%d, %d)", lo, hi, r.Size()-128, r.Size())
	}
	r.ResetDirty()
	buf := make([]byte, 128)
	if err := m.ReadBytes(end-128, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after reset, want 0", i, b)
		}
	}
}

func TestResetDirtyZeroesOnlyTouchedSpan(t *testing.T) {
	m := New()
	r := m.Map("buf", 4096)
	if err := m.WriteBytes(r.Base+8, []byte{0xaa, 0xbb, 0xcc}); err != nil {
		t.Fatal(err)
	}
	r.ResetDirty()
	if r.DirtyBytes() != 0 {
		t.Errorf("dirty after reset = %d", r.DirtyBytes())
	}
	buf := make([]byte, 16)
	if err := m.ReadBytes(r.Base, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Errorf("byte %d = %#x after reset, want 0", i, b)
		}
	}
	// The region behaves exactly like a fresh one afterwards.
	if err := m.Write8(r.Base, 1); err != nil {
		t.Fatal(err)
	}
	if r.DirtyBytes() != 1 {
		t.Errorf("dirty after post-reset write = %d, want 1", r.DirtyBytes())
	}
}

func TestSliceAliasingAcrossResetDirty(t *testing.T) {
	m := New()
	r := m.Map("buf", 64)
	s, err := m.Slice(r.Base, 8)
	if err != nil {
		t.Fatal(err)
	}
	s[3] = 0x7f
	m.ResetDirty()
	// Old slices keep aliasing the backing bytes and observe the zeroing.
	if s[3] != 0 {
		t.Errorf("aliased slice after ResetDirty = %#x, want 0", s[3])
	}
	// Writes through a stale alias still land in the region (the mark is
	// conservative, not a correctness guard), and a fresh Slice re-dirties.
	s2, err := m.Slice(r.Base, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2[0] = 0x11
	if v, _ := m.Read8(r.Base); v != 0x11 {
		t.Error("fresh slice should alias memory after reset")
	}
}

func TestZeroLengthAccessesAtRegionBoundaries(t *testing.T) {
	m := New()
	r := m.Map("buf", 64)
	// Zero-length Slice/View succeed anywhere — including one past the
	// region end and in unmapped space — and never advance the mark.
	for _, addr := range []uint64{r.Base, r.End(), r.End() + 5000, 0} {
		if s, err := m.Slice(addr, 0); err != nil || s != nil {
			t.Errorf("Slice(0x%x, 0) = %v, %v", addr, s, err)
		}
		if s, err := m.View(addr, 0); err != nil || s != nil {
			t.Errorf("View(0x%x, 0) = %v, %v", addr, s, err)
		}
	}
	if r.DirtyBytes() != 0 {
		t.Errorf("zero-length accesses dirtied %d bytes", r.DirtyBytes())
	}
	// A full-region access marks everything; reset restores cleanliness.
	if _, err := m.Slice(r.Base, r.Size()); err != nil {
		t.Fatal(err)
	}
	if r.DirtyBytes() != r.Size() {
		t.Errorf("full-region Slice dirty = %d, want %d", r.DirtyBytes(), r.Size())
	}
	m.ResetDirty()
	if r.DirtyBytes() != 0 {
		t.Error("ResetDirty should clear a fully-dirty region")
	}
}

func TestViewRejectsOutOfBounds(t *testing.T) {
	m := New()
	r := m.Map("buf", 64)
	if _, err := m.View(r.End()-4, 8); err == nil {
		t.Error("View straddling the region end should fault")
	}
	if _, err := m.View(r.End()+guardGap, 1); !errors.Is(err, ErrUnmapped) {
		t.Error("View of unmapped space should fault")
	}
}

// searchFind is the binary search over sorted region bases that find
// replaced, kept as the reference its answers must match.
func searchFind(m *Memory, addr, n uint64) (*Region, error) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].End() > addr })
	if i == len(m.regions) || addr < m.regions[i].Base {
		return nil, fmt.Errorf("%w: 0x%x (+%d)", ErrUnmapped, addr, n)
	}
	r := m.regions[i]
	if !r.Contains(addr, n) {
		return nil, fmt.Errorf("%w: 0x%x (+%d) in %s", ErrSpansRegion, addr, n, r.Name)
	}
	return r, nil
}

// find must answer every access as the binary search did: the same
// region, or the same error. The accesses cover each region's first
// byte, last byte and one-past-end byte, the guard gaps, zero-length
// accesses and accesses spanning two regions.
func TestFindMatchesBinarySearch(t *testing.T) {
	m := New()
	for _, size := range []uint64{1, 100, PageSize, 3*PageSize + 5, 64} {
		m.Map(fmt.Sprintf("r%d", size), size)
	}
	type access struct{ addr, n uint64 }
	var as []access
	for i, r := range m.regions {
		as = append(as, []access{
			{r.Base, 1}, {r.End() - 1, 1}, {r.End(), 1}, // first, last, one past the end
			{r.Base, r.Size()}, {r.Base, r.Size() + 1}, // whole region, one byte over
			{r.End() - 1, 2}, {r.End() - 4, 8}, // straddling the end
			{r.Base - 1, 1}, {r.Base - 1, 2}, // guard gap below, and into the region
			{r.Base, 0}, {r.End() - 1, 0}, {r.End(), 0}, {r.Base - 1, 0}, // zero length
			{r.End() + 1, 1}, // inside the guard gap above
		}...)
		if i+1 < len(m.regions) {
			next := m.regions[i+1]
			as = append(as, access{r.Base, next.End() - r.Base}, access{r.End() - 1, next.Base - r.End() + 2})
		}
	}
	as = append(as, access{0, 1}, access{baseAddr - 1, 1}, access{^uint64(0), 1}, access{^uint64(0) - 3, 8}, access{m.next + PageSize, 1})
	for _, a := range as {
		got, gotErr := m.find(a.addr, a.n)
		want, wantErr := searchFind(m, a.addr, a.n)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			name := func(r *Region) string {
				if r == nil {
					return "no region"
				}
				return r.Name
			}
			t.Errorf("find(0x%x, %d) = %s, %v; binary search = %s, %v", a.addr, a.n, name(got), gotErr, name(want), wantErr)
		}
	}
}

func BenchmarkRead64(b *testing.B) {
	b.Run("one region", func(b *testing.B) {
		m := New()
		r := m.Map("x", 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Read64(r.Base + uint64(i%512)*8); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Alternating between the first and the last of a System's seven
	// regions: the scan's shortest and longest walks.
	b.Run("alternating regions", func(b *testing.B) {
		m := New()
		var rs []*Region
		for i := 0; i < 7; i++ {
			rs = append(rs, m.Map(fmt.Sprintf("r%d", i), 4096))
		}
		first, last := rs[0], rs[len(rs)-1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := first
			if i%2 == 1 {
				r = last
			}
			if _, err := m.Read64(r.Base + uint64(i%512)*8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestAllocatorTruncateScrubs(t *testing.T) {
	m := New()
	r := m.Map("arena", 256)
	a := NewAllocator(r)
	p1, err := a.Alloc(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(p1, []byte("committed-bytes!")); err != nil {
		t.Fatal(err)
	}
	mark := a.Mark()

	p2, err := a.Alloc(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(p2, []byte("partial object that must vanish!")); err != nil {
		t.Fatal(err)
	}
	a.Truncate(mark)

	if a.Used() != 16 || a.Allocs() != 1 {
		t.Fatalf("after truncate: used=%d allocs=%d, want 16/1", a.Used(), a.Allocs())
	}
	got := make([]byte, 16)
	if err := m.ReadBytes(p1, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed-bytes!" {
		t.Fatalf("committed span clobbered: %q", got)
	}
	scrub := make([]byte, 32)
	if err := m.ReadBytes(p2, scrub); err != nil {
		t.Fatal(err)
	}
	for i, b := range scrub {
		if b != 0 {
			t.Fatalf("released byte %d not scrubbed: %#x", i, b)
		}
	}
	// Re-allocation after rollback lands at the same address as if the
	// aborted allocation never happened.
	p3, err := a.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p2 {
		t.Fatalf("post-rollback alloc at 0x%x, want 0x%x", p3, p2)
	}
}

func TestAllocatorTruncateNoopOnCurrentOrNewerMark(t *testing.T) {
	m := New()
	a := NewAllocator(m.Map("arena", 64))
	if _, err := a.Alloc(8, 8); err != nil {
		t.Fatal(err)
	}
	mark := a.Mark()
	a.Truncate(mark) // mark == current: no-op
	if a.Used() != 8 {
		t.Fatalf("truncate to current mark moved the allocator: used=%d", a.Used())
	}
	a.Truncate(Mark{}) // rollback to empty
	if a.Used() != 0 || a.Allocs() != 0 {
		t.Fatalf("truncate to zero mark: used=%d allocs=%d", a.Used(), a.Allocs())
	}
}
