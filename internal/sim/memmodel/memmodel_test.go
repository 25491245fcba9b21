package memmodel

import (
	"math/rand"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	// Small caches so capacity behaviour is easy to trigger.
	cfg.L1 = CacheConfig{Name: "L1", SizeBytes: 1 << 10, Assoc: 2, HitLatency: 2}
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 4 << 10, Assoc: 4, HitLatency: 10}
	cfg.LLC = CacheConfig{Name: "LLC", SizeBytes: 16 << 10, Assoc: 4, HitLatency: 30}
	cfg.DRAMLatency = 100
	return cfg
}

func TestColdMissThenHit(t *testing.T) {
	sys := NewSystem(testConfig())
	p := sys.NewPort("cpu")
	// Cold: TLB miss + L1 miss + L2 miss + LLC miss + DRAM.
	c1 := p.Access(0x10000, 8)
	want := uint64(80 + 2 + 10 + 30 + 100)
	if c1 != want {
		t.Errorf("cold access = %d, want %d", c1, want)
	}
	// Warm: everything hits.
	c2 := p.Access(0x10000, 8)
	if c2 != 2 {
		t.Errorf("warm access = %d, want 2", c2)
	}
	// Same line, different offset: still a hit.
	c3 := p.Access(0x10020, 4)
	if c3 != 2 {
		t.Errorf("same-line access = %d, want 2", c3)
	}
}

func TestLineStraddle(t *testing.T) {
	sys := NewSystem(testConfig())
	p := sys.NewPort("cpu")
	p.Access(0x10000, 128) // warm two lines (same page)
	c := p.Access(0x1003c, 8)
	if c != 4 { // two L1 hits
		t.Errorf("straddling access = %d, want 4", c)
	}
}

func TestZeroSize(t *testing.T) {
	sys := NewSystem(testConfig())
	p := sys.NewPort("cpu")
	if p.Access(0x10000, 0) != 0 || p.StreamAccess(0x10000, 0) != 0 {
		t.Error("zero-size access should cost 0")
	}
}

func TestL1Eviction(t *testing.T) {
	cfg := testConfig()
	sys := NewSystem(cfg)
	p := sys.NewPort("cpu")
	// L1: 1 KiB, 2-way, 64 B lines -> 8 sets. Three lines mapping to the
	// same set (stride = 8 sets * 64 B = 512 B) overflow the ways.
	p.Access(0x10000, 1)
	p.Access(0x10000+512, 1)
	p.Access(0x10000+1024, 1) // evicts 0x10000 from L1
	c := p.Access(0x10000, 1)
	if c != 2+10 { // L1 miss, L2 hit
		t.Errorf("evicted line access = %d, want 12", c)
	}
	st := p.L1Stats()
	if st.Hits != 0 || st.Misses != 4 {
		t.Errorf("L1 stats = %+v", st)
	}
}

func TestSharedL2BetweenPorts(t *testing.T) {
	sys := NewSystem(testConfig())
	cpu := sys.NewPort("cpu")
	acc := sys.NewPort("accel")
	cpu.Access(0x20000, 8)
	// The accelerator port misses its own L1/TLB but hits the shared L2.
	c := acc.Access(0x20000, 8)
	if c != 80+2+10 {
		t.Errorf("cross-port access = %d, want 92 (TLB walk + L1 miss + L2 hit)", c)
	}
}

func TestTLB(t *testing.T) {
	cfg := testConfig()
	cfg.TLBEntries = 2
	sys := NewSystem(cfg)
	p := sys.NewPort("cpu")
	p.Access(0x10000, 1)          // page A: walk
	p.Access(0x10000+PageSize, 1) // page B: walk
	c := p.Access(0x10000+8, 1)   // page A again: TLB hit
	if c != 2 {
		t.Errorf("TLB hit access = %d", c)
	}
	p.Access(0x10000+2*PageSize, 1) // page C: evicts LRU (B)
	st := p.TLBStats()
	if st.Misses != 3 || st.Hits != 1 {
		t.Errorf("TLB stats = %+v", st)
	}
}

func TestStreamOverlap(t *testing.T) {
	cfg := testConfig()
	cfg.StreamOverlap = 4
	sysA := NewSystem(cfg)
	pa := sysA.NewPort("a")
	stream := pa.StreamAccess(0x10000, 1024)

	cfgB := cfg
	cfgB.StreamOverlap = 1
	sysB := NewSystem(cfgB)
	pb := sysB.NewPort("b")
	demand := pb.StreamAccess(0x10000, 1024)

	if stream >= demand {
		t.Errorf("streaming (%d) should be cheaper than serialized (%d)", stream, demand)
	}
}

func TestHitRate(t *testing.T) {
	var s LevelStats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = LevelStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cfg := testConfig()
	cfg.L1.SizeBytes = 100 // not a power-of-two set count
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sys := NewSystem(cfg)
	sys.NewPort("x")
}

func TestDefaultConfigSane(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	p := sys.NewPort("cpu")
	cold := p.Access(0x40000, 8)
	warm := p.Access(0x40000, 8)
	if cold <= warm || warm != sys.Config().L1.HitLatency {
		t.Errorf("cold=%d warm=%d", cold, warm)
	}
}

func TestWorkingSetLocality(t *testing.T) {
	// Invariant: a small working set reaccessed repeatedly converges to
	// L1-hit cost; a huge streaming scan does not.
	sys := NewSystem(testConfig())
	p := sys.NewPort("cpu")
	var smallTotal uint64
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0x10000); a < 0x10000+512; a += 64 {
			smallTotal += p.Access(a, 8)
		}
	}
	avgSmall := float64(smallTotal) / (10 * 8)
	if avgSmall > 20 {
		t.Errorf("small working set avg = %f cycles", avgSmall)
	}
	p2 := sys.NewPort("cpu2")
	var bigTotal uint64
	n := 0
	for a := uint64(0x100000); a < 0x100000+1<<20; a += 64 {
		bigTotal += p2.Access(a, 8)
		n++
	}
	avgBig := float64(bigTotal) / float64(n)
	if avgBig < 50 {
		t.Errorf("streaming scan avg = %f cycles, should be expensive", avgBig)
	}
}

// TestSystemStatAccessors covers the by-name hierarchy accessors the
// telemetry layer and external tooling use.
func TestSystemStatAccessors(t *testing.T) {
	sys := NewSystem(testConfig())
	cpu := sys.NewPort("cpu")
	sys.NewPort("accel")
	cpu.Access(0x10000, 8) // cold: misses all the way to DRAM
	cpu.Access(0x10000, 8) // warm: L1 hit

	if got := sys.PortNames(); len(got) != 2 || got[0] != "cpu" || got[1] != "accel" {
		t.Errorf("PortNames = %v", got)
	}
	if st, ok := sys.L1Stats("cpu"); !ok || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("L1Stats(cpu) = %+v, %v", st, ok)
	}
	if st, ok := sys.L1Stats("accel"); !ok || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("L1Stats(accel) = %+v, %v", st, ok)
	}
	if st, ok := sys.TLBStats("cpu"); !ok || st.Misses != 1 {
		t.Errorf("TLBStats(cpu) = %+v, %v", st, ok)
	}
	if _, ok := sys.L1Stats("nope"); ok {
		t.Error("L1Stats found a nonexistent port")
	}
	if _, ok := sys.TLBStats("nope"); ok {
		t.Error("TLBStats found a nonexistent port")
	}
	if got, want := sys.DRAMAccesses(), sys.LLCStats().Misses; got != want {
		t.Errorf("DRAMAccesses = %d, LLC misses = %d", got, want)
	}

	counters := map[string]float64{}
	sys.CollectTelemetry(func(name string, v float64) { counters[name] = v })
	for _, name := range []string{
		"l2/hits", "l2/misses", "llc/hits", "llc/misses", "dram/accesses",
		"l1/cpu/hits", "l1/cpu/misses", "tlb/cpu/hits", "tlb/cpu/misses",
		"l1/accel/hits", "l1/accel/misses", "tlb/accel/hits", "tlb/accel/misses",
	} {
		if _, ok := counters[name]; !ok {
			t.Errorf("CollectTelemetry missing %q", name)
		}
	}
	if counters["l1/cpu/hits"] != 1 || counters["dram/accesses"] != 1 {
		t.Errorf("counter values off: %v", counters)
	}
}

// TestResetMatchesFresh checks Reset's contract: after any access history
// and a Reset, the hierarchy answers a new sequence with the same
// per-access latencies and counters as a freshly built one. Addresses
// span four times the test LLC so sets fill, evict and are re-filled.
func TestResetMatchesFresh(t *testing.T) {
	newSys := func() (*System, []*Port) {
		sys := NewSystem(testConfig())
		return sys, []*Port{sys.NewPort("cpu"), sys.NewPort("accel")}
	}
	// run replays n seeded random accesses on every given hierarchy and
	// fails on the first latency that differs between them.
	run := func(seed int64, n int, ports ...[]*Port) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			p := rng.Intn(2)
			addr := uint64(0x10000 + rng.Intn(64<<10))
			size := uint64(1 + rng.Intn(200))
			stream := rng.Intn(2) == 0
			var first uint64
			for j, ps := range ports {
				var c uint64
				if stream {
					c = ps[p].StreamAccess(addr, size)
				} else {
					c = ps[p].Access(addr, size)
				}
				if j == 0 {
					first = c
				} else if c != first {
					t.Fatalf("seed %d access %d (port %d, 0x%x+%d): latency %d, want %d", seed, i, p, addr, size, c, first)
				}
			}
		}
	}
	counters := func(sys *System) map[string]float64 {
		m := map[string]float64{}
		sys.CollectTelemetry(func(name string, v float64) { m[name] = v })
		return m
	}

	recycled, rp := newSys()
	run(1, 5000, rp)
	for round, seed := range []int64{2, 3} {
		recycled.Reset()
		fresh, fp := newSys()
		run(seed, 5000, fp, rp)
		want, got := counters(fresh), counters(recycled)
		for name, v := range want {
			if got[name] != v {
				t.Errorf("round %d: %s = %v after Reset, %v fresh", round, name, got[name], v)
			}
		}
	}
}
