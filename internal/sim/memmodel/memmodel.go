// Package memmodel implements the timing model of the SoC memory system:
// per-port L1 caches and TLBs in front of a shared L2, LLC, and DRAM,
// mirroring Figure 8 of the paper where the application core and the
// accelerator share the L2/LLC and each maintain their own L1/TLBs.
//
// The model is a functional set-associative cache simulator: every access
// walks the hierarchy, updates LRU state, and returns the latency in
// cycles of the furthest level reached. It models locality (the dominant
// first-order effect for serialization workloads, which stream buffers and
// chase object pointers) without modelling coherence traffic or MLP —
// overlap of outstanding misses is approximated by the Port's
// StreamAccess, used by the accelerator's streaming units which the paper
// describes as supporting a configurable number of outstanding requests.
package memmodel

import "fmt"

// LineSize is the cache line size in bytes.
const LineSize = 64

// PageSize must match mem.PageSize; kept local to avoid a dependency.
const PageSize = 4096

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency uint64 // cycles charged when the access hits at this level
}

// Config describes the memory system.
type Config struct {
	L1          CacheConfig
	L2          CacheConfig
	LLC         CacheConfig
	DRAMLatency uint64 // cycles for an access that misses everywhere
	TLBEntries  int
	PTWLatency  uint64 // page-table walk cost on TLB miss
	// StreamOverlap divides the latency of streaming (prefetchable)
	// misses, modelling multiple outstanding requests; 1 = no overlap.
	StreamOverlap uint64
}

// DefaultConfig returns parameters resembling the paper's SoC: 32 KiB L1s,
// a 512 KiB shared L2, a 4 MiB LLC (FireSim runs used a 32 MiB LLC model;
// we use a smaller one so benchmarks exhibit capacity behaviour at
// simulation-friendly sizes), and ~100 ns DRAM at 2 GHz.
func DefaultConfig() Config {
	return Config{
		L1:            CacheConfig{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, HitLatency: 2},
		L2:            CacheConfig{Name: "L2", SizeBytes: 512 << 10, Assoc: 8, HitLatency: 14},
		LLC:           CacheConfig{Name: "LLC", SizeBytes: 4 << 20, Assoc: 16, HitLatency: 38},
		DRAMLatency:   200,
		TLBEntries:    64,
		PTWLatency:    80,
		StreamOverlap: 4,
	}
}

// LevelStats counts accesses at one cache level.
type LevelStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s LevelStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cache is one set-associative level with LRU replacement.
type cache struct {
	cfg   CacheConfig
	sets  [][]uint64 // per-set LRU-ordered line tags (front = MRU)
	used  []uint64   // indices of the non-empty sets; capacity for all, so fills never allocate
	mask  uint64
	next  *cache // nil = DRAM behind this level
	dram  uint64
	stats LevelStats
}

func newCache(cfg CacheConfig, next *cache, dram uint64) *cache {
	nsets := cfg.SizeBytes / (LineSize * cfg.Assoc)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("memmodel: %s: set count %d must be a positive power of two", cfg.Name, nsets))
	}
	return &cache{
		cfg:  cfg,
		sets: make([][]uint64, nsets),
		used: make([]uint64, 0, nsets),
		mask: uint64(nsets - 1),
		next: next,
		dram: dram,
	}
}

// access looks up one line (addr already line-aligned) and returns the
// latency of the furthest level reached.
func (c *cache) access(line uint64) uint64 {
	idx := (line / LineSize) & c.mask
	set := c.sets[idx]
	for i, tag := range set {
		if tag == line {
			// Hit: move to front.
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.stats.Hits++
			return c.cfg.HitLatency
		}
	}
	c.stats.Misses++
	var below uint64
	if c.next != nil {
		below = c.next.access(line)
	} else {
		below = c.dram
	}
	// Fill with LRU eviction.
	if len(set) == 0 {
		c.used = append(c.used, idx)
	}
	if len(set) < c.cfg.Assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[idx] = set
	return c.cfg.HitLatency + below
}

// reset empties the cache and zeroes its counters, keeping the backing
// set arrays so a recycled System allocates nothing. Only the sets filled
// since the last reset are visited.
func (c *cache) reset() {
	for _, idx := range c.used {
		c.sets[idx] = c.sets[idx][:0]
	}
	c.used = c.used[:0]
	c.stats = LevelStats{}
}

// tlb is a fully-associative LRU TLB.
type tlb struct {
	entries []uint64
	max     int
	ptw     uint64
	stats   LevelStats
}

func (t *tlb) access(page uint64) uint64 {
	for i, p := range t.entries {
		if p == page {
			copy(t.entries[1:i+1], t.entries[:i])
			t.entries[0] = page
			t.stats.Hits++
			return 0
		}
	}
	t.stats.Misses++
	if len(t.entries) < t.max {
		t.entries = append(t.entries, 0)
	}
	copy(t.entries[1:], t.entries)
	t.entries[0] = page
	return t.ptw
}

// reset empties the TLB and zeroes its counters.
func (t *tlb) reset() {
	t.entries = t.entries[:0]
	t.stats = LevelStats{}
}

// System is the shared part of the memory hierarchy (L2, LLC, DRAM).
type System struct {
	cfg   Config
	l2    *cache
	llc   *cache
	ports []*Port
}

// NewSystem builds the shared hierarchy from cfg.
func NewSystem(cfg Config) *System {
	if cfg.StreamOverlap == 0 {
		cfg.StreamOverlap = 1
	}
	llc := newCache(cfg.LLC, nil, cfg.DRAMLatency)
	l2 := newCache(cfg.L2, llc, 0)
	return &System{cfg: cfg, l2: l2, llc: llc}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Reset restores the hierarchy to its post-construction state: every
// level (the shared L2/LLC and each port's private L1 and TLB) is emptied
// and all hit/miss counters are zeroed. A reset hierarchy is
// indistinguishable, access for access, from a freshly built one — the
// property the System pool's bitwise-determinism contract relies on.
func (s *System) Reset() {
	s.l2.reset()
	s.llc.reset()
	for _, p := range s.ports {
		p.Reset()
	}
}

// LLCStats returns the shared LLC's counters.
func (s *System) LLCStats() LevelStats { return s.llc.stats }

// DRAMAccesses returns how many accesses reached DRAM (LLC misses).
func (s *System) DRAMAccesses() uint64 { return s.llc.stats.Misses }

// PortNames returns the names of every port, in creation order.
func (s *System) PortNames() []string {
	out := make([]string, len(s.ports))
	for i, p := range s.ports {
		out[i] = p.name
	}
	return out
}

// L1Stats returns the named port's private L1 counters; ok is false when
// no such port exists.
func (s *System) L1Stats(port string) (LevelStats, bool) {
	for _, p := range s.ports {
		if p.name == port {
			return p.l1.stats, true
		}
	}
	return LevelStats{}, false
}

// TLBStats returns the named port's TLB counters; ok is false when no
// such port exists.
func (s *System) TLBStats(port string) (LevelStats, bool) {
	for _, p := range s.ports {
		if p.name == port {
			return p.tlb.stats, true
		}
	}
	return LevelStats{}, false
}

// CollectTelemetry implements the telemetry Collector contract: shared
// levels first (l2, llc, dram), then each port's private L1 and TLB in
// creation order, named "l1/<port>/..." and "tlb/<port>/...".
func (s *System) CollectTelemetry(emit func(name string, value float64)) {
	emit("l2/hits", float64(s.l2.stats.Hits))
	emit("l2/misses", float64(s.l2.stats.Misses))
	emit("llc/hits", float64(s.llc.stats.Hits))
	emit("llc/misses", float64(s.llc.stats.Misses))
	emit("dram/accesses", float64(s.llc.stats.Misses))
	for _, p := range s.ports {
		emit("l1/"+p.name+"/hits", float64(p.l1.stats.Hits))
		emit("l1/"+p.name+"/misses", float64(p.l1.stats.Misses))
		emit("tlb/"+p.name+"/hits", float64(p.tlb.stats.Hits))
		emit("tlb/"+p.name+"/misses", float64(p.tlb.stats.Misses))
	}
}

// Port is one agent's view of the memory system: a private L1 and TLB in
// front of the shared levels. The BOOM core and the accelerator each own
// a Port.
type Port struct {
	name    string
	sys     *System
	l1      *cache
	tlb     *tlb
	overlap uint64 // stream overlap override; 0 = system default
}

// SetStreamOverlap overrides the streaming overlap factor for this port,
// modelling an agent with its own outstanding-request capacity (the
// accelerator's memory interface wrappers support a configurable number
// of outstanding requests, §4.1).
func (p *Port) SetStreamOverlap(n uint64) { p.overlap = n }

// NewPort creates a port with its own L1 and TLB.
func (s *System) NewPort(name string) *Port {
	p := &Port{
		name: name,
		sys:  s,
		l1:   newCache(s.cfg.L1, s.l2, 0),
		tlb:  &tlb{max: s.cfg.TLBEntries, ptw: s.cfg.PTWLatency},
	}
	s.ports = append(s.ports, p)
	return p
}

// Reset empties the port's private L1 and TLB and zeroes their counters.
func (p *Port) Reset() {
	p.l1.reset()
	p.tlb.reset()
}

// Access performs a demand access of size bytes at addr and returns its
// latency in cycles. Accesses spanning cache lines touch each line.
func (p *Port) Access(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var cycles uint64
	first := addr &^ (LineSize - 1)
	last := (addr + size - 1) &^ (LineSize - 1)
	for line := first; ; line += LineSize {
		cycles += p.tlb.access(line / PageSize)
		cycles += p.l1.access(line)
		if line == last {
			break
		}
	}
	return cycles
}

// StreamAccess performs a sequential/streaming access: miss latencies
// beyond the first line are divided by the configured overlap factor,
// modelling the multiple outstanding requests of the accelerator's
// memloader/memwriter (§4.1) and the stride prefetchers of the CPUs.
func (p *Port) StreamAccess(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	overlap := p.sys.cfg.StreamOverlap
	if p.overlap != 0 {
		overlap = p.overlap
	}
	var cycles uint64
	first := addr &^ (LineSize - 1)
	last := (addr + size - 1) &^ (LineSize - 1)
	n := uint64(0)
	for line := first; ; line += LineSize {
		c := p.tlb.access(line/PageSize) + p.l1.access(line)
		if n == 0 {
			cycles += c
		} else {
			cycles += (c + overlap - 1) / overlap
		}
		n++
		if line == last {
			break
		}
	}
	return cycles
}

// L1Stats returns the port's private L1 counters.
func (p *Port) L1Stats() LevelStats { return p.l1.stats }

// TLBStats returns the port's TLB counters.
func (p *Port) TLBStats() LevelStats { return p.tlb.stats }

// Name returns the port's name.
func (p *Port) Name() string { return p.name }
