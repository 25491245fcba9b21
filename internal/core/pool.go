package core

import (
	"runtime"
	"sync"
)

// Pool recycles Systems across runs with identical configurations.
// Building a System maps (and the runtime zeroes) hundreds of megabytes of
// simulated memory; recycling one costs only a ResetAll, which zeroes the
// dirty span of each region — proportional to the bytes the previous
// run touched. Get returns a reset System that is bitwise-equivalent to a
// freshly constructed one (see System.ResetAll), so pooled execution
// produces identical measurements to the unpooled path.
//
// Config is comparable, so the pool keys on it directly: two Configs
// built independently from the same values share a key, and distinct
// configurations never collide.
//
// Pool is safe for concurrent use; the benchmark harness's worker pool
// and the serving layer's batch executors share one.
type Pool struct {
	mu    sync.Mutex
	max   int
	idle  map[Config][]idleEntry
	count int
	seq   uint64 // stamps idle entries so "oldest" is well defined
	ctrs  PoolCounters
}

// PoolCounters is the pool's recycling ledger: how often Get was served
// from an idle System (Hits) versus building a new one, and what happened
// to returned Systems (retained, dropped as poisoned, or evicted to make
// room). The serving layer's per-tile pools expose these in shutdown
// summaries; they are deliberately not part of telemetry snapshots
// because hit/miss counts depend on worker scheduling and would break the
// serial-vs-parallel bitwise-equivalence contract.
type PoolCounters struct {
	Gets      uint64 // Get calls
	Hits      uint64 // Gets served by recycling an idle System
	Puts      uint64 // Systems retained by Put
	Drops     uint64 // Puts discarded as poisoned
	Evictions uint64 // idle Systems evicted to make room
}

// Counters returns a snapshot of the pool's recycling ledger.
func (p *Pool) Counters() PoolCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ctrs
}

// idleEntry is one retained System plus its admission stamp.
type idleEntry struct {
	sys *System
	seq uint64
}

// NewPool creates a pool retaining at most max idle Systems (0 means a
// default scaled to GOMAXPROCS).
func NewPool(max int) *Pool {
	if max <= 0 {
		max = 4 * runtime.GOMAXPROCS(0)
		if max < 16 {
			max = 16
		}
	}
	return &Pool{max: max, idle: make(map[Config][]idleEntry)}
}

// DefaultPool is the process-wide pool used by the bench harness.
var DefaultPool = NewPool(0)

// Get returns a System for cfg: a recycled one when an idle System with
// an identical configuration is available, a new one otherwise.
func (p *Pool) Get(cfg Config) *System {
	p.mu.Lock()
	p.ctrs.Gets++
	list := p.idle[cfg]
	if n := len(list); n > 0 {
		p.ctrs.Hits++
		s := list[n-1].sys
		list[n-1] = idleEntry{}
		p.idle[cfg] = list[:n-1]
		if n == 1 {
			delete(p.idle, cfg)
		}
		p.count--
		p.mu.Unlock()
		s.ResetAll()
		return s
	}
	p.mu.Unlock()
	return New(cfg)
}

// Put returns a System to the pool for future reuse. Poisoned Systems —
// ones an aborted mid-mutation operation left with undefined simulated
// state — are dropped (the GC reclaims them). Transactionally-aborted faults do not poison:
// a System that rode out injected faults via retry or software fallback
// pools normally.
//
// A full pool never drops the incoming System outright: doing so would
// let one hot configuration that already owns every idle slot starve all
// other keys of recycling (exactly the mixed-config shape the serving
// layer produces). Instead the oldest idle System of the most
// over-represented key is evicted to make room.
func (p *Pool) Put(s *System) {
	if s == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.Poisoned() {
		p.ctrs.Drops++
		return
	}
	p.ctrs.Puts++
	if p.count >= p.max {
		p.evictLocked()
	}
	p.seq++
	p.idle[s.Cfg] = append(p.idle[s.Cfg], idleEntry{sys: s, seq: p.seq})
	p.count++
}

// evictLocked removes the oldest idle entry of the key holding the most
// idle Systems (ties broken toward the key with the oldest front entry,
// which makes the choice deterministic regardless of map iteration
// order). Called with p.mu held and p.count > 0.
func (p *Pool) evictLocked() {
	var victim Config
	best := 0
	var bestSeq uint64
	for k, list := range p.idle {
		n := len(list)
		if n == 0 {
			continue
		}
		if n > best || (n == best && list[0].seq < bestSeq) {
			best, bestSeq, victim = n, list[0].seq, k
		}
	}
	if best == 0 {
		return
	}
	list := p.idle[victim]
	copy(list, list[1:])
	list[len(list)-1] = idleEntry{}
	if len(list) == 1 {
		delete(p.idle, victim)
	} else {
		p.idle[victim] = list[:len(list)-1]
	}
	p.count--
	p.ctrs.Evictions++
}

// Idle returns the number of Systems currently retained (for tests).
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// IdleFor returns the number of idle Systems retained for cfg's key (for
// tests and pool introspection).
func (p *Pool) IdleFor(cfg Config) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[cfg])
}
