package core

import (
	"runtime"
	"sync"

	"protoacc/internal/pb/schema"
)

// Pool recycles Systems across runs with identical configurations.
// Building a System maps (and the runtime zeroes) hundreds of megabytes of
// simulated memory; recycling one costs only a ResetAll, which zeroes the
// dirty span of each region — proportional to the bytes the previous
// run touched. Get returns a reset System that is bitwise-equivalent to a
// freshly constructed one (see System.ResetAll), so pooled execution
// produces identical measurements to the unpooled path. GetLoaded also
// hands out a System with a schema loaded, skipping the ADT rebuild when
// an idle System already holds that schema (see System.ResetBatch).
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
	if s := p.take(cfg, nil); s != nil {
		s.ResetAll()
		return s
	}
	return New(cfg)
}

// GetLoaded returns a System for cfg with exactly root loaded. An idle
// System that already holds root is recycled with ResetBatch, which keeps
// its built ADTs — the paper's protoc builds a type's ADTs once and they
// stay in memory (§4.2). Failing that, any idle System for cfg is
// recycled with ResetAll and loaded, and an empty pool builds a new one.
// Every path is bitwise-equivalent to New(cfg) followed by
// LoadSchema(root).
func (p *Pool) GetLoaded(cfg Config, root *schema.Message) (*System, error) {
	s := p.take(cfg, root)
	switch {
	case s != nil && s.holdsOnly(root):
		s.ResetBatch()
		return s, nil
	case s != nil:
		s.ResetAll()
	default:
		s = New(cfg)
	}
	if err := s.LoadSchema(root); err != nil {
		return nil, err
	}
	return s, nil
}

// take counts one Get and removes an idle System for cfg from the pool:
// the newest one holding exactly root when root is non-nil and one does,
// else the newest; nil when none is idle.
func (p *Pool) take(cfg Config, root *schema.Message) *System {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctrs.Gets++
	list := p.idle[cfg]
	n := len(list)
	if n == 0 {
		return nil
	}
	i := n - 1
	for j := i; root != nil && j >= 0; j-- {
		if list[j].sys.holdsOnly(root) {
			i = j
			break
		}
	}
	p.ctrs.Hits++
	s := list[i].sys
	copy(list[i:], list[i+1:])
	list[n-1] = idleEntry{}
	if n == 1 {
		delete(p.idle, cfg)
	} else {
		p.idle[cfg] = list[:n-1]
	}
	p.count--
	return s
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
