package core

import (
	"testing"

	"protoacc/internal/faults"
)

// Two Configs assembled independently from the same values must share a
// pool key — the key is the Config value, never an address — and any
// differing field must produce a distinct key.
func TestPoolKeyValueSemantics(t *testing.T) {
	a, b := DefaultConfig(KindAccel), DefaultConfig(KindAccel)
	if a != b {
		t.Fatal("independently built identical Configs produced different pool keys")
	}

	mutations := map[string]func(*Config){
		"Kind":       func(c *Config) { c.Kind = KindXeon },
		"Mem":        func(c *Config) { c.Mem.DRAMLatency++ },
		"CPU":        func(c *Config) { c.CPU.FieldDispatch++ },
		"Deser":      func(c *Config) { c.Deser.OnChipStackDepth++ },
		"Ser":        func(c *Config) { c.Ser.NumFieldUnits++ },
		"AccelFreq":  func(c *Config) { c.AccelFreqGHz *= 2 },
		"Arenas":     func(c *Config) { c.SoftwareArenas = true },
		"Faults":     func(c *Config) { c.Faults = faults.Config{Enabled: true, Seed: 9, Rate: 0.1} },
		"StaticSize": func(c *Config) { c.StaticSize++ },
		"HeapSize":   func(c *Config) { c.HeapSize++ },
		"ArenaSize":  func(c *Config) { c.ArenaSize++ },
		"OutSize":    func(c *Config) { c.OutSize++ },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig(KindAccel)
		mutate(&cfg)
		if cfg == a {
			t.Errorf("%s: mutated config collides with the default config's pool key", name)
		}
	}
}

// taggedConfig returns a cheap-to-build config whose OutSize is distinct
// per tag, giving each tag its own pool key.
func taggedConfig(tag uint64) Config {
	cfg := DefaultConfig(KindBOOM)
	cfg.StaticSize = 1 << 20
	cfg.HeapSize = 1 << 20
	cfg.ArenaSize = 1 << 20
	cfg.OutSize = (1 + tag) << 20
	return cfg
}

// A recycled System must be handed back for an identical Config built
// independently (value-keyed, not address-keyed).
func TestPoolRecyclesAcrossIdenticalConfigs(t *testing.T) {
	p := NewPool(4)
	s := p.Get(taggedConfig(0))
	p.Put(s)
	if got := p.Get(taggedConfig(0)); got != s {
		t.Fatal("identical config built independently did not recycle the idle System")
	}
}

// A full pool must not starve minority keys: returning a System for a key
// with no idle entries evicts the oldest idle System of the
// over-represented key instead of dropping the incoming one.
func TestPoolPutEvictsOverRepresentedKey(t *testing.T) {
	const max = 4
	p := NewPool(max)

	// Fill the pool with the hot key.
	hot := make([]*System, max)
	for i := range hot {
		hot[i] = New(taggedConfig(0))
	}
	for _, s := range hot {
		p.Put(s)
	}
	if got := p.IdleFor(taggedConfig(0)); got != max {
		t.Fatalf("hot key idle = %d, want %d", got, max)
	}

	// A cold-key return must be retained, shrinking the hot key by one.
	cold := New(taggedConfig(1))
	p.Put(cold)
	if got := p.Idle(); got != max {
		t.Fatalf("pool count = %d, want %d (capacity must hold)", got, max)
	}
	if got := p.IdleFor(taggedConfig(1)); got != 1 {
		t.Fatalf("cold key idle = %d, want 1 — incoming System was dropped", got)
	}
	if got := p.IdleFor(taggedConfig(0)); got != max-1 {
		t.Fatalf("hot key idle = %d, want %d after eviction", got, max-1)
	}
	// The evicted System is the hot key's oldest (FIFO victim); Get pops
	// LIFO, so the first-Put System is gone and the rest remain.
	seen := make(map[*System]bool)
	for i := 0; i < max-1; i++ {
		seen[p.Get(taggedConfig(0))] = true
	}
	if seen[hot[0]] {
		t.Error("oldest idle System of the hot key should have been evicted")
	}
	for _, s := range hot[1:] {
		if !seen[s] {
			t.Error("a newer hot-key System was evicted instead of the oldest")
		}
	}
	if got := p.Get(taggedConfig(1)); got != cold {
		t.Error("cold-key System was not retained")
	}
}

// The recycling ledger must account for every Get and Put outcome: hits
// only on recycled Systems, drops for poisoned returns, evictions when a
// full pool makes room.
func TestPoolCounters(t *testing.T) {
	p := NewPool(2)
	miss := p.Get(taggedConfig(0)) // miss: empty pool
	p.Put(miss)
	hit := p.Get(taggedConfig(0)) // hit: recycles miss
	if hit != miss {
		t.Fatal("expected the idle System back")
	}
	p.Put(hit)

	poisoned := New(taggedConfig(0))
	poisoned.poisoned = true
	p.Put(poisoned) // drop: poisoned

	p.Put(New(taggedConfig(1)))
	p.Put(New(taggedConfig(1))) // pool full (max 2): evicts one idle

	got := p.Counters()
	want := PoolCounters{Gets: 2, Hits: 1, Puts: 4, Drops: 1, Evictions: 1}
	if got != want {
		t.Fatalf("pool counters = %+v, want %+v", got, want)
	}
}

// Under a mixed-config workload cycling through more keys than the pool
// holds per key, every key must keep recycling — the regression shape for
// the old Put behavior, which dropped every return for keys other than
// the one that filled the pool first.
func TestPoolMixedConfigNoStarvation(t *testing.T) {
	const keys = 3
	p := NewPool(keys) // tight: one retained System per key at fairness
	built := 0
	get := func(tag uint64) *System {
		cfg := taggedConfig(tag)
		if p.IdleFor(cfg) == 0 {
			built++
			return New(cfg)
		}
		return p.Get(cfg)
	}
	// Warm one System per key.
	for tag := uint64(0); tag < keys; tag++ {
		p.Put(get(tag))
	}
	built = 0
	// Round-robin across keys: with eviction-based Put every Get must be
	// satisfied from the pool (zero fresh builds after warm-up).
	for round := 0; round < 8; round++ {
		for tag := uint64(0); tag < keys; tag++ {
			s := get(tag)
			p.Put(s)
		}
	}
	if built != 0 {
		t.Fatalf("mixed-config workload rebuilt %d Systems; pool starved a key", built)
	}
}
