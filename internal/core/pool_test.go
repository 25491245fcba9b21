package core

import (
	"reflect"
	"testing"

	"protoacc/internal/faults"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/telemetry"
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

// batchPair is what one deser batch and one ser batch of a message expose
// to their caller: the Results (cycles, attribution, fault history), the
// addresses the batches wrote, the bytes read back, and the registry
// snapshot after both.
type batchPair struct {
	deser, ser Result
	objs       []uint64
	refs       []WireRef
	out        [][]byte
	snap       []telemetry.Sample
}

// runBatchPair runs one two-request deser batch and one two-request ser
// batch of msg on sys, which must hold msg's type.
func runBatchPair(t *testing.T, sys *System, msg *dynamic.Message) batchPair {
	t.Helper()
	typ := msg.Type()
	wire, err := codec.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Telemetry().EnableAttribution(true)
	var bp batchPair
	refs := make([]WireRef, 2)
	objs := make([]uint64, 2)
	for i := range refs {
		addr, err := sys.WriteWire(wire)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = WireRef{Addr: addr, Len: uint64(len(wire))}
		if objs[i], err = sys.MaterializeInput(msg); err != nil {
			t.Fatal(err)
		}
	}
	if bp.deser, bp.objs, err = sys.DeserializeBatch(typ, refs); err != nil {
		t.Fatal(err)
	}
	for _, obj := range bp.objs {
		m, err := sys.ReadMessage(typ, obj)
		if err != nil {
			t.Fatal(err)
		}
		b, err := codec.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		bp.out = append(bp.out, b)
	}
	if bp.ser, bp.refs, err = sys.SerializeBatch(typ, objs); err != nil {
		t.Fatal(err)
	}
	for _, r := range bp.refs {
		b, err := sys.ReadWire(r.Addr, r.Len)
		if err != nil {
			t.Fatal(err)
		}
		bp.out = append(bp.out, b)
	}
	bp.snap = sys.Telemetry().Registry.Snapshot().Samples()
	return bp
}

// GetLoaded's three sources — an idle System holding the root (kept ADTs,
// ResetBatch), an idle System holding another root (ResetAll and reload),
// and a new System — must each run batches bitwise-identically to
// New(cfg) followed by LoadSchema(root), fault schedule included: the
// injector must replay the same episode. The System that holds the root
// wins over a newer one that does not, and a poisoned System that was Put
// back never returns.
func TestPoolGetLoaded(t *testing.T) {
	root := testType()
	msg := populate(root)
	other := mustMessage("Other",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString})
	otherMsg := dynamic.New(other)
	otherMsg.SetInt32(1, 7)
	otherMsg.SetString(2, "other root")

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fault-free", smallConfig(KindAccel)},
		{"faulted", faultedConfig(77, 0.06)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded := func(r *schema.Message) *System {
				sys := New(tc.cfg)
				if err := sys.LoadSchema(r); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			refSys := loaded(root)
			ref := runBatchPair(t, refSys, msg)
			if tc.cfg.Faults.Enabled && refSys.Inj.TotalInjected() == 0 {
				t.Fatal("the schedule injected no faults; the faulted case is vacuous")
			}

			// Both idle Systems have run batches, so a path that skips its
			// reset shows up as a difference from the reference.
			holder, stranger := loaded(root), loaded(other)
			runBatchPair(t, holder, msg)
			runBatchPair(t, stranger, otherMsg)
			p := NewPool(4)
			p.Put(holder)
			p.Put(stranger) // newer than holder

			check := func(path string, want *System, gets, hits uint64) *System {
				t.Helper()
				sys, err := p.GetLoaded(tc.cfg, root)
				if err != nil {
					t.Fatal(err)
				}
				if want != nil && sys != want {
					t.Fatalf("%s: GetLoaded returned the wrong System", path)
				}
				if want == nil && (sys == holder || sys == stranger) {
					t.Fatalf("%s: GetLoaded recycled a System it should not have", path)
				}
				if c := p.Counters(); c.Gets != gets || c.Hits != hits {
					t.Errorf("%s: Gets %d Hits %d, want %d %d", path, c.Gets, c.Hits, gets, hits)
				}
				if got := runBatchPair(t, sys, msg); !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: batches diverged from New+LoadSchema:\n got %+v\nwant %+v", path, got, ref)
				}
				return sys
			}
			check("holds root", holder, 1, 1)
			check("holds another root", stranger, 2, 2)
			built := check("empty pool", nil, 3, 2)

			built.poisoned = true
			p.Put(built)
			if sys, err := p.GetLoaded(tc.cfg, root); err != nil || sys == built {
				t.Errorf("a poisoned System came back from the pool (err %v)", err)
			}
		})
	}
}

// BenchmarkPoolGetLoaded prices one checkout on each of GetLoaded's
// recycling paths: a hit, where the idle System holds the batch's schema
// (ResetBatch keeps its ADTs), and a reload, where the only idle System
// holds another schema (ResetAll, then LoadSchema). No batch runs between
// checkouts, so the regions stay clean and the figures are each path's
// fixed cost.
func BenchmarkPoolGetLoaded(b *testing.B) {
	cfg := smallConfig(KindAccel)
	roots := [2]*schema.Message{testType(), mustMessage("Other",
		&schema.Field{Name: "a", Number: 1, Kind: schema.KindInt32},
		&schema.Field{Name: "s", Number: 2, Kind: schema.KindString})}
	for _, bc := range []struct {
		name   string
		reload bool
	}{{"hit", false}, {"reload", true}} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewPool(4)
			sys, err := p.GetLoaded(cfg, roots[0])
			if err != nil {
				b.Fatal(err)
			}
			p.Put(sys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := roots[0]
				if bc.reload {
					root = roots[(i+1)%2]
				}
				sys, err := p.GetLoaded(cfg, root)
				if err != nil {
					b.Fatal(err)
				}
				p.Put(sys)
			}
			if c := p.Counters(); c.Gets-c.Hits != 1 {
				b.Fatalf("built %d Systems, want 1: every timed checkout must recycle it", c.Gets-c.Hits)
			}
		})
	}
}
