package elements

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    []string // enabled names; nil = chain off
		wantErr bool
	}{
		{spec: "", want: nil},
		{spec: "off", want: nil},
		{spec: "none", want: nil},
		{spec: "all", want: []string{"admission", "breaker", "cache"}},
		{spec: "admission", want: []string{"admission"}},
		{spec: "cache", want: []string{"cache"}},
		{spec: "breaker,cache", want: []string{"breaker", "cache"}},
		{spec: "cache,breaker", want: []string{"breaker", "cache"}}, // chain order, not flag order
		{spec: "admission, breaker", want: []string{"admission", "breaker"}},
		{spec: "cache,cache", wantErr: true},
		{spec: "turbo", wantErr: true},
		{spec: "admission,", wantErr: true},
	}
	for _, tc := range cases {
		cfg, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.spec, cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got := cfg.Names(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q).Names() = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"off", "all", "admission", "breaker", "cache", "admission,cache"} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got := cfg.Spec(); got != spec {
			t.Errorf("ParseSpec(%q).Spec() = %q", spec, got)
		}
	}
}

func TestChainNilWhenOff(t *testing.T) {
	if ch := New(Config{}, 4); ch != nil {
		t.Fatalf("New with zero Config = %+v, want nil", ch)
	}
	var ch *Chain
	if names := ch.Names(); names != nil {
		t.Fatalf("nil Chain Names() = %v, want nil", names)
	}
}

func TestChainDefaults(t *testing.T) {
	ch := New(Config{Admission: true, Breaker: true, Cache: true}, 2)
	if ch.Admission == nil || ch.Breaker == nil || ch.Cache == nil {
		t.Fatalf("all-on chain has nil element: %+v", ch)
	}
	if got := ch.Config().FillRate; got != DefaultFillRate {
		t.Errorf("default fill rate = %g, want %g", got, DefaultFillRate)
	}
	if a := ch.Admission; a.fillRate != DefaultFillRate || a.burst != 2*DefaultFillRate {
		t.Errorf("admission: fill=%g burst=%g, want %g and twice it", a.fillRate, a.burst, DefaultFillRate)
	}
	if c := ch.Breaker.tiles[1].c; c.Dwell != 500*time.Millisecond || c.Probes != 8 {
		t.Errorf("breaker circuit: dwell=%v probes=%d, want 500ms and 8", c.Dwell, c.Probes)
	}
	if got := ch.Cache.maxBytes; got != 16<<20 {
		t.Errorf("cache budget = %d, want 16MiB", got)
	}
}

func TestAdmissionBurstThenThrottle(t *testing.T) {
	a := newAdmission(1.5) // 1.5 tokens/s, burst 3
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if !a.Allow("c", now) {
			t.Fatalf("request %d within burst throttled", i)
		}
	}
	if a.Allow("c", now) {
		t.Fatal("request past burst allowed")
	}
	allowed, throttled := a.Totals()
	if allowed != 3 || throttled != 1 {
		t.Fatalf("totals = (%d, %d), want (3, 1)", allowed, throttled)
	}
}

func TestAdmissionRefill(t *testing.T) {
	a := newAdmission(2) // burst 4
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		a.Allow("c", now)
	}
	if a.Allow("c", now) {
		t.Fatal("empty bucket allowed")
	}
	// 500ms refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if !a.Allow("c", now) {
		t.Fatal("refilled token not granted")
	}
	if a.Allow("c", now) {
		t.Fatal("second request on a single refilled token allowed")
	}
	// A long idle caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if !a.Allow("c", now) {
			t.Fatalf("request %d within refilled burst throttled", i)
		}
	}
	if a.Allow("c", now) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestAdmissionClientsIndependent(t *testing.T) {
	a := newAdmission(1) // burst 2
	now := time.Unix(1000, 0)
	a.Allow("a", now)
	a.Allow("a", now)
	if a.Allow("a", now) {
		t.Fatal("client a over burst allowed")
	}
	if !a.Allow("b", now) {
		t.Fatal("fresh client b throttled by client a's spend")
	}
	if a.Clients() != 2 {
		t.Fatalf("Clients() = %d, want 2", a.Clients())
	}
}

func TestAdmissionSweep(t *testing.T) {
	a := newAdmission(10) // refill horizon = burstSeconds
	now := time.Unix(1000, 0)
	for i := 0; i < maxClients; i++ {
		a.Allow(fmt.Sprintf("c%d", i), now)
	}
	if a.Clients() != maxClients {
		t.Fatalf("Clients() = %d, want %d", a.Clients(), maxClients)
	}
	// All existing buckets have fully refilled; a new insert sweeps them.
	now = now.Add(burstSeconds*time.Second + time.Millisecond)
	a.Allow("fresh", now)
	if n := a.Clients(); n != 1 {
		t.Fatalf("Clients() after sweep = %d, want 1", n)
	}
}

// A flood of new clients, faster than any bucket goes idle, stays within
// maxClients buckets by dropping the least recently filled ones, and a
// client that keeps sending through it keeps its bucket.
func TestAdmissionFloodBounded(t *testing.T) {
	a := newAdmission(100)
	now := time.Unix(1000, 0)
	a.Allow("steady", now)
	steady := a.clients["steady"]
	for i := 0; i < 10000; i++ {
		now = now.Add(190 * time.Microsecond) // 10,000 clients in 1.9 s
		a.Allow(fmt.Sprintf("flood%d", i), now)
		if i%100 == 0 {
			a.Allow("steady", now)
		}
		if n := a.Clients(); n > maxClients {
			t.Fatalf("after %d flood clients: %d buckets, want at most %d", i+1, n, maxClients)
		}
	}
	if a.clients["steady"] != steady {
		t.Error("the steady client lost its bucket to the flood")
	}
	if a.byFill.Len() != a.Clients() {
		t.Errorf("fill order holds %d buckets, map %d", a.byFill.Len(), a.Clients())
	}
}

// Regression: sweepLocked computed the refill horizon as
// burst/fillRate*Second with no guard, so a zero, negative, or NaN fill
// rate produced an Inf/NaN float whose time.Duration conversion is
// implementation-defined (minInt64 on amd64 — a negative horizon that
// drops every bucket; a +Inf-as-maxInt64 horizon never sweeps any).
// Degenerate rates must be clamped when the chain is built, and the
// sweep must then drop exactly the idle buckets.
func TestAdmissionSweepDegenerateRates(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, tc := range []struct {
		name               string
		fillRate, wantRate float64
	}{
		{"zero", 0, DefaultFillRate},
		{"negative", -5, DefaultFillRate},
		{"nan", math.NaN(), DefaultFillRate},
		{"inf", math.Inf(1), DefaultFillRate},
		{"finite", 10, 10},
	} {
		a := New(Config{Admission: true, FillRate: tc.fillRate}, 1).Admission
		if a.FillRate() != tc.wantRate || a.burst != burstSeconds*tc.wantRate {
			t.Errorf("%s: clamped to (rate=%v, burst=%v), want rate %v", tc.name, a.FillRate(), a.burst, tc.wantRate)
		}
		// The sweep must neither drop a just-filled bucket (negative
		// horizon) nor refuse to drop a long-idle one (infinite horizon).
		a.Allow("live", now)
		a.Allow("idle", now.Add(-48*time.Hour))
		a.sweepLocked(now)
		if a.Clients() != 1 {
			t.Errorf("%s: sweep kept %d clients, want 1 (idle dropped, live kept)", tc.name, a.Clients())
		}
	}
}

// The chain's config defaulting must be NaN-safe: `<= 0` is false for
// NaN, so a NaN FillRate used to pass straight through withDefaults into
// the admission element, and its burst with it.
func TestConfigWithDefaultsNaNSafe(t *testing.T) {
	if cfg := (Config{Admission: true, FillRate: math.NaN()}).withDefaults(); cfg.FillRate != DefaultFillRate {
		t.Fatalf("withDefaults kept a degenerate rate: fill=%v", cfg.FillRate)
	}
	ch := New(Config{Admission: true, FillRate: math.NaN()}, 1)
	if a := ch.Admission; a.FillRate() != DefaultFillRate || a.burst != burstSeconds*DefaultFillRate {
		t.Fatalf("chain admission built with fill rate %v, burst %v", a.FillRate(), a.burst)
	}
}

// Circuit transitions step by step, on a fabricated clock, with a 10ms
// dwell and a two-probe budget. Each step checks the operation's result
// and the position after it.
func TestCircuit(t *testing.T) {
	const ms = time.Millisecond
	type step struct {
		op    string        // open, query, routed, passed, close
		at    time.Duration // clock of open and query
		n     int           // requests of routed and passed
		want  bool          // query: routable; passed: closed it; close: was not closed
		state State
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"not routable before the dwell", []step{
			{op: "query", want: true, state: StateClosed},
			{op: "open", state: StateOpen},
			{op: "query", at: 9 * ms, state: StateOpen},
			{op: "query", at: 10 * ms, want: true, state: StateHalfOpen},
		}},
		{"half-open keeps its budget until routed", []step{
			{op: "open", state: StateOpen},
			{op: "query", at: 10 * ms, want: true, state: StateHalfOpen},
			{op: "query", at: 11 * ms, want: true, state: StateHalfOpen},
			{op: "query", at: 12 * ms, want: true, state: StateHalfOpen},
			{op: "routed", n: 1, state: StateHalfOpen},
			{op: "query", at: 13 * ms, want: true, state: StateHalfOpen},
			{op: "routed", n: 1, state: StateHalfOpen},
			{op: "query", at: 14 * ms, state: StateHalfOpen},
		}},
		{"failure re-opens with a fresh dwell", []step{
			{op: "open", state: StateOpen},
			{op: "query", at: 10 * ms, want: true, state: StateHalfOpen},
			{op: "routed", n: 1, state: StateHalfOpen},
			{op: "open", at: 12 * ms, state: StateOpen},
			{op: "query", at: 21 * ms, state: StateOpen},
			{op: "query", at: 22 * ms, want: true, state: StateHalfOpen},
			{op: "query", at: 23 * ms, want: true, state: StateHalfOpen},
		}},
		{"budget successes close", []step{
			{op: "open", state: StateOpen},
			{op: "query", at: 10 * ms, want: true, state: StateHalfOpen},
			{op: "routed", n: 2, state: StateHalfOpen},
			{op: "passed", n: 1, state: StateHalfOpen},
			{op: "passed", n: 1, want: true, state: StateClosed},
			{op: "query", at: 11 * ms, want: true, state: StateClosed},
		}},
		{"successes while open do nothing", []step{
			{op: "open", state: StateOpen},
			{op: "passed", n: 5, state: StateOpen},
			{op: "routed", n: 5, state: StateOpen},
			{op: "query", at: 9 * ms, state: StateOpen},
		}},
		{"close restores without a probe", []step{
			{op: "open", state: StateOpen},
			{op: "close", want: true, state: StateClosed},
			{op: "close", state: StateClosed},
		}},
	}
	t0 := time.Unix(0, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Circuit{Dwell: 10 * ms, Probes: 2}
			for i, s := range tc.steps {
				var got bool
				switch s.op {
				case "open":
					c.Open(t0.Add(s.at))
				case "query":
					got, _ = c.Routable(t0.Add(s.at))
				case "routed":
					c.Routed(s.n)
				case "passed":
					got = c.Passed(s.n)
				case "close":
					got = c.Close()
				}
				if got != s.want || c.State() != s.state {
					t.Fatalf("step %d %s: got %v in %v, want %v in %v", i, s.op, got, c.State(), s.want, s.state)
				}
			}
		})
	}
}

// drillBreaker builds a breaker at the fixed tunings (1s window in
// 125ms buckets, trip at 50% over at least minVolume requests, openFor
// dwell, probes half-open budget) and returns its start time, which the
// tests advance by hand.
func drillBreaker(tiles int) (*Breaker, time.Time) {
	b := newBreaker(tiles)
	return b, b.start
}

func TestBreakerTripHalfOpenReclose(t *testing.T) {
	b, now := drillBreaker(2)

	// Healthy traffic keeps the breaker closed.
	b.Observe(0, 100, 0, now)
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("healthy tile state = %v", got)
	}
	// A failure burst past minVolume and tripRate trips tile 1 only.
	b.Observe(1, minVolume, minVolume, now)
	if got := b.StateOf(1); got != StateOpen {
		t.Fatalf("faulted tile state = %v, want open", got)
	}
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("healthy tile tripped by tile 1: %v", got)
	}
	if !b.Routable(0, now) {
		t.Fatal("healthy tile not routable")
	}
	if b.Routable(1, now) {
		t.Fatal("open tile routable before dwell")
	}

	// Dwell expiry: the next Routable transitions to half-open and admits
	// probes up to the budget.
	now = now.Add(openFor)
	for i := 0; i < probes; i++ {
		if !b.Routable(1, now) {
			t.Fatalf("probe %d rejected within budget", i)
		}
		if got := b.StateOf(1); got != StateHalfOpen {
			t.Fatalf("state after dwell = %v, want half-open", got)
		}
		b.NoteRouted(1, 1, now)
	}
	if b.Routable(1, now) {
		t.Fatalf("probe budget (%d) not enforced", probes)
	}

	// Clean probes re-close; the window starts fresh.
	b.Observe(1, probes, 0, now)
	if got := b.StateOf(1); got != StateClosed {
		t.Fatalf("state after clean probes = %v, want closed", got)
	}
	st := b.TileStates(now)[1]
	if st.WindowRequests != 0 || st.WindowFailures != 0 {
		t.Fatalf("window not reset on close: %+v", st)
	}
	if st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now := drillBreaker(1)
	b.Observe(0, minVolume, minVolume, now)
	now = now.Add(openFor)
	if !b.Routable(0, now) {
		t.Fatal("did not half-open")
	}
	b.NoteRouted(0, 1, now)
	b.Observe(0, 1, 1, now) // failed probe
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The re-open restarts the dwell from the probe failure.
	if b.Routable(0, now.Add(openFor-time.Millisecond)) {
		t.Fatal("re-opened breaker routable before a fresh dwell")
	}
	if !b.Routable(0, now.Add(openFor)) {
		t.Fatal("re-opened breaker did not half-open after a fresh dwell")
	}
}

func TestBreakerMinVolume(t *testing.T) {
	b, now := drillBreaker(1)
	// A 100% failure rate under minVolume requests does not trip.
	b.Observe(0, minVolume-1, minVolume-1, now)
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("tripped under minVolume: %v", got)
	}
	b.Observe(0, 1, 1, now)
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("did not trip at minVolume: %v", got)
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b, now := drillBreaker(1)
	// Failures older than the window must not count toward a trip: with
	// them, the window below would hold minVolume+1 requests, over half
	// of them failed.
	b.Observe(0, minVolume-1, minVolume-1, now)
	now = now.Add(2 * window)
	b.Observe(0, 2, 1, now)
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("stale failures tripped the breaker: %v", got)
	}
	st := b.TileStates(now)[0]
	if st.WindowRequests != 2 || st.WindowFailures != 1 {
		t.Fatalf("window = %d/%d, want 2/1", st.WindowFailures, st.WindowRequests)
	}
}

func TestBreakerObserveBeforeStart(t *testing.T) {
	b, start := drillBreaker(1)
	// Times before the breaker was built land in its first bucket.
	b.Observe(0, minVolume-1, minVolume-1, start.Add(-15*time.Millisecond))
	b.Observe(0, 1, 1, start.Add(-25*time.Millisecond))
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("state after %d/%d failures = %v, want open", minVolume, minVolume, got)
	}
	st := b.TileStates(start)[0]
	if st.WindowRequests != minVolume || st.WindowFailures != minVolume {
		t.Fatalf("window = %d/%d, want %d/%d", st.WindowFailures, st.WindowRequests, minVolume, minVolume)
	}
}

func TestBreakerEvents(t *testing.T) {
	b, now := drillBreaker(1)
	b.Observe(0, minVolume, minVolume, now)
	now = now.Add(openFor)
	b.Routable(0, now)
	b.NoteRouted(0, probes, now)
	b.Observe(0, probes, 0, now)
	evs := b.Events()
	want := []string{"closed→open", "open→half-open", "half-open→closed"}
	if len(evs) != len(want) {
		t.Fatalf("events = %+v, want %d transitions", evs, len(want))
	}
	for i, ev := range evs {
		if got := ev.From + "→" + ev.To; got != want[i] {
			t.Errorf("event %d = %s, want %s", i, got, want[i])
		}
		if ev.Tile != 0 {
			t.Errorf("event %d tile = %d", i, ev.Tile)
		}
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := newCache(3 * (entryOverhead + 8)) // room for three 4+4-byte entries
	c.Put("s", 0, []byte("aaaa"), []byte("AAAA"), 1)
	c.Put("s", 0, []byte("bbbb"), []byte("BBBB"), 2)
	c.Put("s", 0, []byte("cccc"), []byte("CCCC"), 3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if resp, cycles, ok := c.Get("s", 0, []byte("aaaa")); !ok || string(resp) != "AAAA" || cycles != 1 {
		t.Fatalf("Get(aaaa) = (%q, %g, %v)", resp, cycles, ok)
	}
	// "aaaa" is now most recent; inserting a fourth entry evicts the LRU
	// entry "bbbb".
	c.Put("s", 0, []byte("dddd"), []byte("DDDD"), 4)
	if _, _, ok := c.Get("s", 0, []byte("bbbb")); ok {
		t.Fatal("LRU entry bbbb survived eviction")
	}
	for _, k := range []string{"aaaa", "cccc", "dddd"} {
		if _, _, ok := c.Get("s", 0, []byte(k)); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	lookups, hits, misses, inserts, evictions, _ := c.Stats()
	if inserts != 4 || evictions != 1 {
		t.Fatalf("inserts=%d evictions=%d, want 4/1", inserts, evictions)
	}
	if lookups != hits+misses {
		t.Fatalf("lookups=%d hits=%d misses=%d", lookups, hits, misses)
	}
}

func TestCacheKeyIncludesSchemaAndOp(t *testing.T) {
	c := newCache(1 << 20)
	c.Put("a", 0, []byte("pp"), []byte("deser-a"), 0)
	if _, _, ok := c.Get("b", 0, []byte("pp")); ok {
		t.Fatal("hit across schemas")
	}
	if _, _, ok := c.Get("a", 1, []byte("pp")); ok {
		t.Fatal("hit across ops")
	}
	if resp, _, ok := c.Get("a", 0, []byte("pp")); !ok || string(resp) != "deser-a" {
		t.Fatalf("exact-key lookup = (%q, %v)", resp, ok)
	}
}

func TestCacheCollisionVerification(t *testing.T) {
	c := newCache(1 << 20)
	c.Put("s", 0, []byte("real"), []byte("RESP"), 0)
	// FNV-1a collisions are impractical to fabricate, so exercise the
	// verification path white-box: plant an entry under the hash of a
	// *different* payload, then look that payload up. The hash matches,
	// the stored request bytes do not — the lookup must miss and count a
	// collision, never return the planted response.
	k := Key{Schema: "s", Op: 0, Hash: HashPayload([]byte("victim"))}
	c.entries[k] = c.lru.PushFront(&centry{key: k, request: []byte("real"), response: []byte("WRONG")})
	if resp, _, ok := c.Get("s", 0, []byte("victim")); ok {
		t.Fatalf("colliding lookup returned %q", resp)
	}
	_, _, _, _, _, collisions := c.Stats()
	if collisions != 1 {
		t.Fatalf("collisions = %d, want 1", collisions)
	}
}

func TestCacheOversizedEntryNotStored(t *testing.T) {
	c := newCache(64)
	big := make([]byte, 256)
	c.Put("s", 0, big, big, 0)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized entry cached: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestCacheSameKeyReplace(t *testing.T) {
	c := newCache(1 << 20)
	c.Put("s", 0, []byte("k"), []byte("v1"), 1)
	c.Put("s", 0, []byte("k"), []byte("v2"), 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if resp, cycles, ok := c.Get("s", 0, []byte("k")); !ok || string(resp) != "v2" || cycles != 2 {
		t.Fatalf("Get after replace = (%q, %g, %v)", resp, cycles, ok)
	}
	_, _, _, inserts, _, _ := c.Stats()
	if inserts != 1 {
		t.Fatalf("inserts = %d, want 1 (replace is not an insert)", inserts)
	}
}

func TestHashPayloadMatchesFNV1a(t *testing.T) {
	// Pinned reference values of 64-bit FNV-1a.
	cases := map[string]uint64{
		"":    14695981039346656037,
		"a":   0xaf63dc4c8601ec8c,
		"foo": 0xdcb27518fed9d577,
	}
	for in, want := range cases {
		if got := HashPayload([]byte(in)); got != want {
			t.Errorf("HashPayload(%q) = %#x, want %#x", in, got, want)
		}
	}
}
