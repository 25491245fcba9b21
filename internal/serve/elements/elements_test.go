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
	cfg := ch.Config()
	if cfg.FillRate != DefaultFillRate || cfg.Burst != 2*DefaultFillRate {
		t.Errorf("admission defaults: fill=%g burst=%g", cfg.FillRate, cfg.Burst)
	}
	if cfg.Window != DefaultWindow || cfg.TripRate != DefaultTripRate ||
		cfg.MinVolume != DefaultMinVolume || cfg.OpenFor != DefaultOpenFor || cfg.Probes != DefaultProbes {
		t.Errorf("breaker defaults: %+v", cfg)
	}
	if cfg.CacheBytes != DefaultCacheBytes {
		t.Errorf("cache default bytes = %d", cfg.CacheBytes)
	}
	if ch.Admission == nil || ch.Breaker == nil || ch.Cache == nil {
		t.Fatalf("all-on chain has nil element: %+v", ch)
	}
}

func TestAdmissionBurstThenThrottle(t *testing.T) {
	a := newAdmission(10, 3) // 10 tokens/s, burst 3
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
	a := newAdmission(10, 3)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		a.Allow("c", now)
	}
	if a.Allow("c", now) {
		t.Fatal("empty bucket allowed")
	}
	// 100ms refills one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if !a.Allow("c", now) {
		t.Fatal("refilled token not granted")
	}
	if a.Allow("c", now) {
		t.Fatal("second request on a single refilled token allowed")
	}
	// A long idle caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !a.Allow("c", now) {
			t.Fatalf("request %d within refilled burst throttled", i)
		}
	}
	if a.Allow("c", now) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestAdmissionClientsIndependent(t *testing.T) {
	a := newAdmission(10, 2)
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
	a := newAdmission(10, 2) // refill horizon = 200ms
	now := time.Unix(1000, 0)
	for i := 0; i < maxClients; i++ {
		a.Allow(fmt.Sprintf("c%d", i), now)
	}
	if a.Clients() != maxClients {
		t.Fatalf("Clients() = %d, want %d", a.Clients(), maxClients)
	}
	// All existing buckets have fully refilled; a new insert sweeps them.
	now = now.Add(time.Second)
	a.Allow("fresh", now)
	if n := a.Clients(); n != 1 {
		t.Fatalf("Clients() after sweep = %d, want 1", n)
	}
}

// Regression: sweepLocked computed the refill horizon as
// burst/fillRate*Second with no guard, so a zero, negative, or NaN fill
// rate produced an Inf/NaN float whose time.Duration conversion is
// implementation-defined (minInt64 on amd64 — a negative horizon that
// drops every bucket; a +Inf-as-maxInt64 horizon never sweeps any).
// Degenerate rates must be clamped at construction, and the sweep itself
// must stay sane even with a hand-corrupted rate.
func TestAdmissionSweepDegenerateRates(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, tc := range []struct {
		name             string
		fillRate, burst  float64
		wantRate, wantBt float64
	}{
		{"zero", 0, 0, DefaultFillRate, 2 * DefaultFillRate},
		{"negative", -5, -10, DefaultFillRate, 2 * DefaultFillRate},
		{"nan", math.NaN(), math.NaN(), DefaultFillRate, 2 * DefaultFillRate},
		{"inf", math.Inf(1), math.Inf(1), DefaultFillRate, 2 * DefaultFillRate},
		{"zero-burst", 10, math.NaN(), 10, 20},
	} {
		a := newAdmission(tc.fillRate, tc.burst)
		if a.FillRate() != tc.wantRate || a.Burst() != tc.wantBt {
			t.Errorf("%s: clamped to (rate=%v, burst=%v), want (%v, %v)",
				tc.name, a.FillRate(), a.Burst(), tc.wantRate, tc.wantBt)
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

	// Even if a degenerate rate reaches the sweep directly (bypassing the
	// construction clamp), the horizon falls back instead of going
	// negative or non-finite.
	a := newAdmission(10, 20)
	a.Allow("live", now)
	a.fillRate = 0 // burst/0 → +Inf
	a.sweepLocked(now)
	if a.Clients() != 1 {
		t.Fatalf("inf horizon sweep dropped a just-filled bucket (%d clients left)", a.Clients())
	}
	a.fillRate = math.NaN()
	a.sweepLocked(now)
	if a.Clients() != 1 {
		t.Fatalf("NaN horizon sweep dropped a just-filled bucket (%d clients left)", a.Clients())
	}
}

// The chain's config defaulting must be equally NaN-safe: `<= 0` is
// false for NaN, so a NaN FillRate used to pass straight through
// withDefaults into the admission element.
func TestConfigWithDefaultsNaNSafe(t *testing.T) {
	cfg := Config{Admission: true, FillRate: math.NaN(), Burst: math.Inf(1)}.withDefaults()
	if cfg.FillRate != DefaultFillRate || cfg.Burst != 2*DefaultFillRate {
		t.Fatalf("withDefaults kept degenerate rates: fill=%v burst=%v", cfg.FillRate, cfg.Burst)
	}
	ch := New(Config{Admission: true, FillRate: math.NaN()}, 1)
	if ch.Admission.FillRate() != DefaultFillRate {
		t.Fatalf("chain admission built with NaN fill rate: %v", ch.Admission.FillRate())
	}
	// A NaN or infinite trip rate must not turn the breaker off: a window
	// where every request failed still trips it.
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		if got := (Config{Breaker: true, TripRate: rate}).withDefaults().TripRate; got != DefaultTripRate {
			t.Errorf("withDefaults kept trip rate %v as %v", rate, got)
		}
		ch := New(Config{Breaker: true, TripRate: rate, MinVolume: 1}, 2)
		ch.Breaker.Observe(1, 100, 100, ch.Breaker.start)
		if got := ch.Breaker.StateOf(1); got != StateOpen {
			t.Errorf("trip rate %v: tile 1 is %v after 100 of 100 requests failed, want open", rate, got)
		}
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

// drillBreaker builds a breaker with a fast test config: 80ms window
// (10ms buckets), trip at 50% over ≥4 requests, 50ms open dwell, 2
// probes.
func drillBreaker(tiles int) (*Breaker, time.Time) {
	b := newBreaker(Config{
		Window: 80 * time.Millisecond, TripRate: 0.5, MinVolume: 4,
		OpenFor: 50 * time.Millisecond, Probes: 2,
	}.withDefaults(), tiles)
	return b, b.start
}

func TestBreakerTripHalfOpenReclose(t *testing.T) {
	b, now := drillBreaker(2)

	// Healthy traffic keeps the breaker closed.
	b.Observe(0, 100, 0, now)
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("healthy tile state = %v", got)
	}
	// A failure burst past MinVolume and TripRate trips tile 1 only.
	b.Observe(1, 8, 8, now)
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
	now = now.Add(60 * time.Millisecond)
	if !b.Routable(1, now) {
		t.Fatal("expired open tile did not half-open")
	}
	if got := b.StateOf(1); got != StateHalfOpen {
		t.Fatalf("state after dwell = %v, want half-open", got)
	}
	b.NoteRouted(1, 1, now)
	if !b.Routable(1, now) {
		t.Fatal("second probe rejected within budget")
	}
	b.NoteRouted(1, 1, now)
	if b.Routable(1, now) {
		t.Fatal("probe budget (2) not enforced")
	}

	// Two clean probes re-close; the window starts fresh.
	b.Observe(1, 2, 0, now)
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
	b.Observe(0, 8, 8, now)
	now = now.Add(60 * time.Millisecond)
	if !b.Routable(0, now) {
		t.Fatal("did not half-open")
	}
	b.NoteRouted(0, 1, now)
	b.Observe(0, 1, 1, now) // failed probe
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The re-open restarts the dwell from the probe failure.
	if b.Routable(0, now.Add(10*time.Millisecond)) {
		t.Fatal("re-opened breaker routable before a fresh dwell")
	}
	if !b.Routable(0, now.Add(60*time.Millisecond)) {
		t.Fatal("re-opened breaker did not half-open after a fresh dwell")
	}
}

func TestBreakerMinVolume(t *testing.T) {
	b, now := drillBreaker(1)
	// 3 failures out of 3 is a 100% failure rate but under MinVolume=4.
	b.Observe(0, 3, 3, now)
	if got := b.StateOf(0); got != StateClosed {
		t.Fatalf("tripped under MinVolume: %v", got)
	}
	b.Observe(0, 1, 1, now)
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("did not trip at MinVolume: %v", got)
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b, now := drillBreaker(1)
	// Failures older than the window must not count toward a trip.
	b.Observe(0, 3, 3, now)
	now = now.Add(200 * time.Millisecond) // well past the 80ms window
	b.Observe(0, 2, 1, now)               // 1/2 failures in-window: volume too low, rate met but stale failures gone
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
	b.Observe(0, 3, 3, start.Add(-15*time.Millisecond))
	b.Observe(0, 1, 1, start.Add(-25*time.Millisecond))
	if got := b.StateOf(0); got != StateOpen {
		t.Fatalf("state after 4/4 failures = %v, want open", got)
	}
	st := b.TileStates(start)[0]
	if st.WindowRequests != 4 || st.WindowFailures != 4 {
		t.Fatalf("window = %d/%d, want 4/4", st.WindowFailures, st.WindowRequests)
	}
}

func TestBreakerEvents(t *testing.T) {
	b, now := drillBreaker(1)
	b.Observe(0, 8, 8, now)
	now = now.Add(60 * time.Millisecond)
	b.Routable(0, now)
	b.NoteRouted(0, 2, now)
	b.Observe(0, 2, 0, now)
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
