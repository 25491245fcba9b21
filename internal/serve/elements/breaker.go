package elements

import (
	"sync"
	"time"
)

// State is a Circuit's position.
type State uint8

// Circuit states, the classic three-state machine: closed (traffic
// flows, failures are watched), open (the router avoids the target), and
// half-open (a bounded probe stream tests recovery).
const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Circuit is the closed/open/half-open recovery machine of one routing
// target: a tile behind the breaker, or a node of the cluster balancer.
// The owner decides when to trip it, on its own failure signal, and
// serializes access under its own lock; Circuit decides when the target
// may take traffic again. Open sits out Dwell, and the first routing
// query after that half-opens the target. Half-open admits Probes
// requests, and only requests actually sent (Routed) spend that budget:
// asking whether a target is routable spends none of it, and a request
// refunded after routing (shed, or too large to send) leaves its probe
// for the next.
type Circuit struct {
	Dwell  time.Duration // how long Open sits out before half-opening
	Probes int           // half-open budget; this many successes close

	state    State
	openedAt time.Time
	sent     int // half-open: probes sent
	passed   int // half-open: probes that succeeded
}

// State returns the circuit's position without transitioning it.
func (c *Circuit) State() State { return c.state }

// Routable reports whether a request may be sent to the target at now.
// An open circuit whose dwell has elapsed half-opens here, which
// halfOpened reports; a half-open one stays routable, however often it
// is asked, until Routed has spent its budget.
func (c *Circuit) Routable(now time.Time) (ok, halfOpened bool) {
	switch c.state {
	case StateClosed:
		return true, false
	case StateOpen:
		if now.Sub(c.openedAt) < c.Dwell {
			return false, false
		}
		c.state, c.sent, c.passed = StateHalfOpen, 0, 0
		return true, true
	default: // StateHalfOpen
		return c.sent < c.Probes, false
	}
}

// Routed records n requests sent to the target and returns how many of
// them were probes: only a half-open circuit spends its budget. A
// negative n refunds requests routed but refused before being sent.
func (c *Circuit) Routed(n int) (probes int) {
	if c.state != StateHalfOpen {
		return 0
	}
	c.sent += n
	return n
}

// Open trips the circuit at now, from closed or, on a failed probe, from
// half-open; either way the dwell starts over.
func (c *Circuit) Open(now time.Time) {
	c.state, c.openedAt = StateOpen, now
}

// Passed records n successful requests and reports whether they closed
// the circuit, which a half-open one does once Probes have passed.
func (c *Circuit) Passed(n int) (closed bool) {
	if c.state != StateHalfOpen {
		return false
	}
	c.passed += n
	if c.passed < c.Probes {
		return false
	}
	c.state = StateClosed
	return true
}

// Close restores the target without a probe, on evidence from outside
// the data path, and reports whether it was not closed already.
func (c *Circuit) Close() bool {
	was := c.state
	c.state = StateClosed
	return was != StateClosed
}

// windowBuckets is the rolling window's resolution: failure rates are
// evaluated over the last window bucketed this finely, so a trip
// decision lags a failure burst by at most one bucketDur.
const (
	windowBuckets = 8
	bucketDur     = window / windowBuckets
)

// eventRingCap bounds the transition-event timeline kept for /statusz;
// past it the ring overwrites oldest-first.
const eventRingCap = 128

// Event is one breaker state transition, kept for the /statusz timeline.
type Event struct {
	Tile      int     `json:"tile"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	AtSeconds float64 `json:"at_s"` // offset since server start
}

// brTile is one tile's breaker state.
type brTile struct {
	c Circuit

	// Rolling failure window: slot i holds the counts of epoch epochs[i];
	// slots whose epoch has rotated out of the window are ignored (and
	// reset on reuse).
	reqs   [windowBuckets]uint64
	fails  [windowBuckets]uint64
	epochs [windowBuckets]int64

	trips    uint64 // closed→open transitions (reopens excluded)
	lastTrip time.Time
}

// Breaker is the per-tile circuit-breaker element. The router asks
// Routable before placing work and NoteRouted after; the tiles feed
// Observe with per-batch (requests, failures) outcomes — failures being
// fallback-completed requests, deadline misses, and fault retries, the
// same events the serve/tile<i>/ counters record.
type Breaker struct {
	start time.Time

	mu     sync.Mutex
	tiles  []*brTile
	events []Event
	evNext int

	trips, reopens, closes, halfOpens uint64
	probes, reroutes                  uint64
}

func newBreaker(tiles int) *Breaker {
	b := &Breaker{start: time.Now()}
	for i := 0; i < max(1, tiles); i++ {
		b.tiles = append(b.tiles, &brTile{c: Circuit{Dwell: openFor, Probes: probes}})
	}
	return b
}

// epochAt maps a wall time onto the rolling window's bucket epoch. A
// time before the breaker was built counts as epoch 0, so the ring index
// epoch % windowBuckets never goes negative.
func (b *Breaker) epochAt(now time.Time) int64 {
	return max(0, int64(now.Sub(b.start)/bucketDur))
}

// record appends a transition event to the bounded timeline ring.
// Callers hold b.mu.
func (b *Breaker) record(tile int, from, to State, now time.Time) {
	ev := Event{Tile: tile, From: from.String(), To: to.String(), AtSeconds: now.Sub(b.start).Seconds()}
	if len(b.events) < eventRingCap {
		b.events = append(b.events, ev)
	} else {
		b.events[b.evNext] = ev
	}
	b.evNext = (b.evNext + 1) % eventRingCap
}

// Routable reports whether the router may place new work on tile; see
// Circuit.Routable. Routing pressure is what drives recovery probing.
func (b *Breaker) Routable(tile int, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	ok, halfOpened := b.tiles[tile].c.Routable(now)
	if halfOpened {
		b.halfOpens++
		b.record(tile, StateOpen, StateHalfOpen, now)
	}
	return ok
}

// NoteRouted records that n requests were just placed on tile; while
// half-open they consume the probe budget. A negative n gives back
// requests that were routed but refused before they were sent (see
// Circuit.Routed); the probes counter falls by as many, through uint64
// wraparound.
func (b *Breaker) NoteRouted(tile, n int, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probes += uint64(b.tiles[tile].c.Routed(n))
}

// NoteReroute counts requests the router steered away from their
// preferred tile because its breaker was not routable.
func (b *Breaker) NoteReroute(n int) {
	b.mu.Lock()
	b.reroutes += uint64(n)
	b.mu.Unlock()
}

// Observe feeds one batch outcome on tile into the breaker: reqs
// requests completed, fails of which were failure events. Closed
// breakers evaluate the trip condition; half-open breakers grade the
// probe stream (any failure re-opens, probes successes re-close).
func (b *Breaker) Observe(tile int, reqs, fails uint64, now time.Time) {
	if reqs == 0 && fails == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tiles[tile]
	epoch := b.epochAt(now)
	slot := int(epoch % windowBuckets)
	if t.epochs[slot] != epoch {
		t.epochs[slot] = epoch
		t.reqs[slot], t.fails[slot] = 0, 0
	}
	t.reqs[slot] += reqs
	t.fails[slot] += fails

	switch t.c.State() {
	case StateClosed:
		var wr, wf uint64
		for i := 0; i < windowBuckets; i++ {
			if t.epochs[i] > epoch-windowBuckets {
				wr += t.reqs[i]
				wf += t.fails[i]
			}
		}
		if wr >= minVolume && float64(wf) >= tripRate*float64(wr) {
			t.c.Open(now)
			t.lastTrip = now
			t.trips++
			b.trips++
			b.record(tile, StateClosed, StateOpen, now)
		}
	case StateHalfOpen:
		if fails > 0 {
			t.c.Open(now)
			b.reopens++
			b.record(tile, StateHalfOpen, StateOpen, now)
			return
		}
		if t.c.Passed(int(reqs)) {
			// A fresh closed window: the failures that tripped the breaker
			// predate recovery and must not re-trip it instantly.
			for i := 0; i < windowBuckets; i++ {
				t.reqs[i], t.fails[i], t.epochs[i] = 0, 0, -1
			}
			b.closes++
			b.record(tile, StateHalfOpen, StateClosed, now)
		}
	}
}

// StateOf returns tile's current state without transitioning it —
// the read-only view /healthz, /statusz, and the gauges use (an expired
// open dwell still reads "open" until routing pressure probes it).
func (b *Breaker) StateOf(tile int) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tiles[tile].c.State()
}

// TileBreaker is one tile's breaker summary for /healthz and /statusz.
type TileBreaker struct {
	Tile           int     `json:"tile"`
	State          string  `json:"state"`
	Trips          uint64  `json:"trips"`
	LastTripS      float64 `json:"last_trip_s,omitempty"` // offset since server start; 0 = never tripped
	WindowRequests uint64  `json:"window_requests"`
	WindowFailures uint64  `json:"window_failures"`
}

// TileStates returns every tile's breaker summary, window counts
// evaluated at now.
func (b *Breaker) TileStates(now time.Time) []TileBreaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	epoch := b.epochAt(now)
	out := make([]TileBreaker, len(b.tiles))
	for i, t := range b.tiles {
		s := TileBreaker{Tile: i, State: t.c.State().String(), Trips: t.trips}
		if !t.lastTrip.IsZero() {
			s.LastTripS = t.lastTrip.Sub(b.start).Seconds()
		}
		for j := 0; j < windowBuckets; j++ {
			if t.epochs[j] > epoch-windowBuckets {
				s.WindowRequests += t.reqs[j]
				s.WindowFailures += t.fails[j]
			}
		}
		out[i] = s
	}
	return out
}

// Events returns the transition timeline, oldest first.
func (b *Breaker) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.events))
	if len(b.events) == eventRingCap {
		out = append(out, b.events[b.evNext:]...)
		out = append(out, b.events[:b.evNext]...)
		return out
	}
	return append(out, b.events...)
}

// CollectTelemetry emits the serve/elements/breaker/ counter group
// (structurally a telemetry.Collector).
func (b *Breaker) CollectTelemetry(emit func(name string, value float64)) {
	b.mu.Lock()
	trips, reopens, closes, halfOpens := b.trips, b.reopens, b.closes, b.halfOpens
	probes, reroutes := b.probes, b.reroutes
	b.mu.Unlock()
	emit("trips", float64(trips))
	emit("reopens", float64(reopens))
	emit("closes", float64(closes))
	emit("half_opens", float64(halfOpens))
	emit("probes", float64(probes))
	emit("reroutes", float64(reroutes))
}
