package elements

import (
	"container/list"
	"sync"
	"time"
)

// maxClients bounds the per-client bucket map. At it, inserting a new
// client first drops the buckets idle long enough to have refilled
// completely — a full bucket holds no information, so dropping it cannot
// admit traffic a retained bucket would have throttled — and then, if
// the map is still full, the least recently filled bucket, whose client
// starts again from a full bucket.
const maxClients = 4096

// bucket is one client's token bucket.
type bucket struct {
	client   string
	tokens   float64
	lastFill time.Time
}

// Admission is the per-client token-bucket element. Each client identity
// (a TCP connection's remote address, or one in-process client) earns
// fillRate tokens per second up to burst, burstSeconds of that rate; a
// request spends one token, and a client with an empty bucket is
// throttled without the server spending a parse or a batch on it.
type Admission struct {
	fillRate float64
	burst    float64

	mu       sync.Mutex
	clients  map[string]*list.Element // -> *bucket
	byFill   list.List                // by lastFill, least recent at the front
	allowed  uint64
	throttle uint64
}

// newAdmission builds the element for a fill rate that Config.withDefaults
// has made positive and finite.
func newAdmission(fillRate float64) *Admission {
	return &Admission{
		fillRate: fillRate,
		burst:    burstSeconds * fillRate,
		clients:  make(map[string]*list.Element),
	}
}

// FillRate returns the per-client sustained rate (requests/sec).
func (a *Admission) FillRate() float64 { return a.fillRate }

// Allow spends one token from client's bucket, reporting whether the
// request may proceed. New clients start with a full bucket.
func (a *Admission) Allow(client string, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b *bucket
	if el := a.clients[client]; el == nil {
		if len(a.clients) >= maxClients {
			a.sweepLocked(now)
		}
		b = &bucket{client: client, tokens: a.burst, lastFill: now}
		el = a.byFill.PushBack(b)
		a.clients[client] = el
		a.placeLocked(el)
	} else if b = el.Value.(*bucket); now.After(b.lastFill) {
		b.tokens += now.Sub(b.lastFill).Seconds() * a.fillRate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.lastFill = now
		a.placeLocked(el)
	}
	if b.tokens < 1 {
		a.throttle++
		return false
	}
	b.tokens--
	a.allowed++
	return true
}

// placeLocked moves el, whose bucket was just filled, to its place in
// fill order: the back, unless a concurrent caller's clock read is older
// than a fill recorded since.
func (a *Admission) placeLocked(el *list.Element) {
	filled := el.Value.(*bucket).lastFill
	at := a.byFill.Back()
	for at != nil && (at == el || at.Value.(*bucket).lastFill.After(filled)) {
		at = at.Prev()
	}
	if at == nil {
		a.byFill.MoveToFront(el)
	} else {
		a.byFill.MoveAfter(el, at)
	}
}

// sweepLocked pops buckets off the front of the fill order while they
// have been idle long enough to have refilled to burst (burstSeconds,
// whatever the rate), then the front bucket itself while the map is
// still full. Each bucket is popped once, so an insert costs O(1)
// amortized.
func (a *Admission) sweepLocked(now time.Time) {
	for el := a.byFill.Front(); el != nil; el = a.byFill.Front() {
		b := el.Value.(*bucket)
		if now.Sub(b.lastFill) <= burstSeconds*time.Second && len(a.clients) < maxClients {
			return
		}
		a.byFill.Remove(el)
		delete(a.clients, b.client)
	}
}

// Clients returns the number of live client buckets (a gauge).
func (a *Admission) Clients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.clients)
}

// Totals returns the allowed/throttled decision counters.
func (a *Admission) Totals() (allowed, throttled uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allowed, a.throttle
}

// CollectTelemetry emits the serve/elements/admission/ counter group
// (structurally a telemetry.Collector).
func (a *Admission) CollectTelemetry(emit func(name string, value float64)) {
	allowed, throttled := a.Totals()
	emit("allowed", float64(allowed))
	emit("throttled", float64(throttled))
}
