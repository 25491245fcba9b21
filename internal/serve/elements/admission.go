package elements

import (
	"sync"
	"time"
)

// maxClients bounds the per-client bucket map. Past it, inserting a new
// client first sweeps buckets that have been idle long enough to have
// refilled completely — a full bucket holds no information, so dropping
// it cannot admit traffic a retained bucket would have throttled.
const maxClients = 4096

// bucket is one client's token bucket.
type bucket struct {
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
	clients  map[string]*bucket
	allowed  uint64
	throttle uint64
}

// newAdmission builds the element for a fill rate that Config.withDefaults
// has made positive and finite.
func newAdmission(fillRate float64) *Admission {
	return &Admission{
		fillRate: fillRate,
		burst:    burstSeconds * fillRate,
		clients:  make(map[string]*bucket),
	}
}

// FillRate returns the per-client sustained rate (requests/sec).
func (a *Admission) FillRate() float64 { return a.fillRate }

// Allow spends one token from client's bucket, reporting whether the
// request may proceed. New clients start with a full bucket.
func (a *Admission) Allow(client string, now time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.clients[client]
	if b == nil {
		if len(a.clients) >= maxClients {
			a.sweepLocked(now)
		}
		b = &bucket{tokens: a.burst, lastFill: now}
		a.clients[client] = b
	} else if dt := now.Sub(b.lastFill).Seconds(); dt > 0 {
		b.tokens += dt * a.fillRate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.lastFill = now
	}
	if b.tokens < 1 {
		a.throttle++
		return false
	}
	b.tokens--
	a.allowed++
	return true
}

// sweepLocked drops buckets idle long enough to have refilled to burst:
// burstSeconds, whatever the rate.
func (a *Admission) sweepLocked(now time.Time) {
	for client, b := range a.clients {
		if now.Sub(b.lastFill) > burstSeconds*time.Second {
			delete(a.clients, client)
		}
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
