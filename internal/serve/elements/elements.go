// Package elements is the daemon's composable data-plane element chain:
// per-request protections every request traverses before it reaches the
// tile router, modeled on the service-mesh element sets that front
// shared RPC accelerators (RPCAcc, PAPERS.md; the arpc echo elements in
// ROADMAP.md). Three elements ship:
//
//   - Admission: a token bucket per client connection. Clients pushing
//     past their fill rate are answered with a distinct throttled status
//     before the server spends a software parse or an accelerator batch
//     on them.
//   - Breaker: a circuit breaker per tile, driven by the same
//     fallback/retry/deadline events the serve/tile<i>/ counters record.
//     A tile whose recent failure rate crosses the trip threshold opens
//     (the router sends it no work; nothing else makes a tile
//     unroutable), dwells, then half-opens a bounded probe stream;
//     probe success re-closes it without operator action.
//   - Cache: a canonical-bytes response cache keyed on
//     (schema, op, payload FNV-1a) with bounded memory and LRU
//     eviction, so hot-key skewed traffic short-circuits the
//     accelerator entirely.
//
// Every element is byte-transparent for payloads with no unknown fields.
// Responses in this server are canonical codec.Marshal bytes, a function
// of (schema, op, payload) and, for a payload with unknown fields, of the
// path that answered it: an accelerated answer drops those fields and a
// degraded batch's software answer keeps them (ROADMAP.md item 1). The
// cache stores only accelerated answers, so a hit returns exactly the
// bytes a fresh accelerated execution would produce; a breaker reroute
// lands on a tile that produces the same bytes; and admission only ever
// substitutes a throttled status for work not done. The chaos tests
// assert the chain on/off response streams are bitwise identical over
// catalog payloads, which carry no unknown fields.
//
// The package deliberately depends on nothing in internal/serve (serve
// imports it): elements speak primitive types, and their
// CollectTelemetry methods structurally satisfy telemetry.Collector.
package elements

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Config selects the element chain and its one tuning. The zero value
// disables every element.
type Config struct {
	// Admission enables per-client token-bucket admission control.
	Admission bool
	// Breaker enables the per-tile circuit breaker.
	Breaker bool
	// Cache enables the canonical-bytes response cache.
	Cache bool

	// FillRate is each client's sustained admission rate in requests per
	// second (default 2000). A client's bucket holds burstSeconds of it.
	FillRate float64
}

// DefaultFillRate is the admission rate a zero FillRate selects.
const DefaultFillRate = 2000.0

// The chain's fixed tunings. Every workload and deployment runs these
// values, so none is a setting.
const (
	// burstSeconds sizes a client's bucket: it holds this many seconds
	// of its fill rate, so bursts up to that size pass even at zero
	// sustained budget.
	burstSeconds = 2

	// window is the breaker's rolling failure-rate window.
	window = time.Second
	// tripRate is the failure fraction over window that opens a closed
	// breaker. Failure events are fallback-completed requests, deadline
	// misses, and fault retries, so the ratio can exceed 1 on a badly
	// faulted tile.
	tripRate = 0.5
	// minVolume is the request volume in window below which tripRate is
	// not evaluated: a floor against tripping on tiny samples.
	minVolume = 16
	// openFor is how long an open breaker dwells before half-opening.
	openFor = 500 * time.Millisecond
	// probes is the half-open probe budget: at most this many requests
	// route to the tile while half-open; any observed failure re-opens,
	// this many observed successes re-close.
	probes = 8

	// cacheBytes bounds the cache's payload memory (request + response
	// bytes per entry); LRU entries evict past it.
	cacheBytes = 16 << 20
)

func (c Config) withDefaults() Config {
	// `!(x > 0)` instead of `x <= 0`: the comparison must also catch NaN,
	// which `<= 0` lets through into the admission refill arithmetic. An
	// infinite rate is rejected too; neither encodes as JSON, so either
	// would also empty /statusz.
	if !(c.FillRate > 0) || math.IsInf(c.FillRate, 0) {
		c.FillRate = DefaultFillRate
	}
	return c
}

// Any reports whether at least one element is enabled.
func (c Config) Any() bool { return c.Admission || c.Breaker || c.Cache }

// Names returns the enabled element names in chain order.
func (c Config) Names() []string {
	var out []string
	if c.Admission {
		out = append(out, "admission")
	}
	if c.Breaker {
		out = append(out, "breaker")
	}
	if c.Cache {
		out = append(out, "cache")
	}
	return out
}

// Spec renders the enable set back into -elements flag form.
func (c Config) Spec() string {
	if !c.Any() {
		return "off"
	}
	if c.Admission && c.Breaker && c.Cache {
		return "all"
	}
	return strings.Join(c.Names(), ",")
}

// ParseSpec parses a -elements flag value: "" or "off" disables the
// chain, "all" enables every element, otherwise a comma-separated subset
// of admission, breaker, cache. FillRate stays zero (the default).
func ParseSpec(spec string) (Config, error) {
	var c Config
	switch spec {
	case "", "off", "none":
		return c, nil
	case "all":
		c.Admission, c.Breaker, c.Cache = true, true, true
		return c, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if seen[name] {
			return c, fmt.Errorf("elements: duplicate element %q in spec %q", name, spec)
		}
		seen[name] = true
		switch name {
		case "admission":
			c.Admission = true
		case "breaker":
			c.Breaker = true
		case "cache":
			c.Cache = true
		default:
			return c, fmt.Errorf("elements: unknown element %q in spec %q (want admission, breaker, cache, all, or off)", name, spec)
		}
	}
	return c, nil
}

// Chain is a server's instantiated element set. Nil element pointers —
// and a nil Chain — mean that element is off; call sites guard on nil,
// so a chain-off server runs exactly the pre-chain code path.
type Chain struct {
	Admission *Admission
	Breaker   *Breaker
	Cache     *Cache

	cfg Config
}

// New builds the chain cfg selects for a server with the given tile
// count. Returns nil when no element is enabled.
func New(cfg Config, tiles int) *Chain {
	if !cfg.Any() {
		return nil
	}
	cfg = cfg.withDefaults()
	ch := &Chain{cfg: cfg}
	if cfg.Admission {
		ch.Admission = newAdmission(cfg.FillRate)
	}
	if cfg.Breaker {
		ch.Breaker = newBreaker(tiles)
	}
	if cfg.Cache {
		ch.Cache = newCache(cacheBytes)
	}
	return ch
}

// Config returns the (defaulted) configuration the chain was built with.
func (ch *Chain) Config() Config { return ch.cfg }

// Names returns the enabled element names in chain order; nil-safe.
func (ch *Chain) Names() []string {
	if ch == nil {
		return nil
	}
	return ch.cfg.Names()
}
