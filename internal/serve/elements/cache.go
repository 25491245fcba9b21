package elements

import (
	"bytes"
	"container/list"
	"sync"
)

// Key identifies one cacheable response: the schema, the operation, and
// the FNV-1a hash of the request payload. Hash collisions are handled by
// full-payload verification on lookup, never by trusting the hash.
type Key struct {
	Schema string
	Op     uint8
	Hash   uint64
}

// HashPayload is the cache's payload hash: 64-bit FNV-1a, inlined so the
// admission path pays no hash.Hash allocation.
func HashPayload(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// entryOverhead approximates the per-entry bookkeeping bytes (map slot,
// list element, header fields) charged against the byte budget on top of
// the stored payloads.
const entryOverhead = 96

// centry is one cached response.
type centry struct {
	key      Key
	request  []byte // full request payload, for collision verification
	response []byte
	cycles   float64
}

func (e *centry) size() int64 {
	return int64(len(e.request)) + int64(len(e.response)) + entryOverhead
}

// Cache is the canonical-bytes response cache element: bounded memory,
// LRU eviction, keyed on (schema, op, payload hash) with stored-payload
// verification. It stores only OK responses that did not fall back to
// software, and an accelerated answer is a function of the key material
// alone (a retried fault included), so a hit returns exactly the bytes
// a fresh accelerated run returns. There is no state a write could
// invalidate. Fallback answers are not stored: for a payload with
// unknown fields they can differ from the accelerated one.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[Key]*list.Element // -> *centry
	lru     list.List             // front = most recent
	bytes   int64

	lookups, hits, misses     uint64
	inserts, evicts, collides uint64
}

func newCache(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, entries: make(map[Key]*list.Element)}
}

// Get looks up the cached response for (schema, op, payload). A hash hit
// whose stored request payload differs byte-for-byte is a collision and
// reports a miss. The returned slice is shared — callers must not
// mutate it (the serving path only frames it onto the wire).
func (c *Cache) Get(schema string, op uint8, payload []byte) (resp []byte, cycles float64, ok bool) {
	k := Key{Schema: schema, Op: op, Hash: HashPayload(payload)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	el := c.entries[k]
	if el == nil {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*centry)
	if !bytes.Equal(e.request, payload) {
		c.collides++
		c.misses++
		return nil, 0, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.response, e.cycles, true
}

// Put stores a response for (schema, op, request). Both payloads are
// copied (the request buffer belongs to the connection reader, the
// response buffer to the executor). Entries larger than the whole
// budget are not cached.
func (c *Cache) Put(schema string, op uint8, request, response []byte, cycles float64) {
	e := &centry{
		key:      Key{Schema: schema, Op: op, Hash: HashPayload(request)},
		request:  append([]byte(nil), request...),
		response: append([]byte(nil), response...),
		cycles:   cycles,
	}
	if e.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[e.key]; el != nil {
		// Same key already cached (two concurrent fills, or a collision
		// overwrite): replace the value, keep the LRU position fresh.
		old := el.Value.(*centry)
		c.bytes += e.size() - old.size()
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.entries[e.key] = c.lru.PushFront(e)
		c.bytes += e.size()
		c.inserts++
	}
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*centry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.size()
		c.evicts++
	}
}

// Len returns the number of cached entries (a gauge).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the charged byte footprint (a gauge).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the lookup/mutation counters.
func (c *Cache) Stats() (lookups, hits, misses, inserts, evictions, collisions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookups, c.hits, c.misses, c.inserts, c.evicts, c.collides
}

// CollectTelemetry emits the serve/elements/cache/ counter group
// (structurally a telemetry.Collector).
func (c *Cache) CollectTelemetry(emit func(name string, value float64)) {
	lookups, hits, misses, inserts, evictions, collisions := c.Stats()
	emit("lookups", float64(lookups))
	emit("hits", float64(hits))
	emit("misses", float64(misses))
	emit("inserts", float64(inserts))
	emit("evictions", float64(evictions))
	emit("collisions", float64(collisions))
}
