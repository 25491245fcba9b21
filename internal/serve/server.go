package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protoacc/internal/core"
	"protoacc/internal/faults"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/serve/elements"
	"protoacc/internal/telemetry"
)

// Pick is the one placement rule behind both routing levels: jobs onto
// tiles (Server.pick) and requests onto cluster nodes
// (cluster.Balancer). It is round-robin over n candidates: it advances
// seq, the caller's routing sequence, once per call, and its own choice
// is the sequence's previous value mod n. It takes the first candidate
// at or after that choice which routable admits; when none is routable
// its own choice serves anyway, as a pool that is all down must
// degrade to "try", not "refuse". rerouted reports that routability
// moved the pick off that choice. With one candidate Pick returns 0
// without advancing seq or querying it.
func Pick(n int, seq *atomic.Uint64, routable func(int) bool) (pick int, rerouted bool) {
	if n == 1 {
		return 0, false
	}
	s, un := seq.Add(1)-1, uint64(n)
	own := int(s % un)
	for off := uint64(0); off < un; off++ {
		if c := int((s + off) % un); routable(c) {
			return c, c != own
		}
	}
	return own, false
}

// Options configures a Server. The zero value of any field selects the
// default noted on it.
type Options struct {
	// Catalog of hosted schemas; nil selects DefaultCatalog.
	Catalog *Catalog

	// Tiles is the number of independent accelerator tiles — each with
	// its own System pool, admission queue, dispatcher, and executors —
	// behind the round-robin router (default 1).
	Tiles int

	// FaultTiles restricts the fault-injection schedule to the listed
	// tile ids; nil applies Faults to every tile. The chaos tests use
	// this to show a poisoned tile degrading alone.
	FaultTiles []int

	// MaxBatch caps requests folded into one accelerator batch (default 16).
	MaxBatch int

	// BatchWindow is the longest a tile's dispatcher holds an under-full
	// batch open waiting for coalescing partners (default 200µs). It is
	// also the sparse threshold: a (schema, op) key with no arrival gap
	// yet, or whose recent arrivals are on average further apart than
	// the window, has its batch flushed as soon as the tile's admission
	// queue is empty.
	BatchWindow time.Duration

	// QueueDepth bounds each tile's admission queue; requests routed to a
	// full tile are shed (default 1024).
	QueueDepth int

	// Workers is the total number of concurrent batch executors, divided
	// evenly across tiles with a floor of one per tile (default
	// GOMAXPROCS).
	Workers int

	// MaxPayload bounds a request payload in bytes (default 64KiB).
	MaxPayload int

	// Deadline is the default per-request budget when Request.Timeout is
	// zero (default 1s).
	Deadline time.Duration

	// SpanSampleN samples every N'th admitted request with a lifecycle
	// span (admit → route → queue → coalesce → dispatch → execute →
	// respond, annotated with tile id, batch size, and retry/fallback
	// events), buffered for the admin /spans endpoint and the Perfetto
	// exporters. 0 (default) disables span sampling.
	SpanSampleN int

	// Elements selects and tunes the data-plane element chain every
	// request traverses before the tile router: per-client token-bucket
	// admission, a per-tile circuit breaker, and a canonical-bytes
	// response cache. The zero value disables the chain entirely — the
	// pre-chain code path, byte for byte.
	Elements elements.Config

	// Faults selects a deterministic fault-injection schedule for the
	// accelerator Systems (the chaos tests drive this).
	Faults faults.Config

	// fresh builds a new System per batch instead of recycling through
	// the tile pools — the reference arm of the pooled-vs-fresh
	// equivalence test.
	fresh bool
}

func (o Options) withDefaults() Options {
	if o.Catalog == nil {
		o.Catalog = DefaultCatalog()
	}
	if o.Tiles <= 0 {
		o.Tiles = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 200 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxPayload <= 0 {
		o.MaxPayload = 64 << 10
	}
	if o.Deadline <= 0 {
		o.Deadline = time.Second
	}
	return o
}

// tileWorkers is each tile's executor count: Workers divided evenly
// across Tiles, rounded up, with a floor of one.
func (o Options) tileWorkers() int {
	return max(1, (o.Workers+o.Tiles-1)/o.Tiles)
}

// serveConfig sizes the accelerated System a batch executor runs on. The
// shape mirrors the chaos harness's sizing: wire inputs and materialized
// objects share Static, and heap, arena, and serializer output must each
// hold a worst-case batch (MaxBatch × MaxPayload).
func serveConfig(o Options) core.Config {
	cfg := core.DefaultConfig(core.KindAccel)
	cfg.Faults = o.Faults
	const floor = 16 << 20
	const quantum = 1 << 20
	need := uint64(o.MaxBatch) * uint64(o.MaxPayload)
	q := (need + quantum - 1) &^ (quantum - 1)
	cfg.StaticSize = q*5 + floor
	cfg.HeapSize = q*4 + floor
	cfg.ArenaSize = q*4 + floor
	cfg.OutSize = q + floor
	return cfg
}

// batchKey groups coalescible requests: one accelerator batch holds one
// operation over one schema.
type batchKey struct {
	schema string
	op     Op
}

// pending is an admitted request waiting for (or inside) a batch.
type pending struct {
	req       Request
	entry     *Entry
	msg       *dynamic.Message // payload parsed by the software codec at admission
	deadline  time.Time
	fromCache bool          // answered from the response cache; respond must not re-fill
	resp      chan Response // in-process clients: buffered(1), receives exactly one Response
	out       *connWriter   // TCP clients: respond frames the response onto this connection instead

	// Observability-only fields; nothing on the serving path branches on
	// them, so they cannot perturb responses or counters.
	admitAt    time.Time // admission entry (e2e histogram origin)
	enqueuedAt time.Time // admission end / queue entry (queue-wait origin)
	joinedAt   time.Time // dispatcher pickup (coalesce-wait origin)
	span       *Span     // non-nil on sampled requests
}

// batchJob is one unit on a tile's admission queue: a single admitted
// request, or a preformed batch (the in-process client's DoBatch) that
// must run as one accelerator batch regardless of what else is in flight.
type batchJob struct {
	key       batchKey
	pendings  []*pending
	preformed bool
}

// Server is the sharded serving frontend: it validates and admits
// requests, routes each admitted job to one of its tiles, and owns the
// admission-side counters. Execution — batching, pooled Systems,
// degradation — belongs to the tiles.
type Server struct {
	opts  Options
	cfg   core.Config     // base System config (per-tile configs derive from it)
	obs   *serverObs      // live observability plane (stage histograms, gauges, spans)
	elems *elements.Chain // data-plane element chain; nil when every element is off

	tiles     []*tile
	routeSeq  atomic.Uint64 // round-robin cursor over the tiles
	inprocSeq atomic.Uint64 // in-process client identities for admission control

	admitMu sync.RWMutex
	closed  bool

	connMu    sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*connWriter

	// writeTimeout is the write deadline of each flush to a client
	// connection (serverWriteTimeout; tests shorten it).
	writeTimeout time.Duration

	// The admission-side counters, added atomically so no request takes a
	// server-wide lock to count. All are integral-valued, so the order
	// concurrent requests add in cannot perturb the totals — a serial run
	// and a parallel run of the same batches snapshot identically.
	reqDeser, reqSer  atomic.Uint64
	responses         [numStatuses]atomic.Uint64 // by Status
	bytesIn, bytesOut atomic.Uint64
	protoErrs         atomic.Uint64 // malformed frames/bodies that terminated a connection
}

// NewServer builds and starts a Server: one router plus Options.Tiles
// tiles, each with its own dispatcher and executor pool.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	for _, id := range opts.FaultTiles {
		if id < 0 || id >= opts.Tiles {
			return nil, fmt.Errorf("serve: FaultTiles entry %d out of range [0,%d)", id, opts.Tiles)
		}
	}
	s := &Server{
		opts:         opts,
		cfg:          serveConfig(opts),
		obs:          newServerObs(opts),
		elems:        elements.New(opts.Elements, opts.Tiles),
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[net.Conn]*connWriter),
		writeTimeout: serverWriteTimeout,
	}
	for i := 0; i < opts.Tiles; i++ {
		s.tiles = append(s.tiles, newTile(s, i))
	}
	s.obs.registerGauges(s)
	return s, nil
}

// Catalog returns the hosted catalog.
func (s *Server) Catalog() *Catalog { return s.opts.Catalog }

// Workers returns the total number of batch executors across tiles (for
// stats manifests).
func (s *Server) Workers() int {
	return s.opts.tileWorkers() * s.opts.Tiles
}

// Tiles returns the number of tiles.
func (s *Server) Tiles() int { return len(s.tiles) }

// Elements returns the server's data-plane element chain; nil when the
// chain is off.
func (s *Server) Elements() *elements.Chain { return s.elems }

// breaker returns the circuit-breaker element, nil when off.
func (s *Server) breaker() *elements.Breaker {
	if s.elems == nil {
		return nil
	}
	return s.elems.Breaker
}

// cache returns the response-cache element, nil when off.
func (s *Server) cache() *elements.Cache {
	if s.elems == nil {
		return nil
	}
	return s.elems.Cache
}

// SetTileFaults replaces tile id's fault-injection schedule at runtime —
// the control the chaos drills and the /faultz admin endpoint use to
// start or stop injection on a live tile and watch the breaker trip and
// recover. The tile's pool needs no flush: it keys on the full config,
// so a checkout under the new schedule can never return an old-schedule
// System.
func (s *Server) SetTileFaults(id int, cfg faults.Config) error {
	if id < 0 || id >= len(s.tiles) {
		return fmt.Errorf("serve: tile %d out of range [0,%d)", id, len(s.tiles))
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	t := s.tiles[id]
	t.cfgMu.Lock()
	t.cfg.Faults = cfg
	t.cfgMu.Unlock()
	return nil
}

// TileFaults returns tile id's current fault schedule (zero Config for
// an out-of-range id).
func (s *Server) TileFaults(id int) faults.Config {
	if id < 0 || id >= len(s.tiles) {
		return faults.Config{}
	}
	t := s.tiles[id]
	t.cfgMu.RLock()
	defer t.cfgMu.RUnlock()
	return t.cfg.Faults
}

// TilePoolCounters returns each tile's pool recycling counters, indexed
// by tile id (for shutdown summaries and pool introspection).
func (s *Server) TilePoolCounters() []core.PoolCounters {
	out := make([]core.PoolCounters, len(s.tiles))
	for i, t := range s.tiles {
		out[i] = t.pool.Counters()
	}
	return out
}

// ConfigFingerprint hashes the System configuration batches run on,
// identifying the simulated-hardware parameter set behind a stats
// artifact (same role as the bench harness's fingerprint).
func (s *Server) ConfigFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", s.cfg)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pick routes one job to a tile round-robin through Pick. With
// the breaker element on, a tile whose breaker is not routable is
// skipped and the reroute is counted; nothing else makes a tile
// unroutable, so a fault-injected tile keeps its share. With every
// breaker closed, and always with the chain off, placement is a pure
// function of the job sequence, which is what keeps the 1-tile vs
// N-tile determinism contract intact.
func (s *Server) pick() *tile {
	br := s.breaker()
	i, rerouted := Pick(len(s.tiles), &s.routeSeq,
		func(i int) bool { return br == nil || br.Routable(i, time.Now()) })
	if rerouted {
		br.NoteReroute(1)
	}
	return s.tiles[i]
}

// enqueue routes one job; false means the chosen tile's queue was full.
// Callers must hold admitMu (read) with s.closed checked, so the tile
// queues cannot close mid-send.
func (s *Server) enqueue(job batchJob) bool {
	t := s.pick()
	br := s.breaker()
	if br != nil {
		br.NoteRouted(t.id, len(job.pendings), time.Now())
	}
	for _, p := range job.pendings {
		if p.span != nil {
			p.span.Tile = t.id
			p.span.EnqueueAt = s.obs.since()
		}
	}
	select {
	case t.queue <- job:
		return true
	default:
		// A shed job never runs, so no outcome will grade it: give back
		// the half-open probes it took, or the tile stays unroutable.
		if br != nil {
			br.NoteRouted(t.id, -len(job.pendings), time.Now())
		}
		return false
	}
}

// submit admits one request on behalf of client. Its one Response goes
// to out when that is set, else to the returned channel; rejected
// requests (shed, throttled, bad) and cache hits are answered without
// queueing.
func (s *Server) submit(client string, req Request, out *connWriter) <-chan Response {
	p, ok := s.admit(client, req, out)
	if !ok {
		return p.resp
	}
	job := batchJob{key: batchKey{schema: req.Schema, op: req.Op}, pendings: []*pending{p}}
	s.admitMu.RLock()
	if s.closed {
		s.admitMu.RUnlock()
		s.respond(p, Response{Status: StatusShed, Payload: []byte("server closing")})
		return p.resp
	}
	if !s.enqueue(job) {
		s.respond(p, Response{Status: StatusShed, Payload: []byte("admission queue full")})
	}
	s.admitMu.RUnlock()
	return p.resp
}

// submitPreformed admits a batch that must execute as one accelerator
// batch. All requests must share a schema and op and the batch must fit
// MaxBatch; every pending is answered through its own channel.
func (s *Server) submitPreformed(pendings []*pending, key batchKey) {
	job := batchJob{key: key, pendings: pendings, preformed: true}
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closed {
		for _, p := range pendings {
			s.respond(p, Response{Status: StatusShed, Payload: []byte("server closing")})
		}
		return
	}
	if !s.enqueue(job) {
		for _, p := range pendings {
			s.respond(p, Response{Status: StatusShed, Payload: []byte("admission queue full")})
		}
	}
}

// admit validates a request from client and runs the element chain's
// admission-side stages. ok means the pending is ready to queue; on
// validation failure, throttle, or a cache hit the pending has already
// been answered. A nil out answers through the pending's channel.
func (s *Server) admit(client string, req Request, out *connWriter) (p *pending, ok bool) {
	p = &pending{req: req, out: out, admitAt: time.Now()}
	if out == nil {
		p.resp = make(chan Response, 1)
	}
	if sp := s.obs.maybeSpan(); sp != nil {
		sp.Schema, sp.Op = req.Schema, req.Op
		p.span = sp
	}
	if req.Op == OpSerialize {
		s.reqSer.Add(1)
	} else {
		s.reqDeser.Add(1)
	}
	s.bytesIn.Add(uint64(len(req.Payload)))

	if req.Op != OpDeserialize && req.Op != OpSerialize {
		s.respond(p, Response{Status: StatusBadRequest, Payload: []byte(fmt.Sprintf("unknown op %d", req.Op))})
		return p, false
	}
	entry := s.opts.Catalog.Lookup(req.Schema)
	if entry == nil {
		s.respond(p, Response{Status: StatusBadRequest, Payload: []byte("unknown schema " + req.Schema)})
		return p, false
	}
	if len(req.Payload) > s.opts.MaxPayload {
		s.respond(p, Response{Status: StatusBadRequest,
			Payload: []byte(fmt.Sprintf("payload %d bytes exceeds limit %d", len(req.Payload), s.opts.MaxPayload))})
		return p, false
	}
	// Element chain, admission side. Admission control runs before the
	// software parse so an over-rate client cannot buy CPU with rejected
	// requests; the cache runs next, because a hit skips both the parse
	// and the accelerator — a hit implies a previously-served identical
	// payload, so well-formedness is already established.
	if s.elems != nil {
		if a := s.elems.Admission; a != nil && !a.Allow(client, p.admitAt) {
			s.respond(p, Response{Status: StatusThrottled, Payload: []byte("client over admission rate")})
			return p, false
		}
		if c := s.elems.Cache; c != nil {
			if out, cycles, hit := c.Get(req.Schema, uint8(req.Op), req.Payload); hit {
				p.fromCache = true
				s.respond(p, Response{Status: StatusOK, Cycles: cycles, Payload: out})
				return p, false
			}
		}
	}
	// Both operations take wire bytes; parsing them with the software codec
	// up front rejects malformed payloads before they reach the accelerator
	// and keeps the software answer at hand for graceful degradation.
	msg, err := codec.Unmarshal(entry.Type, req.Payload)
	if err != nil {
		s.respond(p, Response{Status: StatusBadRequest, Payload: []byte("malformed payload: " + err.Error())})
		return p, false
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.Deadline
	}
	p.entry = entry
	p.msg = msg
	now := time.Now()
	p.deadline = now.Add(timeout)
	p.enqueuedAt = now
	return p, true
}

// respond answers a pending exactly once and records the outcome. This
// is also where the response cache fills: only clean accelerator-path OK
// responses are stored (no fallbacks — a fallback marks a degraded tile,
// and caching under degradation would mask it; a degraded answer also
// keeps a payload's unknown fields, which the accelerator path drops,
// ROADMAP.md item 1), and never re-stored from a cache hit.
func (s *Server) respond(p *pending, resp Response) {
	resp.ID = p.req.ID
	if resp.Status == StatusOK && !resp.FellBack && !p.fromCache {
		if c := s.cache(); c != nil {
			c.Put(p.req.Schema, uint8(p.req.Op), p.req.Payload, resp.Payload, resp.Cycles)
		}
	}
	if p.out != nil {
		// Framed before it is counted: a TCP response counted under
		// serve/responses already sits in its connection's buffer.
		p.out.send(&resp)
	}
	s.responses[resp.Status].Add(1)
	if resp.Status == StatusOK {
		s.bytesOut.Add(uint64(len(resp.Payload)))
	}
	s.obs.e2e.Record(time.Since(p.admitAt))
	if sp := p.span; sp != nil {
		sp.DoneAt = s.obs.since()
		sp.Status = resp.Status
		if resp.FellBack {
			sp.FellBack = true
		}
		s.obs.finish(sp)
	}
	if p.out == nil {
		p.resp <- resp
	}
}

// CollectTelemetry implements telemetry.Collector for the server's own
// serve/ counters: admission and transport counts and span provenance.
// The tiles' execution counters reach serve/ through TelemetrySnapshot,
// which registers every tile there as well as under serve/tile<i>/, so
// the registry forms their cross-tile totals.
func (s *Server) CollectTelemetry(emit func(name string, value float64)) {
	emit("requests/deser", float64(s.reqDeser.Load()))
	emit("requests/ser", float64(s.reqSer.Load()))
	for st := range s.responses {
		emit("responses/"+Status(st).String(), float64(s.responses[st].Load()))
	}
	emit("bytes/in", float64(s.bytesIn.Load()))
	emit("bytes/out", float64(s.bytesOut.Load()))
	emit("protocol/errors", float64(s.protoErrs.Load()))
	// Span-sampling provenance: how many requests carried a lifecycle
	// span, how many spans completed, and how many the bounded ring
	// overwrote. All zero with SpanSampleN=0, so the pre-existing
	// equivalence contracts are unchanged at their default configuration;
	// with sampling on, the counts are a pure function of the admitted
	// request sequence.
	sampled, completed, dropped := s.obs.spanCounters()
	emit("spans/sampled", float64(sampled))
	emit("spans/completed", float64(completed))
	emit("spans/dropped", float64(dropped))
}

// TelemetrySnapshot merges the serving group, one serve/tile<i> group per
// tile, and the per-batch System counters aggregated across every tile,
// sorted by name. Each tile registers under serve/ too, in tile order, so
// the aggregation sums the tiles' execution counters into the serve/
// totals (the float cycles/* totals in a fixed order). At quiescence (no
// requests in flight) the result is deterministic for a given request set
// — the basis of the serial-vs-parallel equivalence tests — and the
// serve/ aggregate is bitwise-identical between a 1-tile and an N-tile
// server.
func (s *Server) TelemetrySnapshot() telemetry.Snapshot {
	var reg telemetry.Registry
	reg.Register("serve", s)
	for _, t := range s.tiles {
		reg.Register(fmt.Sprintf("serve/tile%d", t.id), t)
		reg.Register("serve", t)
	}
	// Element groups register only when their element is on, so a
	// chain-off snapshot is byte-identical to the pre-chain server's.
	if s.elems != nil {
		if a := s.elems.Admission; a != nil {
			reg.Register("serve/elements/admission", a)
		}
		if b := s.elems.Breaker; b != nil {
			reg.Register("serve/elements/breaker", b)
		}
		if c := s.elems.Cache; c != nil {
			reg.Register("serve/elements/cache", c)
		}
	}
	var agg telemetry.Aggregate
	agg.Add(reg.Snapshot())
	// Tiles add System counters in batch-completion order, which is
	// scheduling-dependent — but every counter is integral-valued, so the
	// cross-tile sum is exact and order cannot perturb it.
	for _, t := range s.tiles {
		t.mu.Lock()
		agg.Add(t.sysSum.Snapshot())
		t.mu.Unlock()
	}
	return agg.Snapshot()
}

// AggregatedCounters returns the quiescent snapshot with the per-tile
// serve/tile<i>/ groups stripped — the tile-count-independent view the
// 1-tile-vs-N-tile equivalence tests compare.
func (s *Server) AggregatedCounters() map[string]float64 {
	snap := s.TelemetrySnapshot()
	out := make(map[string]float64, snap.Len())
	for _, sm := range snap.Samples() {
		if !isTileCounter(sm.Name) {
			out[sm.Name] = sm.Value
		}
	}
	return out
}

// isTileCounter reports whether name belongs to a serve/tile<i>/ group.
func isTileCounter(name string) bool {
	const prefix = "serve/tile"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	rest := name[len(prefix):]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	return i > 0 && i < len(rest) && rest[i] == '/'
}

// Serve accepts connections on ln until the listener closes (Close closes
// every registered listener). Each connection may pipeline requests;
// responses return in completion order, matched by id.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.listeners[ln] = struct{}{}
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			delete(s.listeners, ln)
			s.connMu.Unlock()
			s.admitMu.RLock()
			closed := s.closed
			s.admitMu.RUnlock()
			if closed {
				return nil
			}
			return err
		}
		w := newConnWriter(s, conn)
		s.connMu.Lock()
		s.conns[conn] = w
		s.connMu.Unlock()
		go s.serveConn(w)
	}
}

// readLimit bounds an inbound message body. It is deliberately looser
// than MaxPayload: a moderately-oversized payload should still be read,
// parsed, and answered with a polite StatusBadRequest rather than a
// slammed connection; only a frame no legitimate client would send (far
// past any payload the catalog admits) is treated as a protocol error.
func (s *Server) readLimit() int {
	return s.opts.MaxPayload*2 + 4096
}

// noteProtocolError counts a connection terminated for a malformed frame
// or body. A clean peer disconnect (EOF between messages, or our own
// Close tearing the socket down) is not a protocol error.
func (s *Server) noteProtocolError(err error) {
	if err == nil || err == io.EOF || errors.Is(err, net.ErrClosed) {
		return
	}
	s.protoErrs.Add(1)
}

// serveConn demultiplexes one connection. Requests stream in through a
// buffered reader and are submitted with the connection's writer as
// their response sink: respond frames each response straight into the
// writer's buffer, and the writer flushes whatever has gathered with one
// Write. Before submitting a request the reader waits while the
// connection's unflushed response bytes exceed maxUnflushed, so a client
// that stops reading meets TCP backpressure instead of growing server
// memory. A framing or parse error terminates the connection (the peer is
// not speaking the protocol) and is counted under serve/protocol/errors;
// responses to requests already submitted are still flushed first.
func (s *Server) serveConn(w *connWriter) {
	conn := w.conn
	go w.run()
	defer func() {
		w.closeRead()
		<-w.gone
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	// The connection's remote address is the admission-control client
	// identity: one token bucket per client connection.
	client := conn.RemoteAddr().String()
	r := bufio.NewReaderSize(conn, connBufSize)
	for {
		body, err := readFrame(r, s.readLimit())
		if err != nil {
			s.noteProtocolError(err)
			return
		}
		req, err := parseRequest(body)
		if err != nil {
			s.noteProtocolError(err)
			return
		}
		if !w.expect() {
			return
		}
		s.submit(client, req, w)
	}
}

const (
	// maxUnflushed caps a connection's framed-but-unwritten response
	// bytes before its reader stops taking requests.
	maxUnflushed = 1 << 20

	// serverWriteTimeout bounds each flush to a client connection. A
	// client that stops reading would otherwise hold its connection, and
	// every response buffered for it, forever; on expiry the connection
	// is dropped and counted under serve/protocol/errors.
	serverWriteTimeout = 10 * time.Second
)

// connWriter is the single writer of one server connection. respond
// frames responses into buf from any goroutine without touching the
// socket — a tile executor never blocks on a client — and run writes
// whatever has gathered with one Write per round.
type connWriter struct {
	s    *Server
	conn net.Conn

	mu          sync.Mutex
	ready       sync.Cond // run waits for: buffered bytes, the reader's exit, or failure
	room        sync.Cond // the reader waits for: unflushed bytes under maxUnflushed, or failure
	buf         []byte    // framed responses waiting for the next round
	spare       []byte    // the buffer the last round wrote, reused by the next
	writing     int       // bytes of the Write on the socket
	outstanding int       // submitted requests whose response is not yet framed
	readDone    bool      // the reader has exited; no request will be submitted
	err         error     // the failed flush or framing; later responses are dropped
	gone        chan struct{}
}

func newConnWriter(s *Server, conn net.Conn) *connWriter {
	w := &connWriter{s: s, conn: conn, gone: make(chan struct{})}
	w.ready.L = &w.mu
	w.room.L = &w.mu
	return w
}

// run flushes the connection until it fails, or until the reader has
// exited and every submitted request's response has been written.
func (w *connWriter) run() {
	defer close(w.gone)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.buf) == 0 && w.err == nil && !(w.readDone && w.outstanding == 0) {
			w.ready.Wait()
		}
		if w.err != nil || len(w.buf) == 0 {
			return
		}
		out := w.buf
		w.buf = w.spare[:0]
		w.writing = len(out)
		w.mu.Unlock()
		w.conn.SetWriteDeadline(time.Now().Add(w.s.writeTimeout))
		_, err := w.conn.Write(out)
		w.mu.Lock()
		w.writing = 0
		w.spare = reusable(out)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				w.s.noteProtocolError(err)
			}
			w.fail(err)
			return
		}
		w.room.Signal()
	}
}

// fail records a fatal error and drops the connection — a partial frame
// desynchronizes the stream — waking the reader and run. Callers hold mu.
func (w *connWriter) fail(err error) {
	w.err = err
	w.conn.Close()
	w.ready.Signal()
	w.room.Signal()
}

// expect waits while the connection's unflushed response bytes exceed
// maxUnflushed, then counts one more response run must write before it
// may exit. False once the connection has failed.
func (w *connWriter) expect() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.buf)+w.writing > maxUnflushed {
		w.room.Wait()
	}
	if w.err != nil {
		return false
	}
	w.outstanding++
	return true
}

// send frames resp for the next flush; after a failure it is dropped.
func (w *connWriter) send(resp *Response) {
	w.mu.Lock()
	w.outstanding--
	if w.err == nil {
		b, mark := beginMessage(w.buf)
		b, err := endMessage(appendResponse(b, resp), mark)
		w.buf = b
		if err != nil {
			w.fail(err)
		}
	}
	w.ready.Signal()
	w.mu.Unlock()
}

// closeRead tells run the reader has exited: it writes the responses
// still outstanding, then returns.
func (w *connWriter) closeRead() {
	w.mu.Lock()
	w.readDone = true
	w.ready.Signal()
	w.mu.Unlock()
}

// Close drains and stops the server: admission closes (new requests are
// shed), every tile's queued work completes, dispatchers and executors
// exit, and open listeners and connections are closed.
func (s *Server) Close() {
	s.admitMu.Lock()
	if s.closed {
		s.admitMu.Unlock()
		return
	}
	s.closed = true
	s.admitMu.Unlock()
	for _, t := range s.tiles {
		close(t.queue)
	}
	s.connMu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	for _, t := range s.tiles {
		t.wg.Wait()
	}
}
