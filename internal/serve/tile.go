package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"protoacc/internal/core"
	"protoacc/internal/faults"
	"protoacc/internal/pb/codec"
	"protoacc/internal/telemetry"
)

// A tile is one independent accelerator shard: its own System pool, its
// own bounded admission queue, its own coalescing dispatcher, and its own
// batch executors. The Server routes every admitted job to exactly one
// tile; tiles share nothing but the Server's admission bookkeeping, so a
// System poisoned by injected faults can only ever disturb the pool — and
// therefore the serving capacity — of the tile it belongs to. This is the
// RPCAcc shape (PAPERS.md): many engines behind one frontend, with the
// frontend-to-engine messaging kept to a single bounded channel per
// engine.
type tile struct {
	id  int
	srv *Server

	// cfg is the per-tile System config (FaultTiles may strip the fault
	// schedule at construction; Server.SetTileFaults may swap it live).
	// cfgMu guards it: executors read a copy at checkout, the admin
	// fault control writes it. The pool needs no flush on a swap — it
	// keys on the full config, so a checkout under the new schedule can
	// never return an old-schedule System.
	cfgMu sync.RWMutex
	cfg   core.Config

	pool *core.Pool
	obs  *tileObs // this tile's shard of the observability plane

	queue chan batchJob // admission → dispatcher (bounded, routed by Server)
	work  chan batchJob // dispatcher → executors (at most MaxBatch pendings each)

	wg sync.WaitGroup // dispatcher + executors

	// The execution-side counters, added atomically. Like the Server's,
	// every one is integral-valued, so the order tiles and executors add
	// in cannot perturb the serve/ totals.
	batches, batchRequests          atomic.Uint64
	accelFallbacks, serverFallbacks atomic.Uint64
	retries                         atomic.Uint64

	mu     sync.Mutex
	cycles telemetry.Attribution // measured cycles across batches, guarded by mu
	sysSum telemetry.Sum         // accelerator unit counters across batches, guarded by mu
}

// newTile builds one tile and starts its dispatcher and executors.
func newTile(s *Server, id int) *tile {
	cfg := s.cfg
	if s.opts.FaultTiles != nil && !containsInt(s.opts.FaultTiles, id) {
		cfg.Faults = faults.Config{}
	}
	t := &tile{
		id:    id,
		srv:   s,
		cfg:   cfg,
		obs:   s.obs.tiles[id],
		pool:  core.NewPool(0),
		queue: make(chan batchJob, s.opts.QueueDepth),
		work:  make(chan batchJob),
	}
	t.wg.Add(1)
	go t.dispatch()
	for i := 0; i < s.opts.tileWorkers(); i++ {
		t.wg.Add(1)
		go t.workerLoop()
	}
	return t
}

func containsInt(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// config returns a copy of the tile's current System config.
func (t *tile) config() core.Config {
	t.cfgMu.RLock()
	defer t.cfgMu.RUnlock()
	return t.cfg
}

// faultsEnabled reports whether a fault schedule is currently active on
// this tile.
func (t *tile) faultsEnabled() bool {
	t.cfgMu.RLock()
	defer t.cfgMu.RUnlock()
	return t.cfg.Faults.Enabled
}

// observeBreaker feeds one batch outcome (reqs completed, fails of which
// were failure events) into the circuit-breaker element, if on.
func (t *tile) observeBreaker(reqs, fails uint64) {
	if br := t.srv.breaker(); br != nil {
		br.Observe(t.id, reqs, fails, time.Now())
	}
}

// arrival is one (schema, op) key's arrival record in a tile's
// dispatcher: when the dispatcher last took a job for the key, and an
// EWMA (weight 1/8) of the gaps between those takes.
type arrival struct {
	last   time.Time
	gap    time.Duration
	hasGap bool
}

// note records the dispatcher taking a job for the key at now.
func (a *arrival) note(now time.Time) {
	if !a.last.IsZero() {
		g := now.Sub(a.last)
		if a.hasGap {
			a.gap += (g - a.gap) / 8
		} else {
			a.gap, a.hasGap = g, true
		}
	}
	a.last = now
}

// sparse reports that no partner is expected within window: the key has
// no gap yet, or its arrivals are on average further apart than window.
func (a *arrival) sparse(window time.Duration) bool {
	return !a.hasGap || a.gap > window
}

// dispatch coalesces this tile's queued singles into per-(schema, op)
// batches, flushing a batch when it reaches MaxBatch or its window
// expires; preformed batches pass through untouched. A sparse key's open
// batch (see arrival) is flushed as soon as the admission queue is empty
// instead of waiting out the window: its partner would rarely arrive in
// time, and Go rounds a timer under 1 ms up to a 1 ms epoll_wait when the
// process is idle, so the window would hold it over a millisecond. Runs
// until the queue closes, then flushes every open batch and closes the
// work channel.
//
// The window is load-bearing for batching efficiency: an "idle executor"
// signal is NOT a flush trigger, because on a loaded host executors look
// idle whenever the clients feeding the tile simply haven't been
// scheduled yet, and flushing on that signal shreds every burst into
// single-request batches (measured 4-5x throughput loss closed-loop).
// The sparse rule keeps dense keys on the window, and waits for an empty
// queue because the jobs still queued may be the open batches' partners.
//
// The window timer is re-armed only when the earliest open deadline can
// have moved: a group opened or a group flushed. A fired timer always
// flushes the group it was armed for, so its re-arm comes from that
// flush. Every other job leaves the timer alone (a Stop and Reset per job
// was a measured cost on the path every request takes), so a fired timer
// stays ready until the select takes it, even while jobs keep arriving.
func (t *tile) dispatch() {
	defer t.wg.Done()
	type openBatch struct {
		pendings []*pending
		flushAt  time.Time
	}
	groups := make(map[batchKey]*openBatch)
	arrivals := make(map[batchKey]*arrival)
	var timer *time.Timer
	var timerC <-chan time.Time
	rearmDue := false // a group opened or flushed since the last rearm

	rearm := func() {
		var earliest time.Time
		for _, g := range groups {
			if earliest.IsZero() || g.flushAt.Before(earliest) {
				earliest = g.flushAt
			}
		}
		if earliest.IsZero() {
			timerC = nil
			return
		}
		d := time.Until(earliest)
		if d < 0 {
			d = 0
		}
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
		}
		timerC = timer.C
	}
	// flush hands the group to the executors as one batch. Only submit
	// queues jobs that are not preformed, each with one pending, and a
	// group flushes the moment it reaches MaxBatch, so no group exceeds
	// it.
	flush := func(k batchKey) {
		g := groups[k]
		delete(groups, k)
		rearmDue = true
		t.work <- batchJob{key: k, pendings: g.pendings}
	}
	handle := func(job batchJob) {
		now := time.Now()
		for _, p := range job.pendings {
			if !p.enqueuedAt.IsZero() {
				t.obs.record(stageQueueWait, now.Sub(p.enqueuedAt))
			}
			p.joinedAt = now
			if p.span != nil {
				p.span.DequeueAt = t.srv.obs.at(now)
			}
		}
		if job.preformed {
			t.work <- job
			return
		}
		a := arrivals[job.key]
		if a == nil {
			a = &arrival{}
			arrivals[job.key] = a
		}
		a.note(now)
		g := groups[job.key]
		if g == nil {
			g = &openBatch{flushAt: now.Add(t.srv.opts.BatchWindow)}
			groups[job.key] = g
			rearmDue = true
		}
		g.pendings = append(g.pendings, job.pendings...)
		if len(g.pendings) >= t.srv.opts.MaxBatch {
			flush(job.key)
		}
	}
	drain := func() {
		for k := range groups {
			flush(k)
		}
		close(t.work)
	}

	for {
		if rearmDue {
			rearm()
			rearmDue = false
		}
		select {
		case job, ok := <-t.queue:
			if !ok {
				drain()
				return
			}
			handle(job)
			if len(t.queue) == 0 {
				for k := range groups {
					if arrivals[k].sparse(t.srv.opts.BatchWindow) {
						flush(k)
					}
				}
			}
		case <-timerC:
			now := time.Now()
			for k, g := range groups {
				if !g.flushAt.After(now) {
					flush(k)
				}
			}
		}
	}
}

// workerLoop executes the batches this tile's dispatcher hands out.
func (t *tile) workerLoop() {
	defer t.wg.Done()
	for job := range t.work {
		t.runBatch(job)
	}
}

// runBatch executes one batch on this tile's accelerator shard: expire
// overdue requests, then run the §4.4.1 batch operation on a checked-out
// System, degrading to the software codec when it errors out.
func (t *tile) runBatch(job batchJob) {
	live := job.pendings[:0:0]
	now := time.Now()
	expired := 0
	for _, p := range job.pendings {
		if p.deadline.Before(now) {
			t.srv.respond(p, Response{Status: StatusDeadline, Payload: []byte("deadline expired in queue")})
			expired++
			continue
		}
		live = append(live, p)
	}
	if expired > 0 {
		// Deadline misses count as failure events on this tile: a tile whose
		// queue lets budgets expire is unhealthy from the client's view.
		t.observeBreaker(uint64(expired), uint64(expired))
	}
	if len(live) == 0 {
		return
	}
	t.obs.inflight.Add(1)
	defer t.obs.inflight.Add(-1)
	t.obs.batchSize.RecordValue(uint64(len(live)))
	batchAt := t.srv.obs.at(now)
	for _, p := range live {
		if !p.joinedAt.IsZero() {
			t.obs.record(stageCoalesceWait, now.Sub(p.joinedAt))
		}
		if p.span != nil {
			p.span.BatchSize = len(live)
			p.span.BatchAt = batchAt
		}
	}
	t.batches.Add(1)
	t.batchRequests.Add(uint64(len(live)))

	buildStart := time.Now()
	sys, err := t.checkout(live[0].entry)
	if err != nil {
		t.degrade(live)
		return
	}
	sys.Telemetry().EnableAttribution(true)
	switch job.key.op {
	case OpSerialize:
		t.runSerialize(sys, live, buildStart)
	default:
		t.runDeserialize(sys, live, buildStart)
	}
	t.absorb(sys)
	if !t.srv.opts.fresh {
		t.pool.Put(sys) // Put drops a poisoned System
	}
}

// execMarks records the build→execute stage boundary on every sampled
// span of the batch (build covers System checkout plus input
// materialization; execute is the accelerator batch operation).
func (t *tile) execMarks(live []*pending, at time.Duration, end bool) {
	for _, p := range live {
		if p.span == nil {
			continue
		}
		if end {
			p.span.ExecEndAt = at
		} else {
			p.span.ExecStartAt = at
		}
	}
}

// checkout acquires a System with the batch's schema loaded: from the
// tile's pool, or built new when the fresh reference arm of the
// pooled-vs-fresh equivalence test asks for one per batch.
func (t *tile) checkout(entry *Entry) (*core.System, error) {
	cfg := t.config()
	if !t.srv.opts.fresh {
		return t.pool.GetLoaded(cfg, entry.Type)
	}
	sys := core.New(cfg)
	if err := sys.LoadSchema(entry.Type); err != nil {
		return nil, err
	}
	return sys, nil
}

// runDeserialize answers each request with the canonical re-serialization
// of the object the accelerator materialized from its payload.
func (t *tile) runDeserialize(sys *core.System, live []*pending, buildStart time.Time) {
	mt := live[0].entry.Type
	refs := make([]core.WireRef, len(live))
	for i, p := range live {
		addr, err := sys.WriteWire(p.req.Payload)
		if err != nil {
			t.degrade(live)
			return
		}
		refs[i] = core.WireRef{Addr: addr, Len: uint64(len(p.req.Payload))}
	}
	execStart := time.Now()
	t.obs.record(stageBatchBuild, execStart.Sub(buildStart))
	t.execMarks(live, t.srv.obs.at(execStart), false)
	res, objs, err := sys.DeserializeBatch(mt, refs)
	if err != nil {
		t.degrade(live)
		return
	}
	execEnd := time.Now()
	t.obs.record(stageExecute, execEnd.Sub(execStart))
	t.execMarks(live, t.srv.obs.at(execEnd), true)
	t.noteBatch(res, len(live))
	t.annotateSpans(live, res)
	perReq := res.Cycles / float64(len(live))
	fellBack := res.Fault != nil && res.Fault.FellBack
	for i, p := range live {
		m, err := sys.ReadMessage(mt, objs[i])
		if err != nil {
			t.srv.respond(p, Response{Status: StatusError, Payload: []byte("object readback: " + err.Error())})
			continue
		}
		out, err := codec.Marshal(m)
		if err != nil {
			t.srv.respond(p, Response{Status: StatusError, Payload: []byte("canonical marshal: " + err.Error())})
			continue
		}
		t.srv.respond(p, Response{Status: StatusOK, FellBack: fellBack, Cycles: perReq, Payload: out})
	}
	t.obs.record(stageRespondWrite, time.Since(execEnd))
}

// runSerialize answers each request with the wire bytes the accelerator's
// serializer produced for its (pre-parsed) object.
func (t *tile) runSerialize(sys *core.System, live []*pending, buildStart time.Time) {
	mt := live[0].entry.Type
	objs := make([]uint64, len(live))
	for i, p := range live {
		addr, err := sys.MaterializeInput(p.msg)
		if err != nil {
			t.degrade(live)
			return
		}
		objs[i] = addr
	}
	execStart := time.Now()
	t.obs.record(stageBatchBuild, execStart.Sub(buildStart))
	t.execMarks(live, t.srv.obs.at(execStart), false)
	res, refs, err := sys.SerializeBatch(mt, objs)
	if err != nil {
		t.degrade(live)
		return
	}
	execEnd := time.Now()
	t.obs.record(stageExecute, execEnd.Sub(execStart))
	t.execMarks(live, t.srv.obs.at(execEnd), true)
	t.noteBatch(res, len(live))
	t.annotateSpans(live, res)
	perReq := res.Cycles / float64(len(live))
	fellBack := res.Fault != nil && res.Fault.FellBack
	for i, p := range live {
		out, err := sys.ReadWire(refs[i].Addr, refs[i].Len)
		if err != nil {
			t.srv.respond(p, Response{Status: StatusError, Payload: []byte("wire readback: " + err.Error())})
			continue
		}
		t.srv.respond(p, Response{Status: StatusOK, FellBack: fellBack, Cycles: perReq, Payload: out})
	}
	t.obs.record(stageRespondWrite, time.Since(execEnd))
}

// annotateSpans copies a batch result's resilience events onto every
// sampled span in the batch.
func (t *tile) annotateSpans(live []*pending, res core.Result) {
	if res.Fault == nil {
		return
	}
	for _, p := range live {
		if p.span != nil {
			p.span.Retries = uint64(res.Fault.Retries)
		}
	}
}

// degrade completes every live request of a failed batch on the host's
// software codec: for both operations the answer is the canonical
// serialization of the request's pre-parsed message. For a payload with
// no unknown fields that equals the accelerator path's answer, so callers
// see which path ran only through the FellBack flag. A payload's unknown
// fields are kept here, though the accelerator path drops them
// (ROADMAP.md item 1). Degradation is a per-tile event: only
// this tile's fallback counter moves, and only this tile's pool can hold
// the poisoned System that caused it.
func (t *tile) degrade(live []*pending) {
	t.serverFallbacks.Add(uint64(len(live)))
	// Every degraded request is a failure event: the accelerator shard
	// could not serve it, which is exactly what the breaker watches for.
	t.observeBreaker(uint64(len(live)), uint64(len(live)))
	t0 := time.Now()
	for _, p := range live {
		if p.span != nil {
			p.span.FellBack = true
		}
		out, err := codec.Marshal(p.msg)
		if err != nil {
			t.srv.respond(p, Response{Status: StatusError, Payload: []byte("software codec: " + err.Error())})
			continue
		}
		t.srv.respond(p, Response{Status: StatusOK, FellBack: true, Payload: out})
	}
	t.obs.record(stageRespondWrite, time.Since(t0))
}

// noteBatch records a completed accelerator batch's resilience and cycle
// attribution counters.
func (t *tile) noteBatch(res core.Result, n int) {
	// Breaker view of the batch: every request completed; retries and
	// (when the core fell back) every request count as failure events —
	// the same events the serve/tile<i>/ resilience counters record.
	var fails uint64
	if res.Fault != nil {
		fails = uint64(res.Fault.Retries)
		t.retries.Add(fails)
		if res.Fault.FellBack {
			t.accelFallbacks.Add(uint64(n))
			fails += uint64(n)
		}
	}
	if res.Telemetry != nil {
		t.mu.Lock()
		t.cycles.Add(res.Telemetry.Attribution)
		t.mu.Unlock()
	}
	t.observeBreaker(uint64(n), fails)
}

// absorb adds a batch System's counters into the tile's sum. The System
// came out of checkout freshly reset, so its counters are exactly this
// batch's. Every System a tile checks out has one shape, so the sum adds
// them by position: no name is built or looked up per batch, and nothing
// is allocated once the first batch has fixed the shape.
func (t *tile) absorb(sys *core.System) {
	t.mu.Lock()
	sys.Telemetry().Registry.AddInto(&t.sysSum)
	t.mu.Unlock()
}

// CollectTelemetry implements telemetry.Collector for the tile's
// execution counters. TelemetrySnapshot registers a tile twice: under
// serve/tile<i>/ as its own group, and under serve/, where the registry
// sums it with the other tiles'.
func (t *tile) CollectTelemetry(emit func(name string, value float64)) {
	emit("batches", float64(t.batches.Load()))
	emit("batch_requests", float64(t.batchRequests.Load()))
	emit("fallbacks/accel", float64(t.accelFallbacks.Load()))
	emit("fallbacks/server", float64(t.serverFallbacks.Load()))
	emit("retries", float64(t.retries.Load()))
	t.mu.Lock()
	cyc := t.cycles
	t.mu.Unlock()
	emit("cycles/accel", cyc.Total)
	emit("cycles/fsm", cyc.FSM)
	emit("cycles/supply", cyc.Supply)
	emit("cycles/spill", cyc.Spill)
	emit("cycles/adt_stall", cyc.ADTMiss)
}
