// Package cluster is the client side of a disaggregated accelerator
// pool: a balancer holding one TCP connection per protoaccd daemon,
// placing requests on nodes round-robin (serve.Pick, the rule that
// places tiles too, so node choice is a pure function of the request
// sequence and each node's routability), failing a request over to
// another node on a transport error, and ejecting sick nodes based on
// transport errors and each daemon's /healthz admin surface — RPCAcc's
// "accelerator as a network-attached resource", built from the serving
// layer this repo already has.
//
// The balancer deliberately owns all recovery policy. A serve.Conn never
// reconnects on its own (see serve.ErrClosed): redial and failover both
// happen here, where there is a second node to fail over to and counters
// to account the decision.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/serve/elements"
	"protoacc/internal/telemetry"
)

// HealthOptions tunes node ejection and recovery. Two signals feed each
// node's circuit: transport errors observed on the data path (always
// on), and each daemon's /healthz admin document (on when Interval > 0
// and the node has an admin address).
type HealthOptions struct {
	// Interval between /healthz polls; 0 (default) disables polling —
	// transport-error ejection still applies.
	Interval time.Duration

	// EjectDwell is how long an ejected node sits out before the router
	// sends it a probe request (default 2s).
	EjectDwell time.Duration
}

// errorThreshold consecutive transport errors eject a node.
const errorThreshold = 3

// Options configures a Balancer.
type Options struct {
	// Addrs are the daemons' data-plane addresses (required, 1..N).
	Addrs []string

	// AdminAddrs are the daemons' admin-plane addresses for /healthz
	// polling, parallel to Addrs. Empty slice or empty entries disable
	// health polling for the whole pool or that node respectively.
	AdminAddrs []string

	// Dial tunes every per-node connection (deadlines; see
	// serve.DialOptions).
	Dial serve.DialOptions

	Health HealthOptions
}

// node is one daemon: its connection, health state, and counters.
type node struct {
	id        int
	addr      string
	adminAddr string
	b         *Balancer

	connMu sync.Mutex
	conn   *serve.Conn

	// mu guards the node's health: its circuit — closed routes, open
	// (ejected) sits out EjectDwell, half-open sends one probe request —
	// and the consecutive signals that trip and restore it.
	mu         sync.Mutex
	circuit    elements.Circuit
	consecErrs int
	consecSick int
	consecWell int

	// Counters (atomic: the data path and the poller both write).
	requests  atomic.Uint64
	oks       atomic.Uint64
	errs      atomic.Uint64
	fallbacks atomic.Uint64
	ejections atomic.Uint64
	redials   atomic.Uint64
}

// Balancer fans a Doer interface out over a pool of protoaccd daemons.
// It is safe for concurrent use; one Balancer serves any number of
// workers.
type Balancer struct {
	opts  Options
	nodes []*node
	seq   atomic.Uint64 // round-robin cursor over the nodes

	requests   atomic.Uint64
	retries    atomic.Uint64
	ejections  atomic.Uint64
	recoveries atomic.Uint64

	closed atomic.Bool
	health *healthPoller
}

// New builds a Balancer and dials every node. Nodes that fail the
// initial dial are not fatal — they start life with a broken connection
// and the redial/ejection machinery takes it from there — but at least
// one node must be reachable.
func New(opts Options) (*Balancer, error) {
	if len(opts.Addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if len(opts.AdminAddrs) != 0 && len(opts.AdminAddrs) != len(opts.Addrs) {
		return nil, fmt.Errorf("cluster: %d admin addresses for %d nodes", len(opts.AdminAddrs), len(opts.Addrs))
	}
	if opts.Health.EjectDwell <= 0 {
		opts.Health.EjectDwell = 2 * time.Second
	}
	b := &Balancer{opts: opts}
	reachable := 0
	for i, addr := range opts.Addrs {
		n := &node{id: i, addr: addr, b: b, circuit: elements.Circuit{Dwell: opts.Health.EjectDwell, Probes: 1}}
		if len(opts.AdminAddrs) > 0 {
			n.adminAddr = opts.AdminAddrs[i]
		}
		conn, err := serve.DialWith(addr, opts.Dial)
		if err == nil {
			n.conn = conn
			reachable++
		}
		b.nodes = append(b.nodes, n)
	}
	if reachable == 0 {
		return nil, fmt.Errorf("cluster: no node reachable (tried %d)", len(opts.Addrs))
	}
	if opts.Health.Interval > 0 {
		b.health = startHealthPoller(b)
	}
	return b, nil
}

// Nodes returns the pool size.
func (b *Balancer) Nodes() int { return len(b.nodes) }

// Close stops the health poller and closes every node connection. Any
// in-flight Do calls fail.
func (b *Balancer) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	if b.health != nil {
		b.health.stop()
	}
	for _, n := range b.nodes {
		n.connMu.Lock()
		if n.conn != nil {
			n.conn.Close()
		}
		n.connMu.Unlock()
	}
	return nil
}

// client returns the node's live connection, redialing a broken one.
// Redial is single-flight per node under connMu.
func (n *node) client() (*serve.Conn, error) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.b.closed.Load() {
		return nil, serve.ErrClosed
	}
	if n.conn != nil && !n.conn.Broken() {
		return n.conn, nil
	}
	if n.conn != nil {
		n.conn.Close()
		n.conn = nil
	}
	conn, err := serve.DialWith(n.addr, n.b.opts.Dial)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d redial: %w", n.id, err)
	}
	n.redials.Add(1)
	n.conn = conn
	return conn, nil
}

// do runs one attempt on this node, maintaining the health state
// machine.
func (n *node) do(req serve.Request) (serve.Response, error) {
	n.requests.Add(1)
	conn, err := n.client()
	if err != nil {
		n.finish(err)
		return serve.Response{}, err
	}
	resp, err := conn.Do(req)
	switch {
	case err == nil:
		n.noteOK()
		if resp.FellBack {
			n.fallbacks.Add(1)
		}
	case errors.Is(err, serve.ErrTooLarge):
		// Refused before any byte was sent: no evidence about the node,
		// and a half-open node keeps the probe this request was routed as.
		n.mu.Lock()
		n.circuit.Routed(-1)
		n.mu.Unlock()
	default:
		n.finish(err)
	}
	return resp, err
}

// noteOK records a successful attempt and closes a half-open node's
// circuit: the probe passed.
func (n *node) noteOK() {
	n.oks.Add(1)
	n.mu.Lock()
	n.consecErrs = 0
	if n.circuit.Passed(1) {
		n.b.recoveries.Add(1)
	}
	n.mu.Unlock()
}

// finish records a failed attempt: a failed probe ejects the node again
// at once, a closed node ejects after errorThreshold consecutive errors.
func (n *node) finish(err error) {
	n.errs.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.consecErrs++
	switch n.circuit.State() {
	case elements.StateHalfOpen:
		n.ejectLocked()
	case elements.StateClosed:
		if n.consecErrs >= errorThreshold {
			n.ejectLocked()
		}
	}
}

// ejectLocked opens the node's circuit for EjectDwell. Callers hold mu.
func (n *node) ejectLocked() {
	n.circuit.Open(time.Now())
	n.consecWell = 0
	n.ejections.Add(1)
	n.b.ejections.Add(1)
}

// restoreLocked returns the node to service. Callers hold mu.
func (n *node) restoreLocked() {
	if n.circuit.Close() {
		n.b.recoveries.Add(1)
	}
	n.consecErrs = 0
	n.consecSick = 0
}

// routable reports whether the router may send this node a request now
// (see elements.Circuit.Routable).
func (n *node) routable(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ok, _ := n.circuit.Routable(now)
	return ok
}

// route picks the next node for a request that has already failed on
// the nodes in failed through serve.Pick. Those nodes are not
// routable; should Pick's all-down fallback still name one of them, the
// first node not in failed serves instead. route spends the pick's probe
// budget if it is half-open: every route result is sent.
func (b *Balancer) route(failed []*node) *node {
	now := time.Now()
	i, _ := serve.Pick(len(b.nodes), &b.seq,
		func(i int) bool { return !slices.Contains(failed, b.nodes[i]) && b.nodes[i].routable(now) })
	n := b.nodes[i]
	if slices.Contains(failed, n) {
		for _, m := range b.nodes {
			if !slices.Contains(failed, m) {
				n = m
				break
			}
		}
	}
	n.mu.Lock()
	n.circuit.Routed(1)
	n.mu.Unlock()
	return n
}

// Do implements serve.Doer across the pool on the caller's goroutine:
// route, attempt, and on a transport error fail over to another node, at
// most one attempt per node. Server-side statuses (shed, bad request,
// deadline) are responses, not errors, and return like any other.
func (b *Balancer) Do(req serve.Request) (serve.Response, error) {
	if b.closed.Load() {
		return serve.Response{}, serve.ErrClosed
	}
	b.requests.Add(1)
	var failed []*node // allocated on the first failure only
	for {
		n := b.route(failed)
		resp, err := n.do(req)
		switch {
		case err == nil:
			return resp, nil
		case errors.Is(err, serve.ErrTooLarge):
			return serve.Response{}, err // every node would refuse it
		}
		failed = append(failed, n)
		if len(failed) == len(b.nodes) {
			return serve.Response{}, fmt.Errorf("cluster: node %d (%s): %w", n.id, n.addr, err)
		}
		b.retries.Add(1)
	}
}

// Close is part of serve.Doer on the client handle, not the balancer
// itself; Client returns a non-owning handle whose Close is a no-op, so
// each loadgen worker can hold "its own" Doer over the shared pool.
type clientHandle struct{ b *Balancer }

func (h clientHandle) Do(req serve.Request) (serve.Response, error) { return h.b.Do(req) }
func (h clientHandle) Close() error                                 { return nil }

// Client returns a serve.Doer view of the pool that does not own it:
// Close is a no-op, the Balancer outlives all handles.
func (b *Balancer) Client() serve.Doer { return clientHandle{b} }

// NodeCounters is one node's counter snapshot.
type NodeCounters struct {
	Addr      string
	Requests  uint64
	OKs       uint64
	Errors    uint64
	Fallbacks uint64
	Ejections uint64
	Redials   uint64
	Ejected   bool
}

// NodeStats snapshots every node's counters, indexed by node id.
func (b *Balancer) NodeStats() []NodeCounters {
	out := make([]NodeCounters, len(b.nodes))
	for i, n := range b.nodes {
		n.mu.Lock()
		ejected := n.circuit.State() != elements.StateClosed
		n.mu.Unlock()
		out[i] = NodeCounters{
			Addr:      n.addr,
			Requests:  n.requests.Load(),
			OKs:       n.oks.Load(),
			Errors:    n.errs.Load(),
			Fallbacks: n.fallbacks.Load(),
			Ejections: n.ejections.Load(),
			Redials:   n.redials.Load(),
			Ejected:   ejected,
		}
	}
	return out
}

// CollectTelemetry implements telemetry.Collector: the serve/cluster/
// counter group. Shape is stable (fixed emission order, every node every
// time), per the Collector contract.
func (b *Balancer) CollectTelemetry(emit func(name string, value float64)) {
	emit("nodes", float64(len(b.nodes)))
	emit("requests", float64(b.requests.Load()))
	emit("retries", float64(b.retries.Load()))
	emit("ejections", float64(b.ejections.Load()))
	emit("recoveries", float64(b.recoveries.Load()))
	for i, n := range b.nodes {
		prefix := fmt.Sprintf("node%d/", i)
		emit(prefix+"requests", float64(n.requests.Load()))
		emit(prefix+"ok", float64(n.oks.Load()))
		emit(prefix+"errors", float64(n.errs.Load()))
		emit(prefix+"fallbacks", float64(n.fallbacks.Load()))
		emit(prefix+"ejections", float64(n.ejections.Load()))
		emit(prefix+"redials", float64(n.redials.Load()))
	}
}

// Counters returns the serve/cluster/ counter group as a map (test and
// report convenience).
func (b *Balancer) Counters() map[string]float64 {
	var reg telemetry.Registry
	reg.Register("serve/cluster", b)
	snap := reg.Snapshot()
	out := make(map[string]float64, snap.Len())
	for _, sm := range snap.Samples() {
		out[sm.Name] = sm.Value
	}
	return out
}
