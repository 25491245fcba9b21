package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"protoacc/internal/core"
	"protoacc/internal/serve"
)

// span is one timed call. Roots wrap a client call; the layer probe's
// spans are children that name their root. Times are nanoseconds since
// process start. Allocs and Cycles are counts taken at the same
// boundaries (heap allocations inside the call, simulated cycles of a
// batch call).
type span struct {
	ID, Parent uint64
	Name       string
	Req        int // trace record index
	Start, End int64
	Allocs     uint64
	Cycles     float64
}

func rootSpan(name string, req int, t0, t1 time.Time) span {
	return span{Name: name, Req: req, Start: int64(t0.Sub(processStart)), End: int64(t1.Sub(processStart))}
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// rootName is the client call each workload's root spans wrap.
func rootName(w workload) string {
	switch {
	case w.cluster:
		return "Balancer.Do"
	case w.tcp:
		return "Conn.Do"
	default:
		return "InProc.Do"
	}
}

// serverCounters sums the counters the servers expose, so a phase's
// figures are the difference of two snapshots.
type serverCounters struct {
	count, sum       map[string]float64 // StageSummaries rows
	lookups, hits    uint64             // response cache
	throttled, trips uint64             // admission, breaker
	systemsBuilt     uint64             // pool misses
	shed, deadline   float64
}

func snapServers(srvs ...*serve.Server) serverCounters {
	c := serverCounters{count: map[string]float64{}, sum: map[string]float64{}}
	for _, srv := range srvs {
		for _, st := range srv.StageSummaries() {
			c.count[st.Stage] += float64(st.Count)
			c.sum[st.Stage] += st.SumNS
		}
		for _, pc := range srv.TilePoolCounters() {
			c.systemsBuilt += pc.Gets - pc.Hits
		}
		agg := srv.AggregatedCounters()
		c.shed += agg["serve/responses/shed"]
		c.deadline += agg["serve/responses/deadline"]
		if ch := srv.Elements(); ch != nil {
			if ch.Cache != nil {
				l, h, _, _, _, _ := ch.Cache.Stats()
				c.lookups += l
				c.hits += h
			}
			if ch.Admission != nil {
				_, t := ch.Admission.Totals()
				c.throttled += t
			}
			if ch.Breaker != nil {
				for _, tb := range ch.Breaker.TileStates(time.Now()) {
					c.trips += tb.Trips
				}
			}
		}
	}
	return c
}

// mean of a StageSummaries row between two snapshots (ns, or requests
// for batch_size); 0 when the row saw no samples.
func stageMean(a, b serverCounters, stage string) float64 {
	n := b.count[stage] - a.count[stage]
	if n <= 0 {
		return 0
	}
	return (b.sum[stage] - a.sum[stage]) / n
}

// usage is process-wide resource use at one instant.
type usage struct {
	mallocs, gcs uint64
	cpu          time.Duration
	heap         uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return usage{
		mallocs: ms.Mallocs,
		gcs:     uint64(ms.NumGC),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		heap:    ms.HeapAlloc,
	}
}

func perReq(delta uint64, p phase) float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(delta) / float64(p.attempted)
}

// meanDur is the mean duration in µs of the spans called name.
func meanDur(spans []span, name string) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// transport is what the transport phases measure.
type transport struct {
	timing       phase          // traced Conn.Do (and Balancer.Do) calls
	a, b         serverCounters // around timing
	untraced     tally          // the allocation phases
	allocsPerReq float64        // through Conn minus through InProc
}

// transportPhases measures the transport alone. A traced open loop sends
// the paced load through one serve.Conn per connection the workload holds
// (the loopback clients, or a fresh connection to each cluster node); on
// cluster-cached every other request goes through the Balancer instead,
// so Balancer.Do and Conn.Do are timed under the same load. Two untraced
// loops then send the same load through the Conns alone and through
// Server.InProc on the same servers; their difference in heap
// allocations per request is the transport's.
func transportPhases(e *env, dur time.Duration) (t transport, err error) {
	conns := e.clients
	if e.bal != nil {
		conns = nil
		for _, addr := range e.addrs {
			c, err := serve.Dial(addr)
			if err != nil {
				return t, err
			}
			defer c.Close()
			conns = append(conns, c)
		}
	}
	clients, roots := conns, repeat("Conn.Do", len(conns))
	if e.bal != nil {
		clients, roots = nil, nil
		for _, c := range conns {
			clients = append(clients, e.bal, c)
			roots = append(roots, "Balancer.Do", "Conn.Do")
		}
	}
	var local []serve.Doer
	for _, srv := range e.servers {
		local = append(local, srv.InProc())
	}
	t.a = snapServers(e.servers...)
	t.timing = openLoop(e, clients, roots, pacedRate, dur)
	t.b = snapServers(e.servers...)
	u0 := readUsage()
	viaConn := openLoop(e, conns, nil, pacedRate, dur)
	u1 := readUsage()
	inproc := openLoop(e, local, nil, pacedRate, dur)
	u2 := readUsage()
	t.untraced = viaConn.tally
	t.untraced.merge(inproc.tally)
	t.allocsPerReq = perReq(u1.mallocs-u0.mallocs, viaConn) - perReq(u2.mallocs-u1.mallocs, inproc)
	return t, nil
}

// runTraced is the per-layer run: untraced and traced capacity phases
// in alternation (their ratio is the tracing cost), a traced latency
// phase, the transport phases on TCP workloads, then the layer probe on
// a quiescent process. Spans are written to .bench_build/spans when the
// run ends.
func runTraced(e *env, budget time.Duration, seed int64) (*result, error) {
	roots := repeat(rootName(e.w), len(e.clients))
	slice := budget / 5
	var base, capT phase
	var cpu time.Duration
	u0, s0 := readUsage(), snapServers(e.servers...)
	for i := 0; i < 2; i++ {
		base.merge(closedLoop(e, e.clients, nil, 0, slice/2))
		ua := readUsage()
		capT.merge(closedLoop(e, e.clients, roots, 0, slice/2))
		cpu += readUsage().cpu - ua.cpu
	}
	s1 := snapServers(e.servers...)
	paced := openLoop(e, e.clients, roots, pacedRate, slice)
	u2, s2 := readUsage(), snapServers(e.servers...)

	m := map[string]float64{}
	all := e.warm
	for _, p := range []phase{base, capT, paced} {
		all.merge(p.tally)
	}
	spans := append(append([]span(nil), capT.roots...), paced.roots...)
	if e.w.tcp {
		t, err := transportPhases(e, slice/2)
		if err != nil {
			return nil, err
		}
		all.merge(t.timing.tally)
		all.merge(t.untraced)
		spans = append(spans, t.timing.roots...)
		m["transport.do_us"] = meanDur(t.timing.roots, "Conn.Do")
		m["transport.residual_us"] = m["transport.do_us"] - stageMean(t.a, t.b, "e2e")/1e3
		m["transport.allocs_per_req"] = t.allocsPerReq
		if e.bal != nil {
			m["cluster.do_us"] = meanDur(t.timing.roots, "Balancer.Do")
			m["cluster.overhead_us"] = m["cluster.do_us"] - m["transport.do_us"]
		}
	}
	end := snapServers(e.servers...)
	if e.bal != nil {
		var total, most, redials uint64
		for _, n := range e.bal.NodeStats() {
			total += n.Requests
			most = max(most, n.Requests)
			redials += n.Redials
		}
		m["cluster.node_share_max"] = float64(most) / float64(total)
		m["cluster.retries"] = e.bal.Counters()["serve/cluster/retries"]
		m["cluster.redials"] = float64(redials)
	}
	e.close()

	for i := range spans {
		spans[i].ID = uint64(i + 1)
	}
	pr := &probe{sys: core.New(probeConfig()), next: uint64(len(spans))}
	for _, name := range e.cat.Names() {
		if err := pr.sys.LoadSchema(e.cat.Lookup(name).Type); err != nil {
			return nil, err
		}
	}
	pr.sys.Telemetry().EnableAttribution(true)
	step := max(1, len(capT.roots)/probeSamples)
	for i := 0; i < len(capT.roots); i += step {
		pr.run(e, spans[i])
	}
	all.merge(pr.t)
	spans = append(spans, pr.spans...)
	layerMetrics(m, spans)

	p99, beyond := quantile(paced.lat, 0.99)
	m["client.p99_ms"] = ms(p99)
	m["client.p99_beyond"] = float64(beyond)
	m["gen.late_ms"] = ms(paced.lateness)
	m["runtime.cpu_us_per_req"] = float64(cpu) / 1e3 / float64(max(1, capT.attempted))
	m["runtime.gc_count"] = float64(u2.gcs - u0.gcs)
	m["trace.overhead_ratio"] = capT.rps() / base.rps()
	m["core.heap_mb"] = float64(u2.heap) / (1 << 20)
	m["core.systems_built"] = float64(end.systemsBuilt)
	for stage, name := range stageMetric {
		m["serve."+name] = stageMean(s1, s2, stage) / 1e3
	}
	m["serve.batch_size"] = stageMean(s0, s1, "batch_size")
	m["serve.shed"] = end.shed
	m["serve.deadline"] = end.deadline
	if n := end.lookups - s0.lookups; n > 0 {
		m["elements.cache_hit_ratio"] = float64(end.hits-s0.hits) / float64(n)
	}
	m["elements.throttled"] = float64(end.throttled)
	m["elements.breaker_trips"] = float64(end.trips)
	m["workloads.synth_ms"] = ms(e.synth)
	m["workloads.calibrate_ms"] = ms(e.calib)

	if err := writeSpans(e.w.name, seed, spans); err != nil {
		return nil, err
	}
	fmt.Printf("traced: roots=%d probe_spans=%d base_rps=%.1f traced_rps=%.1f\n", len(spans)-len(pr.spans), len(pr.spans), base.rps(), capT.rps())
	printPhase("traced", all)

	return newResult(all, m, perLayer), nil
}

// stageMetric names the serve.* metric of each StageSummaries row.
var stageMetric = map[string]string{
	"queue_wait":    "queue_wait_us",
	"coalesce_wait": "coalesce_wait_us",
	"batch_build":   "build_us",
	"execute":       "execute_us",
	"respond_write": "respond_us",
	"e2e":           "e2e_us",
}

// writeSpans writes every span as CSV under .bench_build/spans.
func writeSpans(workload string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "id,parent,name,req,start_ns,end_ns,allocs,cycles")
	for _, s := range spans {
		fmt.Fprintf(&buf, "%d,%d,%s,%d,%d,%d,%d,%g\n", s.ID, s.Parent, s.Name, s.Req, s.Start, s.End, s.Allocs, s.Cycles)
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed)), buf.Bytes(), 0o644)
}
