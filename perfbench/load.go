package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protoacc/internal/serve"
)

// rateWindow is the closed-loop counting window. The capacity metric is
// the median window rate, so a GC pause or a descheduled vCPU costs one
// window, not the run.
const rateWindow = 100 * time.Millisecond

// phase is one load phase's outcome.
type phase struct {
	tally
	elapsed  time.Duration
	windows  []float64       // closed loop: OK req/s per full rateWindow
	lat      []time.Duration // open loop: OK latencies from scheduled send
	lateness time.Duration   // open loop: mean send time behind schedule
	roots    []span          // traced phases: one root span per client call
}

// merge appends o's samples to p.
func (p *phase) merge(o phase) {
	if n, m := p.attempted, o.attempted; n+m > 0 {
		p.lateness = (p.lateness*time.Duration(n) + o.lateness*time.Duration(m)) / time.Duration(n+m)
	}
	p.tally.merge(o.tally)
	p.elapsed += o.elapsed
	p.windows = append(p.windows, o.windows...)
	p.lat = append(p.lat, o.lat...)
	p.roots = append(p.roots, o.roots...)
}

// rps is the phase's capacity figure: the median window rate, or the
// whole-phase rate when the phase is shorter than two windows.
func (p *phase) rps() float64 {
	if len(p.windows) >= 2 {
		return median(p.windows)
	}
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ok) / p.elapsed.Seconds()
}

// closedLoop keeps inFlight requests outstanding over clients, walking
// the trace from record 0. With n > 0 it issues exactly n requests (the
// warm-up pass); otherwise it issues until dur has passed. Non-nil
// roots, parallel to clients, name the root span that wraps each
// client's calls.
func closedLoop(e *env, clients []serve.Doer, roots []string, n int, dur time.Duration) phase {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	nwin := int(dur / rateWindow)
	type worker struct {
		t     tally
		win   []uint64
		roots []span
	}
	ws := make([]worker, inFlight)
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w *worker, c serve.Doer, root string) {
			defer wg.Done()
			w.win = make([]uint64, nwin)
			for {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				req := e.reqs[i%len(e.reqs)]
				t0 := time.Now()
				if n == 0 && !t0.Before(end) {
					return
				}
				resp, err := c.Do(req)
				t1 := time.Now()
				if root != "" {
					w.roots = append(w.roots, rootSpan(root, i%len(e.reqs), t0, t1))
				}
				if w.t.note(resp, err, req.Payload) && nwin > 0 {
					if b := int(t1.Sub(start) / rateWindow); b < nwin {
						w.win[b]++
					}
				}
			}
		}(&ws[w], clients[w%len(clients)], pick(roots, w%len(clients)))
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	counts := make([]uint64, nwin)
	for i := range ws {
		p.tally.merge(ws[i].t)
		p.roots = append(p.roots, ws[i].roots...)
		for b, c := range ws[i].win {
			counts[b] += c
		}
	}
	for _, c := range counts {
		p.windows = append(p.windows, float64(c)/rateWindow.Seconds())
	}
	return p
}

// pick returns roots[i], or "" for an untraced phase.
func pick(roots []string, i int) string {
	if roots == nil {
		return ""
	}
	return roots[i]
}

// openLoop sends rate requests per second for dur on a fixed schedule,
// whatever the responses do, and times each from its scheduled send.
// Request i goes to clients[i mod len(clients)]. Non-nil roots, parallel
// to clients, name the root span that wraps each client's calls.
func openLoop(e *env, clients []serve.Doer, roots []string, rate float64, dur time.Duration) phase {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	type slot struct {
		resp serve.Response
		err  error
		lat  time.Duration
		root span
	}
	slots := make([]slot, total)
	var late time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		sched := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if d := sched.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		late += now.Sub(sched)
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			s := &slots[i]
			k := i % len(e.reqs)
			t0 := time.Now()
			s.resp, s.err = clients[i%len(clients)].Do(e.reqs[k])
			t1 := time.Now()
			s.lat = t1.Sub(sched)
			if roots != nil {
				s.root = rootSpan(roots[i%len(clients)], k, t0, t1)
			}
		}(i, sched)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	if total > 0 {
		p.lateness = late / time.Duration(total)
	}
	for i := range slots {
		s := &slots[i]
		if p.tally.note(s.resp, s.err, e.reqs[i%len(e.reqs)].Payload) {
			p.lat = append(p.lat, s.lat)
		}
		if roots != nil {
			p.roots = append(p.roots, s.root)
		}
	}
	return p
}

// quantile is an order statistic of raw samples (nearest rank), with the
// number of samples strictly beyond it.
func quantile(samples []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	k = max(0, min(k, len(s)-1))
	v = s[k]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

// median of float samples (mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
