// Cluster mode and the -cluster-sweep harness: loadgen as the client of
// a disaggregated accelerator pool. -cluster points the balancer at
// already-running daemons; -cluster-sweep spawns real protoaccd
// processes itself and runs the measurement behind
// results/serve_cluster.md — aggregate scaling over pool size, a hedge
// drill against a deliberately slow node, and a live-fault
// ejection/recovery drill driven through /faultz and /healthz.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
)

// parseAddrList splits a comma list of host:port entries.
func parseAddrList(flagName, s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("loadgen: empty address in %s %q (stray comma?)", flagName, s)
		}
		out = append(out, part)
	}
	return out, nil
}

// clusterOptions assembles the balancer configuration from the -cluster
// flag family. Health polling turns on iff -cluster-admin is given.
func clusterOptions(addrs, admins string, routing serve.Routing, hedge bool, quantile float64) (cluster.Options, error) {
	list, err := parseAddrList("-cluster", addrs)
	if err != nil {
		return cluster.Options{}, err
	}
	opts := cluster.Options{
		Addrs:   list,
		Routing: routing,
		// A bounded wait keeps a wedged daemon from pinning loadgen
		// workers forever; the balancer fails over on the timeout.
		Dial:  serve.DialOptions{Timeout: 10 * time.Second},
		Hedge: cluster.HedgeOptions{Enabled: hedge, Quantile: quantile},
	}
	if admins != "" {
		alist, err := parseAddrList("-cluster-admin", admins)
		if err != nil {
			return cluster.Options{}, err
		}
		if len(alist) != len(list) {
			return cluster.Options{}, fmt.Errorf("loadgen: -cluster-admin lists %d addresses for %d -cluster nodes", len(alist), len(list))
		}
		opts.AdminAddrs = alist
		opts.Health.Interval = 200 * time.Millisecond
	}
	return opts, nil
}

// printClusterStats prints the balancer's view of the run: pool-level
// hedging/ejection accounting, then each node's share.
func printClusterStats(w io.Writer, b *cluster.Balancer) {
	c := b.Counters()
	fmt.Fprintf(w, "cluster: %d nodes  requests=%.0f hedges=%.0f hedge-wins=%.0f hedge-losses=%.0f retries=%.0f ejections=%.0f recoveries=%.0f\n",
		b.Nodes(), c["serve/cluster/requests"], c["serve/cluster/hedges"], c["serve/cluster/hedge_wins"],
		c["serve/cluster/hedge_losses"], c["serve/cluster/retries"], c["serve/cluster/ejections"], c["serve/cluster/recoveries"])
	for i, n := range b.NodeStats() {
		state := ""
		if n.Ejected {
			state = "  [ejected]"
		}
		fmt.Fprintf(w, "  node%d %s: req=%d ok=%d err=%d fellback=%d hedges=%d hedge-wins=%d ejections=%d redials=%d%s\n",
			i, n.Addr, n.Requests, n.OKs, n.Errors, n.Fallbacks, n.Hedges, n.HedgeWins, n.Ejections, n.Redials, state)
	}
}

// daemon is one spawned protoaccd child process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // data plane
	admin string // admin plane (/healthz, /faultz)
}

// freeAddr reserves a loopback port by binding :0 and releasing it; the
// child rebinds it a moment later. The window is small and a collision
// fails the spawn loudly, which is fine for a local sweep.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// spawnDaemon starts one protoaccd and waits until its /healthz answers.
// Every sweep daemon gets 2 batch executors so multi-node points measure
// pool scaling, not GOMAXPROCS oversubscription across children.
func spawnDaemon(bin string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", addr, "-admin", admin, "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("loadgen: spawn %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, admin: admin}
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(budget time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get("http://" + d.admin + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: protoaccd %s not healthy after %v", d.addr, budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop drains the daemon (SIGTERM takes its clean-drain path) and
// escalates to SIGKILL if it does not exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// hedgeCell is one hedging-off/on pass of the hedge drill.
type hedgeCell struct {
	hedged    bool
	report    *serve.LoadgenReport
	hedges    float64
	hedgeWins float64
}

// ejectDrill is the ejection/recovery drill's observed timeline.
type ejectDrill struct {
	ejectAfter   time.Duration // fault injected → node ejected
	recoverAfter time.Duration // fault cleared → node restored
	frozen       uint64        // requests the ejected node got while out (want 0)
	requests     uint64
	checkFails   uint64
	counters     map[string]float64
}

// runClusterSweep spawns local protoaccd daemons and measures the
// disaggregated pool: aggregate throughput over 1→2→4 nodes, the hedge
// drill (one slow node; p999 with hedging off vs on), and the ejection
// drill (fault one node live via /faultz, watch /healthz polling eject
// and then restore it). Every response is byte-verified when -check is
// on (the default).
func runClusterSweep(bin string, runOpts serve.LoadgenOptions, schemas []string, ops []serve.Op, mode, out string) error {
	if bin == "" {
		path, err := exec.LookPath("protoaccd")
		if err != nil {
			return fmt.Errorf("loadgen: -cluster-sweep needs a protoaccd binary: %v (go build ./cmd/protoaccd and pass -protoaccd-bin)", err)
		}
		bin = path
	}

	sizes := []int{1, 2, 4}
	var points []*serve.LoadgenReport
	for _, n := range sizes {
		pt, err := runScalingPoint(bin, n, runOpts, schemas, ops)
		if err != nil {
			return err
		}
		points = append(points, pt)
	}

	hedgeCells, err := runHedgeDrill(bin, runOpts, schemas[0], ops[0])
	if err != nil {
		return err
	}
	drill, err := runEjectionDrill(bin, runOpts.Catalog, schemas[0])
	if err != nil {
		return err
	}

	if out != "" {
		if err := writeClusterMarkdown(out, mode, runOpts, sizes, points, hedgeCells, drill); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return nil
}

// runScalingPoint measures one pool size: n fresh daemons, p2c routing,
// hedging off, every (schema, op) pass merged into one report.
func runScalingPoint(bin string, n int, runOpts serve.LoadgenOptions, schemas []string, ops []serve.Op) (*serve.LoadgenReport, error) {
	var ds []*daemon
	for i := 0; i < n; i++ {
		d, err := spawnDaemon(bin)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	defer stopAll(ds)
	addrs := make([]string, len(ds))
	for i, d := range ds {
		addrs[i] = d.addr
	}
	b, err := cluster.New(cluster.Options{Addrs: addrs, Dial: serve.DialOptions{Timeout: 10 * time.Second}})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	_, total, err := runPasses(fmt.Sprintf("nodes=%d ", n), func() (serve.Doer, error) { return b.Client(), nil }, runOpts, schemas, ops)
	if err != nil {
		return nil, err
	}
	printClusterStats(os.Stdout, b)
	if failures := total.CheckFailures + total.Errors; failures > 0 {
		return nil, fmt.Errorf("loadgen: FAILED (%d check failures or transport errors at %d nodes)", failures, n)
	}
	return total, nil
}

// runHedgeDrill measures hedging against a straggler: one healthy node
// and one slow one, round-robin routing so half the traffic lands on the
// straggler, hedging off vs on. The slow node's 60ms batch window holds
// its batches open only because the drill's closed-loop arrivals per key
// are far closer together than 60ms: a key arriving further apart than
// the window is sparse, and its batch would flush at once. With hedging
// on, requests outstanding past the adaptive delay re-issue on the other
// node and the first response wins — the p999 cut the pool exists for.
func runHedgeDrill(bin string, runOpts serve.LoadgenOptions, schema string, op serve.Op) ([2]hedgeCell, error) {
	var cells [2]hedgeCell
	fast, err := spawnDaemon(bin)
	if err != nil {
		return cells, err
	}
	defer fast.stop()
	slow, err := spawnDaemon(bin, "-batch-window", "60ms")
	if err != nil {
		return cells, err
	}
	defer slow.stop()

	for i, hedged := range []bool{false, true} {
		b, err := cluster.New(cluster.Options{
			Addrs:   []string{fast.addr, slow.addr},
			Routing: serve.RouteRoundRobin,
			Dial:    serve.DialOptions{Timeout: 10 * time.Second},
			Hedge: cluster.HedgeOptions{
				Enabled:    hedged,
				Quantile:   0.9,
				Min:        2 * time.Millisecond,
				Max:        20 * time.Millisecond,
				MinSamples: 32,
			},
			// The straggler answers correctly (just late); transport-error
			// ejection must not quietly remove it mid-drill.
			Health: cluster.HealthOptions{ErrorThreshold: -1},
		})
		if err != nil {
			return cells, err
		}
		ro := runOpts
		ro.Dial = func() (serve.Doer, error) { return b.Client(), nil }
		ro.Schema = schema
		ro.Op = op
		rep, err := serve.RunLoadgen(ro)
		if err != nil {
			b.Close()
			return cells, err
		}
		c := b.Counters()
		cells[i] = hedgeCell{hedged: hedged, report: rep, hedges: c["serve/cluster/hedges"], hedgeWins: c["serve/cluster/hedge_wins"]}
		fmt.Printf("hedge=%v ", hedged)
		printReport(os.Stdout, rep)
		printClusterStats(os.Stdout, b)
		b.Close()
		if rep.CheckFailures > 0 || rep.Errors > 0 {
			return cells, fmt.Errorf("loadgen: FAILED (hedge drill: check failures=%d errors=%d)", rep.CheckFailures, rep.Errors)
		}
	}
	if cells[1].hedges == 0 || cells[1].hedgeWins == 0 {
		return cells, fmt.Errorf("loadgen: hedge drill sent %.0f hedges with %.0f wins; expected hedging against the slow node", cells[1].hedges, cells[1].hedgeWins)
	}
	return cells, nil
}

// faultzSet swaps one tile's live fault schedule on a daemon via its
// /faultz admin control; spec "off" stops injection.
func faultzSet(admin string, tile int, spec string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	url := fmt.Sprintf("http://%s/faultz?tile=%d&faults=%s", admin, tile, spec)
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("loadgen: /faultz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("loadgen: /faultz returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// runEjectionDrill faults one of two daemons live via /faultz and
// watches the balancer's /healthz polling take it out of rotation and —
// once the faults stop — put it back. EjectDwell is set far beyond the
// drill so data-path probing can't mask the poll path: only clean polls
// restore the node. Traffic runs through the whole timeline, every
// response byte-verified (faulted requests fall back to the software
// codec, which still answers canonical bytes).
func runEjectionDrill(bin string, catalog *serve.Catalog, schema string) (*ejectDrill, error) {
	healthy, err := spawnDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer healthy.stop()
	victim, err := spawnDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer victim.stop()

	b, err := cluster.New(cluster.Options{
		Addrs:      []string{healthy.addr, victim.addr},
		AdminAddrs: []string{healthy.admin, victim.admin},
		Routing:    serve.RouteRoundRobin,
		Dial:       serve.DialOptions{Timeout: 10 * time.Second},
		Health: cluster.HealthOptions{
			Interval:       25 * time.Millisecond,
			SickPolls:      2,
			HealthyPolls:   2,
			EjectDwell:     time.Hour,
			ErrorThreshold: -1,
		},
	})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	entry := catalog.Lookup(schema)
	if entry == nil {
		return nil, fmt.Errorf("loadgen: unknown schema %q", schema)
	}
	var requests, checkFails atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := entry.SamplePayload(i)
			resp, err := b.Do(serve.Request{Op: serve.OpDeserialize, Schema: schema, Payload: payload})
			requests.Add(1)
			if err != nil || resp.Status != serve.StatusOK || !bytes.Equal(resp.Payload, payload) {
				checkFails.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var stopOnce sync.Once
	stopTraffic := func() {
		stopOnce.Do(func() {
			close(stop)
			wg.Wait()
		})
	}
	defer stopTraffic()

	const victimID = 1
	waitState := func(ejected bool, budget time.Duration) (time.Duration, error) {
		start := time.Now()
		for {
			if b.NodeStats()[victimID].Ejected == ejected {
				return time.Since(start), nil
			}
			if time.Since(start) > budget {
				return 0, fmt.Errorf("loadgen: ejection drill: victim never reached ejected=%v within %v", ejected, budget)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Let traffic reach both nodes first.
	time.Sleep(250 * time.Millisecond)

	// Fault the victim's tile 0: /healthz marks the tile degraded the
	// moment the schedule is live, no failing traffic needed.
	drill := &ejectDrill{}
	if err := faultzSet(victim.admin, 0, "0.9"); err != nil {
		return nil, err
	}
	if drill.ejectAfter, err = waitState(true, 10*time.Second); err != nil {
		return nil, err
	}
	fmt.Printf("ejection drill: victim ejected %v after fault injection\n", drill.ejectAfter.Round(time.Millisecond))

	// While ejected the victim must get no traffic at all.
	before := b.NodeStats()[victimID].Requests
	time.Sleep(300 * time.Millisecond)
	drill.frozen = b.NodeStats()[victimID].Requests - before

	if err := faultzSet(victim.admin, 0, "off"); err != nil {
		return nil, err
	}
	if drill.recoverAfter, err = waitState(false, 10*time.Second); err != nil {
		return nil, err
	}
	fmt.Printf("ejection drill: victim restored %v after fault clear\n", drill.recoverAfter.Round(time.Millisecond))

	// Traffic must return to the restored node.
	back := b.NodeStats()[victimID].Requests
	start := time.Now()
	for b.NodeStats()[victimID].Requests == back {
		if time.Since(start) > 5*time.Second {
			return nil, fmt.Errorf("loadgen: ejection drill: traffic never returned to the restored node")
		}
		time.Sleep(5 * time.Millisecond)
	}

	stopTraffic()
	drill.requests = requests.Load()
	drill.checkFails = checkFails.Load()
	drill.counters = b.Counters()
	printClusterStats(os.Stdout, b)
	if drill.checkFails > 0 {
		return nil, fmt.Errorf("loadgen: FAILED (ejection drill: %d of %d responses failed the byte check)", drill.checkFails, drill.requests)
	}
	if drill.frozen > 0 {
		return nil, fmt.Errorf("loadgen: FAILED (ejection drill: ejected node received %d requests)", drill.frozen)
	}
	return drill, nil
}

// writeClusterMarkdown writes the disaggregated-pool report (overwriting
// path): scaling table, hedge drill, ejection timeline.
func writeClusterMarkdown(path, mode string, runOpts serve.LoadgenOptions, sizes []int, points []*serve.LoadgenReport, hedge [2]hedgeCell, drill *ejectDrill) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Disaggregated accelerator pool (loadgen -cluster-sweep)\n\n")
	fmt.Fprintf(f, "Mode: %s, concurrency %d, %v per pass, GOMAXPROCS=%d, %s.\n",
		mode, runOpts.Concurrency, runOpts.Duration, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "Every daemon is a real protoaccd child process (2 batch executors each)\n")
	fmt.Fprintf(f, "on loopback; the client side is internal/serve/cluster's balancer. All\n")
	fmt.Fprintf(f, "responses were byte-verified against the canonical payloads.\n\n")

	fmt.Fprintf(f, "## Aggregate throughput vs pool size\n\n")
	fmt.Fprintf(f, "p2c routing over live in-flight × latency estimates, hedging off; req/s\n")
	fmt.Fprintf(f, "aggregates every (schema, op) pass, speedup is relative to one daemon.\n\n")
	fmt.Fprintf(f, "| nodes | req/s | speedup | ok | fellback | p50 | p99 | p999 |\n")
	fmt.Fprintf(f, "|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	base := 0.0
	if len(points) > 0 {
		base = points[0].RPS()
	}
	for i, p := range points {
		speedup := 0.0
		if base > 0 {
			speedup = p.RPS() / base
		}
		fmt.Fprintf(f, "| %d | %.0f | %.2fx | %d | %d | %v | %v | %v |\n",
			sizes[i], p.RPS(), speedup, p.OK, p.FellBack,
			p.Latency.Quantile(0.50), p.Latency.Quantile(0.99), p.Latency.Quantile(0.999))
	}

	offRep, onRep := hedge[0].report, hedge[1].report
	fmt.Fprintf(f, "\n## Hedge drill: straggler node, hedging off vs on\n\n")
	fmt.Fprintf(f, "Two daemons, one slowed by a 60ms batch window (every response waits out\n")
	fmt.Fprintf(f, "the coalescing timer), round-robin routing so half the traffic hits the\n")
	fmt.Fprintf(f, "straggler. With hedging on, a request outstanding past the adaptive delay\n")
	fmt.Fprintf(f, "(p90 of observed OK latency, clamped to [2ms, 20ms]) re-issues on the\n")
	fmt.Fprintf(f, "other node and the first response wins; the loser completes and is\n")
	fmt.Fprintf(f, "discarded.\n\n")
	fmt.Fprintf(f, "| hedging | req/s | p50 | p99 | p999 | hedges | hedge wins |\n")
	fmt.Fprintf(f, "|---|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range hedge {
		fmt.Fprintf(f, "| %v | %.0f | %v | %v | %v | %.0f | %.0f |\n",
			c.hedged, c.report.RPS(),
			c.report.Latency.Quantile(0.50), c.report.Latency.Quantile(0.99), c.report.Latency.Quantile(0.999),
			c.hedges, c.hedgeWins)
	}
	offP999 := offRep.Latency.Quantile(0.999)
	onP999 := onRep.Latency.Quantile(0.999)
	if offP999 > 0 {
		fmt.Fprintf(f, "\np999 %v → %v (%.1f%% of the unhedged tail), p99 %v → %v.\n",
			offP999, onP999, float64(onP999)/float64(offP999)*100,
			offRep.Latency.Quantile(0.99), onRep.Latency.Quantile(0.99))
	}

	fmt.Fprintf(f, "\n## Ejection drill: live fault, /healthz-driven ejection and recovery\n\n")
	fmt.Fprintf(f, "Two daemons under steady byte-verified traffic, /healthz polled every\n")
	fmt.Fprintf(f, "25ms (2 sick polls eject, 2 clean polls restore; probe dwell parked so\n")
	fmt.Fprintf(f, "only polling can restore). Fault injection is switched on the victim's\n")
	fmt.Fprintf(f, "tile live via /faultz, which marks the tile degraded in /healthz.\n\n")
	fmt.Fprintf(f, "| event | observed |\n")
	fmt.Fprintf(f, "|---|---|\n")
	fmt.Fprintf(f, "| fault injected → node ejected | %v |\n", drill.ejectAfter.Round(time.Millisecond))
	fmt.Fprintf(f, "| requests to the node while ejected (over 300ms) | %d |\n", drill.frozen)
	fmt.Fprintf(f, "| fault cleared → node restored | %v |\n", drill.recoverAfter.Round(time.Millisecond))
	fmt.Fprintf(f, "| drill requests (all byte-verified) | %d |\n", drill.requests)
	fmt.Fprintf(f, "| check failures | %d |\n", drill.checkFails)
	fmt.Fprintf(f, "\nserve/cluster counters at drill end: ejections=%.0f recoveries=%.0f\n",
		drill.counters["serve/cluster/ejections"], drill.counters["serve/cluster/recoveries"])
	fmt.Fprintf(f, "requests=%.0f retries=%.0f.\n",
		drill.counters["serve/cluster/requests"], drill.counters["serve/cluster/retries"])
	return nil
}
