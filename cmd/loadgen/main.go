// Command loadgen drives a protoaccd with closed-loop (saturating) or
// open-loop (paced) load and reports request throughput and latency
// percentiles (p50/p99/p999 from log-linear histograms merged across
// workers). Open-loop latency is coordinated-omission-free: samples are
// measured from the scheduled send time, so queueing delay under
// overload lands in the tail percentiles instead of being silently
// dropped.
//
// Usage:
//
//	loadgen [-addr host:port] [-admin-url url] [-schema name]
//	        [-op deser|ser|both]
//	        [-duration d] [-concurrency n] [-rate rps] [-skew s] [-timeout d]
//	        [-check] [-out file] [-scrape file] [-trace-out file]
//	        [-tiles n] [-routing p2c|rr] [-tile-sweep 1,2,4]
//	        [-elements all|off|admission,breaker,cache] [-elements-sweep]
//	        [-workload trace|chain|all] [-trace-seed n] [-trace-len n] [-hops n]
//	        [-cluster host:port,host:port] [-cluster-admin host:port,...]
//	        [-cluster-routing p2c|rr] [-hedge] [-hedge-quantile q]
//	        [-cluster-sweep] [-protoaccd-bin path]
//	        [-workers n] [-max-batch n] [-batch-window d] [-queue-depth n]
//	        [-faults rate[@site,...]] [-fault-seed n] [-fault-tiles 0,2]
//	        [-stats-out file] [-span-sample-n n]
//
// -skew s draws payloads from a Zipf(s) distribution over the schema's
// sample set instead of walking it uniformly — hot-key traffic, the shape
// the daemon's response-cache element exists for (s must exceed 1; larger
// is more skewed).
//
// -elements-sweep measures the element chain's effect on skewed traffic
// (chain off vs on at several skew levels, fresh in-process server per
// cell) and runs a breaker trip/recovery drill against a part-faulted
// fleet — the measurement behind results/serve_elements.md.
//
// -workload replaces the per-(schema, op) passes with fleet-shaped
// workloads from internal/workloads: "trace" replays a seeded,
// deterministic key/size/op trace (schema mix and payload sizes shaped
// by the fleet study, Zipf-ranked key popularity), "chain" drives a
// 2–3 hop service chain (frontend → kv → backend [→ store]) where every
// hop's serialize and deserialize runs on the accelerated serving path,
// and "all" does both — the measurement behind results/serve_workloads.md.
// -trace-seed, -trace-len, and -hops tune it; both modes work against an
// in-process server or a live daemon via -addr.
//
// -cluster drives a pool of already-running protoaccd daemons through
// the client-side balancer (internal/serve/cluster): p2c or rr node
// placement over live in-flight/latency estimates, optional straggler
// hedging (-hedge), and — with -cluster-admin — /healthz-driven node
// ejection and recovery. -cluster-sweep instead spawns its own local
// daemons (binary named by -protoaccd-bin) and runs the
// disaggregated-pool measurement: aggregate throughput scaling over
// 1→2→4 daemons, a hedge drill against a deliberately slow node (p999
// with hedging off vs on), and a live-fault ejection/recovery drill via
// /faultz — the measurement behind results/serve_cluster.md.
//
// With -addr it dials an already-running daemon over TCP (one connection
// per worker). Without -addr it starts an in-process server and drives it
// through the direct client — the zero-network configuration the checked
// in results/serve_throughput.md is measured with. The server flags it
// shares with protoaccd (serve.Options.RegisterFlags), -tile-sweep,
// -elements-sweep and -stats-out configure that in-process server; -addr
// rejects each of them when given, even at its default value.
//
// -scrape writes an observability report pairing the client-observed
// latency percentiles with the server-side stage breakdown (queue wait,
// coalesce wait, batch build, execute, respond write) — the measurement
// behind results/serve_observability.md. Against an in-process server the
// breakdown is read directly; with -addr it comes from the daemon's admin
// endpoint, named by -admin-url, which loadgen scrapes at ~10Hz for the
// whole run (each tick also validates the /metrics Prometheus exposition
// parses). -trace-out saves the sampled lifecycle spans as Perfetto trace
// JSON (in-process with -span-sample-n, or fetched from -admin-url).
//
// -tile-sweep runs the whole pass set once per listed tile count, each
// against a fresh in-process server, and reports throughput scaling over
// the first entry — the measurement behind results/serve_tiles.md.
//
// -check verifies every OK response is byte-identical to its request
// payload (sample payloads are canonical, so the serving contract makes
// response == request for both operations, even under -faults).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"protoacc/internal/faults"
	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
	"protoacc/internal/serve/elements"
	"protoacc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "", "protoaccd address; empty starts an in-process server")
	schema := flag.String("schema", "varint", "catalog schema to exercise, or \"all\"")
	op := flag.String("op", "both", "operation mix: deser, ser, or both (one pass per op)")
	duration := flag.Duration("duration", 2*time.Second, "length of each pass")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers (each owns one connection)")
	rate := flag.Float64("rate", 0, "open-loop aggregate requests/sec (0 = closed loop)")
	skew := flag.Float64("skew", 0, "Zipf skew s over the schema's sample payloads (>1 = hot-key traffic; 0 = uniform walk)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = server default)")
	check := flag.Bool("check", true, "verify each OK response is byte-identical to its payload")
	out := flag.String("out", "", "write a markdown report to this file (e.g. results/serve_throughput.md)")
	scrape := flag.String("scrape", "", "write an observability report (client latency + server stage breakdown) to this markdown file; with -addr requires -admin-url")
	adminURL := flag.String("admin-url", "", "admin endpoint base URL of the -addr daemon (e.g. http://127.0.0.1:7412); scraped at ~10Hz during passes")
	traceOut := flag.String("trace-out", "", "write sampled lifecycle spans as Perfetto trace JSON to this file (in-process: enable -span-sample-n; with -addr: fetched from -admin-url /spans)")

	workload := flag.String("workload", "", "fleet-shaped workload mode: trace (replay a synthesized trace), chain (2–3 hop service chain), or all")
	traceSeed := flag.Int64("trace-seed", 1, "seed of the synthesized workload trace (same seed = same trace)")
	traceLen := flag.Int("trace-len", 0, "records in the synthesized workload trace (0 = default 4096)")
	hops := flag.Int("hops", 2, "service-chain length in edges for -workload chain (1..3: frontend→kv→backend→store)")

	clusterAddrs := flag.String("cluster", "", "comma-separated protoaccd data addresses; drives the pool through the client-side balancer")
	clusterAdmin := flag.String("cluster-admin", "", "comma-separated admin addresses parallel to -cluster; enables /healthz polling and node ejection")
	var clusterRouting serve.Routing
	flag.Var(&clusterRouting, "cluster-routing", `balancer node placement: p2c (in-flight × latency scoring) or rr (deterministic round-robin) (default "p2c")`)
	hedge := flag.Bool("hedge", false, "hedge straggler requests against a second node after an adaptive quantile delay (needs ≥2 cluster nodes)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.95, "OK-latency quantile the hedge delay adapts to")
	clusterSweep := flag.Bool("cluster-sweep", false, "spawn local protoaccd daemons and run the disaggregated-pool measurement (1→2→4 scaling, hedge drill, ejection drill); writes -out")
	protoaccdBin := flag.String("protoaccd-bin", "", "protoaccd binary for -cluster-sweep (empty = find \"protoaccd\" in PATH)")

	// The in-process server's flags are the set protoaccd binds too;
	// server keeps their names for the conflict checks below.
	opts := serve.Options{Catalog: serve.DefaultCatalog()}
	var server flag.FlagSet
	opts.RegisterFlags(&server)
	server.VisitAll(func(f *flag.Flag) { flag.Var(f.Value, f.Name, "in-process server: "+f.Usage) })
	tileSweep := flag.String("tile-sweep", "", "run every pass once per tile count in this comma list (e.g. 1,2,4) and report scaling; implies in-process servers")
	elementsSweep := flag.Bool("elements-sweep", false, "run the skewed-traffic element comparison (chain off vs on at several skew levels, plus a breaker trip/recovery drill) and report; implies in-process servers")
	statsOut := flag.String("stats-out", "", "in-process server: write merged telemetry counters on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run (loadgen + in-process server) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var serverFlags, clusterFlags []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tile-sweep", "elements-sweep", "stats-out":
			serverFlags = append(serverFlags, "-"+f.Name)
		case "cluster-admin", "cluster-routing", "hedge", "hedge-quantile", "protoaccd-bin":
			clusterFlags = append(clusterFlags, "-"+f.Name)
		default:
			if server.Lookup(f.Name) != nil {
				serverFlags = append(serverFlags, "-"+f.Name)
			}
		}
	})
	if *addr != "" && len(serverFlags) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: in-process server flags conflict with -addr: %s\n", strings.Join(serverFlags, " "))
		os.Exit(2)
	}
	clusterMode := *clusterAddrs != "" || *clusterSweep
	if len(clusterFlags) > 0 && !clusterMode {
		fmt.Fprintf(os.Stderr, "loadgen: cluster flags need -cluster or -cluster-sweep: %s\n", strings.Join(clusterFlags, " "))
		os.Exit(2)
	}
	if *clusterAddrs != "" && *clusterSweep {
		fmt.Fprintln(os.Stderr, "loadgen: -cluster-sweep spawns its own daemons and conflicts with -cluster")
		os.Exit(2)
	}
	if clusterMode && (*addr != "" || len(serverFlags) > 0) {
		fmt.Fprintln(os.Stderr, "loadgen: -cluster/-cluster-sweep replace the single -addr target and do not combine with -addr or the in-process server flags")
		os.Exit(2)
	}
	if clusterMode && (*workload != "" || *scrape != "" || *traceOut != "" || *adminURL != "") {
		fmt.Fprintln(os.Stderr, "loadgen: -cluster/-cluster-sweep do not combine with -workload, -scrape, -trace-out, or -admin-url")
		os.Exit(2)
	}
	if *workload != "" && (*tileSweep != "" || *elementsSweep || *scrape != "") {
		fmt.Fprintln(os.Stderr, "loadgen: -workload does not combine with -tile-sweep, -elements-sweep, or -scrape")
		os.Exit(2)
	}
	if *elementsSweep && *tileSweep != "" {
		fmt.Fprintln(os.Stderr, "loadgen: -elements-sweep does not combine with -tile-sweep")
		os.Exit(2)
	}
	if *elementsSweep && *scrape != "" {
		fmt.Fprintln(os.Stderr, "loadgen: -scrape does not combine with -elements-sweep (one report per server)")
		os.Exit(2)
	}
	if *adminURL != "" && *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -admin-url names a remote daemon's admin endpoint and needs -addr (the in-process server is read directly)")
		os.Exit(2)
	}
	if *addr != "" && (*scrape != "" || *traceOut != "") && *adminURL == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -scrape/-trace-out against a remote daemon need -admin-url")
		os.Exit(2)
	}
	if *scrape != "" && *tileSweep != "" {
		fmt.Fprintln(os.Stderr, "loadgen: -scrape does not combine with -tile-sweep (one report per server)")
		os.Exit(2)
	}
	catalog := opts.Catalog
	var schemas []string
	if *schema == "all" {
		schemas = catalog.Names()
	} else {
		schemas = []string{*schema}
	}
	var ops []serve.Op
	switch *op {
	case "deser":
		ops = []serve.Op{serve.OpDeserialize}
	case "ser":
		ops = []serve.Op{serve.OpSerialize}
	case "both":
		ops = []serve.Op{serve.OpDeserialize, serve.OpSerialize}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -op %q\n", *op)
		os.Exit(2)
	}

	mode := "closed-loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f/s", *rate)
	}

	runOpts := serve.LoadgenOptions{
		Catalog:     catalog,
		Duration:    *duration,
		Concurrency: *concurrency,
		RatePerSec:  *rate,
		ZipfS:       *skew,
		Timeout:     *timeout,
		Check:       *check,
	}

	if *tileSweep != "" {
		counts, err := parseSweep(*tileSweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("loadgen: tile sweep %v, %s, concurrency %d, %v per pass\n", counts, mode, *concurrency, *duration)
		if err := runSweep(counts, opts, runOpts, schemas, ops, mode, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *elementsSweep {
		fmt.Printf("loadgen: elements sweep, %s, concurrency %d, %v per pass\n", mode, *concurrency, *duration)
		if err := runElementsSweep(opts, runOpts, schemas, ops, mode, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *clusterSweep {
		fmt.Printf("loadgen: cluster sweep, %s, concurrency %d, %v per pass\n", mode, *concurrency, *duration)
		if err := runClusterSweep(*protoaccdBin, runOpts, schemas, ops, mode, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var dial func() (serve.Doer, error)
	var srv *serve.Server
	var bal *cluster.Balancer
	target := *addr
	switch {
	case *clusterAddrs != "":
		copts, err := clusterOptions(*clusterAddrs, *clusterAdmin, clusterRouting, *hedge, *hedgeQuantile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bal, err = cluster.New(copts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dial = func() (serve.Doer, error) { return bal.Client(), nil }
		target = fmt.Sprintf("cluster of %d nodes (routing=%s hedge=%v)", bal.Nodes(), clusterRouting, *hedge)
	case *addr == "":
		srv, err = serve.NewServer(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dial = func() (serve.Doer, error) { return srv.InProc(), nil }
		target = fmt.Sprintf("in-process (tiles=%d routing=%s workers=%d)", srv.Tiles(), srv.Routing(), srv.Workers())
	default:
		dial = func() (serve.Doer, error) { return serve.Dial(*addr) }
	}
	// closeServer drains the in-process server, if there is one, and
	// writes its telemetry to -stats-out.
	closeServer := func() {
		if srv == nil {
			return
		}
		srv.Close()
		if *statsOut == "" {
			return
		}
		m := telemetry.NewManifest("loadgen "+strings.Join(os.Args[1:], " "), srv.ConfigFingerprint(), srv.Workers())
		if err := telemetry.WriteStatsFile(*statsOut, m, srv.TelemetrySnapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("server telemetry written to %s\n", *statsOut)
	}

	if *workload != "" {
		err := runWorkloads(workloadsRun{
			mode:    *workload,
			seed:    *traceSeed,
			records: *traceLen,
			hops:    *hops,
			workers: *concurrency,
			timeout: *timeout,
			check:   *check,
			catalog: catalog,
			dial:    dial,
			target:  target,
			out:     *out,
		})
		closeServer()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("loadgen: target %s, %s, concurrency %d, %v per pass\n", target, mode, *concurrency, *duration)

	var sc *scraper
	if *adminURL != "" {
		sc = startScraper(*adminURL)
	}

	reports, total, err := runPasses("", dial, runOpts, schemas, ops)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	failed := total.CheckFailures > 0 || total.Errors > 0

	if sc != nil {
		sc.stop()
		fmt.Printf("loadgen: admin scrape: %d ticks, %d scrape errors, %d exposition errors\n",
			sc.scrapes, sc.failures, sc.invalid)
		if sc.invalid > 0 || sc.scrapes == 0 {
			failed = true
		}
	}

	if bal != nil {
		printClusterStats(os.Stdout, bal)
		bal.Close()
	}

	if *out != "" {
		if err := writeMarkdown(*out, mode, *concurrency, *duration, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	closeServer()

	// Observability artifacts: the server-side view comes from the
	// in-process server directly, or from the admin scraper's last
	// /statusz capture against a remote daemon.
	var status *serve.Statusz
	if srv != nil {
		status = srv.StatuszSnapshot(nil)
	} else if sc != nil {
		status = sc.last
	}
	if *scrape != "" {
		if status == nil {
			fmt.Fprintln(os.Stderr, "loadgen: -scrape: no server-side snapshot captured (is -admin-url reachable?)")
			os.Exit(1)
		}
		if err := writeObsMarkdown(*scrape, mode, *concurrency, *duration, reports, status, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability report written to %s\n", *scrape)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, srv, *adminURL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("span trace written to %s\n", *traceOut)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "loadgen: FAILED (check failures, transport errors, or admin scrape errors)")
		os.Exit(1)
	}
}

// runPasses runs one pass per (schema, op) against dial, printing each
// report after label, and returns the passes and their merged sum.
func runPasses(label string, dial func() (serve.Doer, error), runOpts serve.LoadgenOptions, schemas []string, ops []serve.Op) ([]*serve.LoadgenReport, *serve.LoadgenReport, error) {
	var reports []*serve.LoadgenReport
	total := &serve.LoadgenReport{}
	for _, name := range schemas {
		for _, op := range ops {
			ro := runOpts
			ro.Dial = dial
			ro.Schema = name
			ro.Op = op
			rep, err := serve.RunLoadgen(ro)
			if err != nil {
				return nil, nil, err
			}
			fmt.Print(label)
			printReport(os.Stdout, rep)
			reports = append(reports, rep)
			total.Merge(rep)
		}
	}
	return reports, total, nil
}

// scraper polls a daemon's admin endpoint at ~10Hz for the whole run:
// each tick fetches /statusz (keeping the last decoded snapshot) and
// validates the /metrics Prometheus exposition parses — exercising the
// scrape path concurrently with serving traffic is exactly the condition
// the observability plane's determinism guard covers.
type scraper struct {
	base   string
	stopCh chan struct{}
	doneCh chan struct{}

	last     *serve.Statusz
	scrapes  int // successful /statusz captures
	failures int // transport/decode errors
	invalid  int // /metrics expositions that failed validation
}

func startScraper(base string) *scraper {
	sc := &scraper{base: strings.TrimSuffix(base, "/"), stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	client := &http.Client{Timeout: 2 * time.Second}
	go func() {
		defer close(sc.doneCh)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			sc.tick(client)
			select {
			case <-sc.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return sc
}

func (sc *scraper) tick(client *http.Client) {
	resp, err := client.Get(sc.base + "/statusz")
	if err != nil {
		sc.failures++
		return
	}
	var doc serve.Statusz
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		sc.failures++
		return
	}
	sc.last = &doc
	sc.scrapes++

	mresp, err := client.Get(sc.base + "/metrics")
	if err != nil {
		sc.failures++
		return
	}
	err = telemetry.ValidatePrometheus(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: /metrics exposition invalid:", err)
		sc.invalid++
	}
}

// stop ends the polling loop and waits for the in-flight tick.
func (sc *scraper) stop() {
	close(sc.stopCh)
	<-sc.doneCh
}

// writeTrace saves the sampled lifecycle spans as Perfetto trace JSON,
// from the in-process server or the remote daemon's /spans endpoint.
func writeTrace(path string, srv *serve.Server, adminURL string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if srv != nil {
		return telemetry.WritePerfetto(f, srv.SpanEvents())
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(adminURL, "/") + "/spans")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: /spans returned %s", resp.Status)
	}
	_, err = io.Copy(f, resp.Body)
	return err
}

// writeObsMarkdown writes the observability report: the client-observed
// latency of each pass next to the server's own stage breakdown, so time
// attributed inside the daemon (queue wait, coalescing, batch build,
// execute, respond) can be read against the end-to-end percentiles the
// client saw.
func writeObsMarkdown(path, mode string, concurrency int, duration time.Duration, reports []*serve.LoadgenReport, status *serve.Statusz, sc *scraper) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Serving observability (loadgen -scrape)\n\n")
	fmt.Fprintf(f, "Mode: %s, concurrency %d, %v per pass, GOMAXPROCS=%d, %s.\n",
		mode, concurrency, duration, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "Server: tiles=%d routing=%s workers=%d max-batch=%d cycle-mode=%s span-sample-n=%d.\n",
		status.Config.Tiles, status.Config.Routing, status.Config.Workers,
		status.Config.MaxBatch, status.Config.CycleMode, status.Config.SpanSampleN)
	if sc != nil {
		fmt.Fprintf(f, "Server-side view scraped from the admin endpoint at ~10Hz under load: %d ticks, %d scrape errors, %d exposition errors.\n",
			sc.scrapes, sc.failures, sc.invalid)
	} else {
		fmt.Fprintf(f, "Server-side view read from the in-process server after the passes.\n")
	}
	fmt.Fprintf(f, "\n## Client-observed latency\n\n")
	fmt.Fprintf(f, "| schema | op | req/s | ok | p50 | p99 | p999 | mean |\n")
	fmt.Fprintf(f, "|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range reports {
		fmt.Fprintf(f, "| %s | %s | %.0f | %d | %v | %v | %v | %v |\n",
			r.Schema, r.Op, r.RPS(), r.OK,
			r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999), r.Latency.Mean())
	}
	fmt.Fprintf(f, "\n## Server-side stage breakdown (merged across tiles)\n\n")
	fmt.Fprintf(f, "batch_size is in requests per executed batch; every other row is time per\n")
	fmt.Fprintf(f, "request in that lifecycle stage. e2e spans admit to respond and is the\n")
	fmt.Fprintf(f, "server-side counterpart of the client percentiles above (minus transport).\n\n")
	fmt.Fprintf(f, "| stage | count | p50 | p99 | max | mean |\n")
	fmt.Fprintf(f, "|---|---:|---:|---:|---:|---:|\n")
	for _, st := range status.Stages {
		if st.Stage == "batch_size" {
			fmt.Fprintf(f, "| %s | %d | %d | %d | %d | %d |\n",
				st.Stage, st.Count, st.P50NS, st.P99NS, st.MaxNS, st.MeanNS)
			continue
		}
		fmt.Fprintf(f, "| %s | %d | %v | %v | %v | %v |\n",
			st.Stage, st.Count,
			time.Duration(st.P50NS), time.Duration(st.P99NS),
			time.Duration(st.MaxNS), time.Duration(st.MeanNS))
	}
	if status.Spans.SampleN > 0 {
		fmt.Fprintf(f, "\nSpans: 1-in-%d sampling, %d sampled, %d completed, %d overwritten, %d buffered.\n",
			status.Spans.SampleN, status.Spans.Sampled, status.Spans.Completed,
			status.Spans.Dropped, status.Spans.Buffered)
	}
	return nil
}

// parseSweep parses the -tile-sweep comma list.
func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("loadgen: bad tile count %q in -tile-sweep", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runSweep measures each tile count against a fresh in-process server and
// writes the scaling report.
func runSweep(counts []int, opts serve.Options, runOpts serve.LoadgenOptions, schemas []string, ops []serve.Op, mode, out string) error {
	var totals []*serve.LoadgenReport
	failed := false
	for _, n := range counts {
		o := opts
		o.Tiles = n
		srv, err := serve.NewServer(o)
		if err != nil {
			return err
		}
		_, total, err := runPasses(fmt.Sprintf("tiles=%d ", n), func() (serve.Doer, error) { return srv.InProc(), nil }, runOpts, schemas, ops)
		srv.Close()
		if err != nil {
			return err
		}
		if total.CheckFailures > 0 || total.Errors > 0 {
			failed = true
		}
		totals = append(totals, total)
	}
	if out != "" {
		if err := writeSweepMarkdown(out, mode, runOpts.Concurrency, runOpts.Duration, counts, totals); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	if failed {
		return fmt.Errorf("loadgen: FAILED (check failures or transport errors during sweep)")
	}
	return nil
}

// writeSweepMarkdown writes the tile-scaling table (overwriting path).
// Speedup is aggregate req/s relative to the sweep's first entry.
func writeSweepMarkdown(path, mode string, concurrency int, duration time.Duration, counts []int, totals []*serve.LoadgenReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Serving throughput vs tile count (loadgen -tile-sweep)\n\n")
	fmt.Fprintf(f, "Mode: %s, concurrency %d, %v per pass, GOMAXPROCS=%d, %s.\n",
		mode, concurrency, duration, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "Each row is a fresh in-process server; req/s aggregates every (schema, op)\n")
	fmt.Fprintf(f, "pass at that tile count, and speedup is relative to the first row — the\n")
	fmt.Fprintf(f, "single-pool baseline when the sweep starts at 1 tile. Latency percentiles\n")
	fmt.Fprintf(f, "are per successful request, measured client-side.\n\n")
	fmt.Fprintf(f, "| tiles | req/s | speedup | ok | shed | fellback | p50 | p99 | p999 |\n")
	fmt.Fprintf(f, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	base := 0.0
	if len(totals) > 0 {
		base = totals[0].RPS()
	}
	for i, p := range totals {
		speedup := 0.0
		if base > 0 {
			speedup = p.RPS() / base
		}
		fmt.Fprintf(f, "| %d | %.0f | %.2fx | %d | %d | %d | %v | %v | %v |\n",
			counts[i], p.RPS(), speedup, p.OK, p.Shed, p.FellBack,
			p.Latency.Quantile(0.50), p.Latency.Quantile(0.99), p.Latency.Quantile(0.999))
	}
	return nil
}

// elemPoint is one (skew, chain on/off) cell of the elements sweep: its
// (schema, op) passes merged, plus the cell's cache counters.
type elemPoint struct {
	*serve.LoadgenReport
	skew    float64
	elems   string // elements spec of the cell ("off" or the enabled list)
	hits    uint64 // cache hits (0 with the chain off)
	lookups uint64 // cache lookups (0 with the chain off)
}

func (p *elemPoint) hitRate() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.lookups)
}

// runElementsSweep measures the element chain's effect on skewed traffic
// (chain off vs on at several Zipf skew levels, fresh in-process server
// per cell), then runs a breaker drill — one faulted tile out of four,
// injection stopped mid-pass — and writes the combined report with the
// breaker's trip/recovery timeline from the server's own /statusz view.
func runElementsSweep(opts serve.Options, runOpts serve.LoadgenOptions, schemas []string, ops []serve.Op, mode, out string) error {
	// The chain-on cells run all three elements, with the admission fill
	// rate set high enough to be transparent: the cells compare the cache
	// (and the chain's overhead), not rate-limit policy, and a closed-loop
	// worker would blow through any realistic per-client budget.
	chainOn := elements.Config{
		Admission: true, Breaker: true, Cache: true,
		FillRate: 1e9,
	}
	var points []*elemPoint
	failed := false
	for _, skew := range []float64{0, 1.2, 2.0} {
		for _, on := range []bool{false, true} {
			o := opts
			if on {
				o.Elements = chainOn
			} else {
				o.Elements = elements.Config{}
			}
			srv, err := serve.NewServer(o)
			if err != nil {
				return err
			}
			ro := runOpts
			ro.ZipfS = skew
			pt := &elemPoint{skew: skew, elems: o.Elements.Spec()}
			_, pt.LoadgenReport, err = runPasses(fmt.Sprintf("skew=%.1f elements=%s ", skew, pt.elems), func() (serve.Doer, error) { return srv.InProc(), nil }, ro, schemas, ops)
			if err != nil {
				srv.Close()
				return err
			}
			if c := srv.Elements(); c != nil && c.Cache != nil {
				pt.lookups, pt.hits, _, _, _, _ = c.Cache.Stats()
			}
			srv.Close()
			if pt.CheckFailures > 0 || pt.Errors > 0 {
				failed = true
			}
			points = append(points, pt)
		}
	}

	// Breaker drill: four tiles, a heavy fault schedule on tile 1 only,
	// breaker tuned to trip fast; injection stops halfway through the pass
	// so the half-open probes re-admit the tile within the run. The cache
	// stays off — a hit bypasses the tiles, and the drill needs the
	// faulted tile to keep seeing traffic.
	drill := opts
	drill.Tiles = 4
	drill.FaultTiles = []int{1}
	drill.Faults = faults.Config{Enabled: true, Seed: 1, Rate: 0.9}
	drill.Elements = elements.Config{
		Breaker: true,
		Window:  250 * time.Millisecond, TripRate: 0.3, MinVolume: 8,
		OpenFor: 200 * time.Millisecond, Probes: 4,
	}
	srv, err := serve.NewServer(drill)
	if err != nil {
		return err
	}
	clearAt := runOpts.Duration / 2
	timer := time.AfterFunc(clearAt, func() {
		if err := srv.SetTileFaults(1, faults.Config{}); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: breaker drill fault clear:", err)
		}
	})
	ro := runOpts
	ro.Dial = func() (serve.Doer, error) { return srv.InProc(), nil }
	ro.Schema = schemas[0]
	ro.Op = ops[0]
	drillRep, err := serve.RunLoadgen(ro)
	timer.Stop()
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Printf("breaker drill ")
	printReport(os.Stdout, drillRep)
	drillStatus := srv.StatuszSnapshot(nil)
	srv.Close()
	if drillRep.CheckFailures > 0 || drillRep.Errors > 0 {
		failed = true
	}
	if drillStatus.Elements == nil || drillStatus.Elements.Breaker == nil {
		return fmt.Errorf("loadgen: breaker drill produced no breaker status")
	}

	if out != "" {
		if err := writeElementsMarkdown(out, mode, runOpts.Concurrency, runOpts.Duration, points, drillStatus, clearAt); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	if failed {
		return fmt.Errorf("loadgen: FAILED (check failures or transport errors during elements sweep)")
	}
	return nil
}

// writeElementsMarkdown writes the element-chain report (overwriting
// path): the skew × chain-on/off comparison, then the breaker drill's
// transition timeline and final per-tile states.
func writeElementsMarkdown(path, mode string, concurrency int, duration time.Duration, points []*elemPoint, drill *serve.Statusz, clearAt time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Data-plane element chain (loadgen -elements-sweep)\n\n")
	fmt.Fprintf(f, "Mode: %s, concurrency %d, %v per pass, GOMAXPROCS=%d, %s.\n\n",
		mode, concurrency, duration, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "## Hot-key skew: chain off vs on\n\n")
	fmt.Fprintf(f, "Each row pair is a fresh in-process server driven with the same traffic:\n")
	fmt.Fprintf(f, "skew 0 walks the sample payloads uniformly, skew s > 1 draws them from a\n")
	fmt.Fprintf(f, "Zipf(s) distribution (hot-key traffic). The chain-on rows run admission +\n")
	fmt.Fprintf(f, "breaker + cache, with the admission fill rate set high enough to be\n")
	fmt.Fprintf(f, "transparent — the comparison isolates the response cache and the chain's\n")
	fmt.Fprintf(f, "per-request overhead. -check held in every cell, so cached responses were\n")
	fmt.Fprintf(f, "byte-identical to served ones.\n\n")
	fmt.Fprintf(f, "| skew | elements | req/s | ok | cache hits | hit rate | p50 | p99 |\n")
	fmt.Fprintf(f, "|---:|---|---:|---:|---:|---:|---:|---:|\n")
	for _, p := range points {
		fmt.Fprintf(f, "| %.1f | %s | %.0f | %d | %d | %.1f%% | %v | %v |\n",
			p.skew, p.elems, p.RPS(), p.OK, p.hits, p.hitRate()*100,
			p.Latency.Quantile(0.50), p.Latency.Quantile(0.99))
	}
	br := drill.Elements.Breaker
	fmt.Fprintf(f, "\n## Breaker drill: trip and recovery\n\n")
	fmt.Fprintf(f, "Four tiles, deterministic fault injection (rate 0.9) on tile 1 only,\n")
	fmt.Fprintf(f, "breaker window %v, trip rate %.2f over ≥%d requests, open dwell %v,\n",
		time.Duration(br.WindowNS), br.TripRate, br.MinVolume, time.Duration(br.OpenForNS))
	fmt.Fprintf(f, "%d probes to re-close. Injection was stopped at t=%v (half the pass) via\n", br.Probes, clearAt)
	fmt.Fprintf(f, "the live fault control, so the timeline shows the trip under faults and\n")
	fmt.Fprintf(f, "the half-open recovery after they stop.\n\n")
	fmt.Fprintf(f, "| t (s) | tile | transition |\n")
	fmt.Fprintf(f, "|---:|---:|---|\n")
	for _, ev := range br.Events {
		fmt.Fprintf(f, "| %.3f | %d | %s → %s |\n", ev.AtSeconds, ev.Tile, ev.From, ev.To)
	}
	fmt.Fprintf(f, "\n| tile | final state | trips | last trip (s) | window reqs | window fails |\n")
	fmt.Fprintf(f, "|---:|---|---:|---:|---:|---:|\n")
	for _, t := range br.Tiles {
		fmt.Fprintf(f, "| %d | %s | %d | %.3f | %d | %d |\n",
			t.Tile, t.State, t.Trips, t.LastTripS, t.WindowRequests, t.WindowFailures)
	}
	return nil
}

func printReport(w io.Writer, r *serve.LoadgenReport) {
	fmt.Fprintf(w, "%-8s %-5s  %7.0f req/s  %6.3f Gbit/s  ok=%d shed=%d deadline=%d fellback=%d",
		r.Schema, r.Op, r.RPS(), r.Gbps(), r.OK, r.Shed, r.Deadline, r.FellBack)
	if r.Throttled > 0 {
		fmt.Fprintf(w, " throttled=%d", r.Throttled)
	}
	if r.Errors > 0 || r.Bad > 0 {
		fmt.Fprintf(w, " errors=%d bad=%d", r.Errors, r.Bad)
	}
	if r.CheckFailures > 0 {
		fmt.Fprintf(w, " CHECK-FAILURES=%d", r.CheckFailures)
	}
	fmt.Fprintf(w, "\n  latency p50=%v p99=%v p999=%v mean=%v\n",
		r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999), r.Latency.Mean())
}

// writeMarkdown writes the run's report table (overwriting path).
func writeMarkdown(path, mode string, concurrency int, duration time.Duration, reports []*serve.LoadgenReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Serving throughput (protoaccd + loadgen)\n\n")
	fmt.Fprintf(f, "Mode: %s, concurrency %d, %v per pass, GOMAXPROCS=%d, %s.\n",
		mode, concurrency, duration, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "Latency percentiles are per successful request, measured client-side.\n\n")
	fmt.Fprintf(f, "| schema | op | req/s | Gbit/s | ok | shed | deadline | fellback | p50 | p99 | p999 |\n")
	fmt.Fprintf(f, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range reports {
		fmt.Fprintf(f, "| %s | %s | %.0f | %.3f | %d | %d | %d | %d | %v | %v | %v |\n",
			r.Schema, r.Op, r.RPS(), r.Gbps(), r.OK, r.Shed, r.Deadline, r.FellBack,
			r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999))
	}
	return nil
}
