// Command loadgen drives a protoaccd with closed-loop (saturating) or
// open-loop (paced) load and reports request throughput and latency
// percentiles (p50/p99/p999 from log-linear histograms merged across
// workers). Open-loop latency is coordinated-omission-free: samples are
// measured from the scheduled send time, so queueing delay under
// overload lands in the tail percentiles instead of being silently
// dropped. Every mode runs through one driver, workloads.Run: a pass
// reads a catalog walk, -workload a synthesized trace.
//
// Usage:
//
//	loadgen [-addr host:port] [-schema name]
//	        [-op deser|ser|both]
//	        [-duration d] [-concurrency n] [-rate rps] [-skew s] [-timeout d]
//	        [-check] [-trace-out file]
//	        [-tiles n]
//	        [-elements all|off|admission,breaker,cache]
//	        [-workload] [-trace-seed n] [-trace-len n]
//	        [-cluster host:port,host:port] [-cluster-admin host:port,...]
//	        [-workers n] [-max-batch n] [-batch-window d] [-queue-depth n]
//	        [-faults rate[@site,...]] [-fault-seed n] [-fault-tiles 0,2]
//	        [-stats-out file] [-span-sample-n n]
//
// -skew s draws payloads from a Zipf(s) distribution over the schema's
// sample set instead of walking it uniformly — hot-key traffic, the shape
// the daemon's response-cache element exists for (s must exceed 1; larger
// is more skewed).
//
// -workload replaces the per-(schema, op) passes with a fleet-shaped
// trace from internal/workloads: it replays a seeded, deterministic
// key/size/op trace (schema mix and payload sizes shaped by the fleet
// study, Zipf-ranked key popularity), sending each record once.
// -trace-seed and -trace-len tune it; it works against an in-process
// server or a live daemon via -addr. A transport error is counted and
// the run goes on, in every mode; loadgen then exits 1.
//
// -cluster drives a pool of already-running protoaccd daemons through
// the client-side balancer (internal/serve/cluster): round-robin node
// placement, failover to another node on a transport error, and — with
// -cluster-admin — /healthz-driven node ejection and recovery.
//
// With -addr it dials an already-running daemon over TCP (one connection
// per worker). Without -addr it starts an in-process server and drives it
// through the direct client. The server flags it shares with protoaccd
// (serve.Options.RegisterFlags) and -stats-out configure that in-process
// server.
//
// -trace-out saves the in-process server's sampled lifecycle spans
// (enable -span-sample-n) as Perfetto trace JSON; a daemon serves its
// own on its admin /spans endpoint.
//
// -check verifies every OK response is byte-identical to its request
// payload (sample payloads are canonical, so the serving contract makes
// response == request for both operations, even under -faults).
//
// A flag the chosen mode would ignore is an error, even at its default
// value, and so is a -duration, -concurrency or -rate out of range or
// an argument that is not a flag; checkFlags holds the rules.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
	"protoacc/internal/telemetry"
	"protoacc/internal/workloads"
)

var (
	addr        = flag.String("addr", "", "protoaccd address; empty starts an in-process server")
	schema      = flag.String("schema", "varint", "catalog schema to exercise, or \"all\"")
	op          = flag.String("op", "both", "operation mix: deser, ser, or both (one pass per op)")
	duration    = flag.Duration("duration", 2*time.Second, "length of each pass")
	concurrency = flag.Int("concurrency", 8, "closed-loop workers (each owns one connection)")
	rate        = flag.Float64("rate", 0, "open-loop aggregate requests/sec (0 = closed loop)")
	skew        = flag.Float64("skew", 0, "Zipf skew s over the schema's sample payloads (>1 = hot-key traffic; 0 = uniform walk)")
	timeout     = flag.Duration("timeout", 0, "per-request deadline (0 = server default)")
	check       = flag.Bool("check", true, "verify each OK response is byte-identical to its payload")
	traceOut    = flag.String("trace-out", "", "in-process server: write sampled lifecycle spans as Perfetto trace JSON to this file (enable -span-sample-n)")

	workload  = flag.Bool("workload", false, "replay a synthesized fleet-shaped trace instead of the per-(schema, op) passes")
	traceSeed = flag.Int64("trace-seed", 1, "seed of the synthesized workload trace (same seed = same trace)")
	traceLen  = flag.Int("trace-len", 0, "records in the synthesized workload trace (0 = default 4096)")

	clusterAddrs = flag.String("cluster", "", "comma-separated protoaccd data addresses; drives the pool through the client-side balancer")
	clusterAdmin = flag.String("cluster-admin", "", "comma-separated admin addresses parallel to -cluster; enables /healthz polling and node ejection")

	statsOut   = flag.String("stats-out", "", "in-process server: write merged telemetry counters on exit")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run (loadgen + in-process server) to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

	// opts configures the in-process server. Its flags are the set
	// protoaccd binds too; serverFlags keeps their names for checkFlags.
	opts        serve.Options
	serverFlags = bindServerFlags(&opts)
)

func bindServerFlags(o *serve.Options) *flag.FlagSet {
	var fs flag.FlagSet
	o.RegisterFlags(&fs)
	fs.VisitAll(func(f *flag.Flag) { flag.Var(f.Value, f.Name, "in-process server: "+f.Usage) })
	return &fs
}

// Flags that only one mode reads.
var (
	clusterOnly  = []string{"cluster-admin"}
	workloadOnly = []string{"trace-seed", "trace-len"}
	// passOnly shape the per-(schema, op) passes. -workload replaces
	// them: it replays its whole trace closed-loop.
	passOnly = []string{"schema", "op", "duration", "rate", "skew", "trace-out"}
)

// checkFlags applies loadgen's rules on which flags combine to the set
// of flags given on the command line, by name, range-checks the values
// that size the run, and rejects args, the command line's arguments
// that are not flags: flag parsing stops at the first of them, so every
// flag after it would be silently dropped.
func checkFlags(given map[string]bool, args []string) error {
	var server []string
	for name := range given {
		if name == "stats-out" || serverFlags.Lookup(name) != nil {
			server = append(server, name)
		}
	}
	sort.Strings(server)
	among := func(names []string) []string {
		var out []string
		for _, n := range names {
			if given[n] {
				out = append(out, n)
			}
		}
		return out
	}
	dashed := func(names []string) string { return "-" + strings.Join(names, " -") }

	switch {
	case len(args) > 0:
		return fmt.Errorf("loadgen: unexpected argument %q", args[0])
	case given["addr"] && len(server) > 0:
		return fmt.Errorf("loadgen: in-process server flags conflict with -addr: %s", dashed(server))
	case !given["cluster"] && len(among(clusterOnly)) > 0:
		return fmt.Errorf("loadgen: cluster flags need -cluster: %s", dashed(among(clusterOnly)))
	case given["cluster"] && (given["addr"] || len(server) > 0):
		return fmt.Errorf("loadgen: -cluster replaces the single -addr target and does not combine with -addr or the in-process server flags")
	case given["cluster"] && (given["workload"] || given["trace-out"]):
		return fmt.Errorf("loadgen: -cluster does not combine with -workload or -trace-out")
	case !given["workload"] && len(among(workloadOnly)) > 0:
		return fmt.Errorf("loadgen: workload flags need -workload: %s", dashed(among(workloadOnly)))
	case given["workload"] && len(among(passOnly)) > 0:
		return fmt.Errorf("loadgen: -workload replays its whole trace closed-loop and ignores %s", dashed(among(passOnly)))
	case given["addr"] && given["trace-out"]:
		return fmt.Errorf("loadgen: -trace-out saves the in-process server's spans; a daemon serves its own on its admin /spans endpoint")
	case *duration <= 0:
		return fmt.Errorf("loadgen: -duration %v must be positive", *duration)
	case *concurrency < 1:
		return fmt.Errorf("loadgen: -concurrency %d must be at least 1", *concurrency)
	case !(*rate >= 0) || math.IsInf(*rate, 0):
		return fmt.Errorf("loadgen: -rate %g must be 0 (closed loop) or a finite positive rate", *rate)
	}
	return nil
}

func main() {
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if err := checkFlags(given, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

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

	opts.Catalog = serve.DefaultCatalog()
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

	var dial func() (serve.Doer, error)
	var srv *serve.Server
	var bal *cluster.Balancer
	target := *addr
	switch {
	case *clusterAddrs != "":
		copts, err := clusterOptions(*clusterAddrs, *clusterAdmin)
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
		target = fmt.Sprintf("cluster of %d nodes", bal.Nodes())
	case *addr == "":
		srv, err = serve.NewServer(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dial = func() (serve.Doer, error) { return srv.InProc(), nil }
		target = fmt.Sprintf("in-process (tiles=%d workers=%d)", srv.Tiles(), srv.Workers())
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

	base := workloads.LoadOptions{
		Dial:    dial,
		Catalog: catalog,
		Workers: *concurrency,
		Timeout: *timeout,
		Check:   *check,
	}
	if *workload {
		err := runWorkloads(base, *traceSeed, *traceLen, target)
		closeServer()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("loadgen: target %s, %s, concurrency %d, %v per pass\n", target, mode, *concurrency, *duration)

	base.Duration, base.RatePerSec = *duration, *rate
	total, err := runPasses(base, schemas, ops, *skew)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	failed := total.CheckFailures > 0 || total.Errors > 0

	if bal != nil {
		printClusterStats(os.Stdout, bal)
		bal.Close()
	}
	closeServer()

	if *traceOut != "" {
		if err := writeTrace(*traceOut, srv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("span trace written to %s\n", *traceOut)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "loadgen: FAILED (check failures or transport errors)")
		os.Exit(1)
	}
}

// runPasses runs one pass per (schema, op) with the base options, each
// walking the schema's samples (Zipf-skewed when skew > 1), prints each
// pass's tally, and returns their merged sum.
func runPasses(base workloads.LoadOptions, schemas []string, ops []serve.Op, skew float64) (*workloads.Tally, error) {
	total := &workloads.Tally{}
	for _, name := range schemas {
		for _, op := range ops {
			base.Source = workloads.CatalogSource(base.Catalog, name, op, skew)
			rep, err := workloads.Run(base)
			if err != nil {
				return nil, err
			}
			printTally(os.Stdout, fmt.Sprintf("%-8s %-5s", name, op), &rep.Tally, rep.Elapsed)
			total.Merge(&rep.Tally)
		}
	}
	return total, nil
}

// writeTrace saves the in-process server's sampled lifecycle spans as
// Perfetto trace JSON.
func writeTrace(path string, srv *serve.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.WritePerfetto(f, srv.SpanEvents())
}

// printTally prints one stream's summary line pair: OK throughput over
// elapsed, outcome counters, savings when calibrated, and latency.
func printTally(w io.Writer, label string, t *workloads.Tally, elapsed time.Duration) {
	var rps, gbps float64
	if elapsed > 0 {
		rps = float64(t.OK) / elapsed.Seconds()
		gbps = float64(t.BytesOut) * 8 / elapsed.Seconds() / 1e9
	}
	fmt.Fprintf(w, "%s  %7.0f req/s  %6.3f Gbit/s  ok=%d shed=%d deadline=%d fellback=%d",
		label, rps, gbps, t.OK, t.Shed, t.Deadline, t.FellBack)
	if t.Throttled > 0 {
		fmt.Fprintf(w, " throttled=%d", t.Throttled)
	}
	if t.Errors > 0 || t.Bad > 0 {
		fmt.Fprintf(w, " errors=%d bad=%d", t.Errors, t.Bad)
	}
	if t.CheckFailures > 0 {
		fmt.Fprintf(w, " CHECK-FAILURES=%d", t.CheckFailures)
	}
	if s := t.Savings(); s > 0 {
		fmt.Fprintf(w, "  savings=%.2fx", s)
	}
	fmt.Fprintf(w, "\n  latency p50=%v p99=%v p999=%v mean=%v\n",
		t.Latency.Quantile(0.50), t.Latency.Quantile(0.99), t.Latency.Quantile(0.999), t.Latency.Mean())
}
