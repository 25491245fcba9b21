// Command protoaccd is the accelerator serving daemon: it hosts the
// default schema catalog and answers serialize/deserialize requests over
// TCP (length-prefixed frames, see internal/serve), routing concurrent
// requests across sharded accelerator tiles — each with its own System
// pool, admission queue, and batch executors — with admission control,
// per-request deadlines, and software-codec graceful degradation.
//
// Usage:
//
//	protoaccd [-listen addr] [-admin addr] [-tiles n]
//	          [-workers n] [-max-batch n] [-batch-window d] [-queue-depth n]
//	          [-max-payload n] [-deadline d]
//	          [-span-sample-n n]
//	          [-elements all|off|admission,breaker,cache]
//	          [-admit-rate r]
//	          [-faults rate[@site,...]] [-fault-seed n] [-fault-tiles 0,2]
//	          [-stats-out file] [-cpuprofile file] [-memprofile file]
//
// -elements enables the composable data-plane element chain every request
// traverses before the tile router: per-client token-bucket admission
// control (over-rate clients get StatusThrottled), a per-tile circuit
// breaker whose open state is the only thing that makes the router skip
// a tile, and a canonical-bytes response cache with LRU eviction. Each
// element is independently selectable and byte-transparent: chain on or
// off, every response's bytes are identical. Telemetry lands under
// serve/elements/<name>/. -admit-rate sets each client's fill rate, and
// its bucket holds 2 s of it; the breaker's and the cache's tunings are
// constants of internal/serve/elements.
//
// -admin serves the live observability plane on a second listener:
// /metrics (Prometheus text: counters, gauges, per-tile stage
// histograms), /healthz (per-tile degradation and breaker state), /statusz
// (JSON snapshot; ?write=1 flushes -stats-out mid-run), /spans (sampled
// lifecycle spans as Perfetto trace JSON), and /debug/pprof. All admin
// handlers are read-passive: scraping them perturbs neither responses
// nor counters.
//
// -span-sample-n N samples every N'th admitted request with a lifecycle
// span (admit → queue → coalesce → execute → respond) for /spans.
//
// Once both listeners are bound, the first stdout line is "protoaccd
// listening on ADDR (...)" and, with -admin, the second is "protoaccd
// admin on http://ADDR (...)", so -listen and -admin may name port 0.
//
// On SIGINT/SIGTERM — or a fatal listener accept error — the daemon
// drains in-flight work, prints "protoaccd: drained in D", then (with
// -stats-out) writes the merged telemetry counters — the serving group
// (queue, batching, shed/fallback, per-tile serve/tile<i>/ breakdowns)
// plus every accelerator unit's counters aggregated across batches — as
// JSON, or Prometheus text with a .prom suffix. /statusz?write=1 writes
// the same artifact mid-run without draining.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
)

func main() {
	var opts serve.Options
	opts.RegisterFlags(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:7411", "TCP listen address")
	admin := flag.String("admin", "", "HTTP admin listen address (/metrics, /healthz, /statusz, /spans, /debug/pprof); empty disables")
	flag.IntVar(&opts.MaxPayload, "max-payload", 0, "request payload size limit in bytes (0 = default 64KiB)")
	flag.DurationVar(&opts.Deadline, "deadline", 0, "default per-request budget (0 = default 1s)")
	flag.Float64Var(&opts.Elements.FillRate, "admit-rate", 0, "admission element: token-bucket fill rate per client, req/s; a bucket holds 2s of it (0 = default 2000)")
	statsOut := flag.String("stats-out", "", "write merged telemetry counters to this file on shutdown (JSON, or Prometheus text with a .prom suffix)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the serving run to this file (stopped at drain)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after drain")
	flag.Parse()
	// Parsing stops at a stray argument, dropping every flag after it.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "protoaccd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := serve.NewServer(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	manifest := telemetry.NewManifest("protoaccd "+strings.Join(os.Args[1:], " "), srv.ConfigFingerprint(), srv.Workers())

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var adminLn net.Listener
	if *admin != "" {
		if adminLn, err = net.Listen("tcp", *admin); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("protoaccd listening on %s (schemas: %s; tiles=%d workers=%d elements=%s)\n",
		ln.Addr(), strings.Join(srv.Catalog().Names(), ","), srv.Tiles(), srv.Workers(), opts.Elements.Spec())

	// flushStats serializes mid-run stats writes (concurrent
	// /statusz?write=1 requests may race) against the shutdown write.
	var statsMu sync.Mutex
	flushStats := func() (string, error) {
		statsMu.Lock()
		defer statsMu.Unlock()
		if err := telemetry.WriteStatsFile(*statsOut, manifest, srv.TelemetrySnapshot()); err != nil {
			return "", err
		}
		return *statsOut, nil
	}

	if adminLn != nil {
		adminOpts := serve.AdminOptions{Manifest: manifest}
		if *statsOut != "" {
			adminOpts.FlushStats = flushStats
		}
		adminSrv := &http.Server{Handler: serve.NewAdminHandler(srv, adminOpts)}
		go adminSrv.Serve(adminLn)
		fmt.Printf("protoaccd admin on http://%s (/metrics /healthz /statusz /spans /debug/pprof)\n", adminLn.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Printf("protoaccd: %v, draining\n", s)
	case err := <-done:
		// A fatal accept error ends serving; fall through to the same
		// drain + stats path a signal takes, so -stats-out still fires.
		if err != nil {
			fmt.Fprintln(os.Stderr, "protoaccd: listener failed, draining:", err)
		}
	}
	start := time.Now()
	if adminLn != nil {
		adminLn.Close()
	}
	srv.Close()
	fmt.Printf("protoaccd: drained in %v\n", time.Since(start).Round(time.Millisecond))
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		fmt.Printf("cpu profile written to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		fmt.Printf("heap profile written to %s\n", *memprofile)
	}
	for i, pc := range srv.TilePoolCounters() {
		fmt.Printf("protoaccd: tile%d pool: gets=%d hits=%d puts=%d drops=%d evictions=%d\n",
			i, pc.Gets, pc.Hits, pc.Puts, pc.Drops, pc.Evictions)
	}

	if *statsOut != "" {
		if _, err := flushStats(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry counters written to %s\n", *statsOut)
	}
}
